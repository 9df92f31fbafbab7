import tracemalloc

import numpy as np
import pytest

from depthprune import capture
from depthprune.capture import capture_run, layer_stats
from depthprune.linalg import token_cosine_mean
from depthprune.model import ToyModelConfig, build_model, neutralize_block
from depthprune.probes import ProbeSet, default_probe_sets, generate_probes


def test_record_count_is_samples_times_depth(small_capture, small_probes):
    header, table = small_capture
    total = sum(ps.num_samples for ps in small_probes)
    assert len(table) == total * header.num_layers
    assert table.header is header
    for column in (table.sample_id, table.layer, table.domain, table.subtask, table.sim):
        assert column.shape == (len(table),)
    assert table.pooled_out.shape == (len(table), header.hidden_dim)
    assert table.pooled_out.dtype == np.float32


def test_header_matches_config(small_capture, small_config):
    header, _ = small_capture
    assert header.num_layers == small_config.num_layers
    assert header.hidden_dim == small_config.hidden_dim
    assert header.protected_layers == frozenset({0, small_config.num_layers - 1})
    assert {d.domain: d.sample_count for d in header.domains} == {"math": 50, "nonmath": 40}


def test_stored_sim_matches_trace_recomputation(small_model, small_probes, small_capture):
    _, table = small_capture
    by_sample = {}
    for sample_id, layer, sim in zip(table.sample_id.tolist(), table.layer.tolist(),
                                     table.sim.tolist()):
        by_sample.setdefault(sample_id, {})[layer] = sim
    sample_id = 0
    for ps in small_probes:
        for _, tokens in ps.all_samples():
            trace = small_model.forward_with_hooks(tokens)
            for lid, h_in, h_out in zip(trace.layer_ids, trace.h_in, trace.h_out):
                expected = token_cosine_mean(h_in, h_out)
                assert abs(by_sample[sample_id][lid] - expected) < 1e-12
            sample_id += 1


def test_pooled_vectors_match_trace(small_model, small_probes, small_capture):
    header, table = small_capture
    tokens = next(small_probes[0].all_samples())[1]
    trace = small_model.forward_with_hooks(tokens)
    first = table.sample_id == 0
    assert table.layer[first].tolist() == list(range(header.num_layers))
    pooled = table.pooled_out[first]
    for layer in range(header.num_layers):
        np.testing.assert_allclose(pooled[layer], trace.h_out[layer].mean(axis=0), rtol=1e-5)
        # the pooled input v1 stored is the previous layer's pooled output
        if layer > 0:
            np.testing.assert_allclose(pooled[layer - 1], trace.h_in[layer].mean(axis=0),
                                       rtol=1e-5)


def test_neutralized_block_sim_is_one():
    cfg = ToyModelConfig()
    model = neutralize_block(build_model(cfg), 4)
    probes = generate_probes("math", 2, seed=0, config=cfg)
    _, table = capture_run(model, [probes])
    sims = table.sim[table.layer == 4]
    assert sims.size and all(abs(s - 1.0) < 1e-6 for s in sims)


def test_sims_within_range(small_capture):
    _, table = small_capture
    assert all(-1.0 <= s <= 1.0 for s in table.sim)


def test_capture_counts_clamped_sims():
    # one-token samples whose streams pass every block unchanged: rounding puts
    # some of these self-cosines an ulp above 1
    cfg = ToyModelConfig()
    model = build_model(cfg)
    probes = generate_probes("math", 2, seed=0, config=cfg)
    x = np.random.default_rng(0).standard_normal((probes.num_samples, 1, cfg.hidden_dim))
    states = np.broadcast_to(x, (cfg.num_layers + 1,) + x.shape)
    raw, _ = layer_stats(states)
    _, table = capture_run(model, [probes], [states])
    assert table.clamped == int(np.count_nonzero(np.abs(raw) > 1.0)) > 0
    np.testing.assert_array_equal(table.sim, np.clip(raw, -1.0, 1.0).reshape(-1))


def test_capture_rejects_runs_of_the_wrong_form(monkeypatch):
    # a mapping (the old per-domain form) or a miscounted list fails before any reduction
    cfg = ToyModelConfig(num_layers=4, hidden_dim=16, num_heads=2)
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1})
    states = list(model.stream(probe_sets[0].token_matrix()))
    reduced = []
    monkeypatch.setattr(capture, "layer_stats", reduced.append)
    with pytest.raises(ValueError, match="^runs: expected one iterable of states per probe set, "
                                         "got a mapping"):
        capture_run(model, probe_sets[:1], {"math": (states, None)})
    for runs in ([states], [states] * 3):
        with pytest.raises(ValueError, match=f"^runs: {len(runs)} runs for 2 probe sets"):
            capture_run(model, probe_sets, runs)
    assert reduced == []


def test_capture_memory_does_not_grow_with_the_probe_count():
    # the default path holds CHUNK-sample states, not whole-domain ones: five
    # times the probes add their output columns to the peak, not a domain's state
    cfg = ToyModelConfig()
    model = build_model(cfg)
    peaks = []
    for n in (10, 50):
        probe_sets = default_probe_sets(cfg, 0, {"math": n, "nonmath": n})
        tracemalloc.start()
        try:
            capture_run(model, probe_sets)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    state = max(ps.token_matrix().size for ps in probe_sets) * cfg.hidden_dim * 8
    assert peaks[1] - peaks[0] < state


def test_capture_refuses_an_empty_probe_set():
    # chunking must not skip a domain with no samples, which stream refuses
    cfg = ToyModelConfig(num_layers=4, hidden_dim=16, num_heads=2)
    probe_sets = [ProbeSet("math", ()), generate_probes("nonmath", 1, seed=0, config=cfg)]
    with pytest.raises(ValueError, match="^tokens must be a non-empty"):
        capture_run(build_model(cfg), probe_sets)
