import io
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import log_bytes
from depthprune import capture
from depthprune.actlog import ActivationTable, read_log
from depthprune.capture import capture_run, layer_stats
from depthprune.errors import EmptyInput, PlanModelMismatch
from depthprune.linalg import token_cosine_mean
from depthprune.model import ToyModelConfig, apply_prune_plan, build_model, neutralize_block
from depthprune.planner import PrunePlan
from depthprune.probes import ProbeSet, default_probe_sets, generate_probes


def test_record_count_is_samples_times_depth(small_capture, small_probes):
    _, table = small_capture
    header = table.header
    total = sum(ps.num_samples for ps in small_probes)
    assert len(table) == total * header.num_layers
    for column in (table.domain, table.subtask):
        assert column.shape == (total,)
    assert table.sim.shape == (total, header.num_layers)
    assert table.pooled_out.shape == (total, header.num_layers, header.hidden_dim)
    assert table.pooled_out.dtype == np.float32


def test_header_matches_config(small_capture, small_config):
    header = small_capture[1].header
    assert header.num_layers == small_config.num_layers
    assert header.hidden_dim == small_config.hidden_dim
    assert header.protected_layers == frozenset({0, small_config.num_layers - 1})
    assert {d.domain: d.sample_count for d in header.domains} == {"math": 50, "nonmath": 40}


def test_model_id_names_every_config_field():
    # each field builds different weights, so a log's model_id must tell them apart:
    # max_seq_len sizes the positional table, which moves every later weight's draw
    base = ToyModelConfig(num_layers=3, hidden_dim=4, num_heads=2, vocab_size=8, max_seq_len=8)
    changes = dict(num_layers=4, hidden_dim=6, num_heads=1, vocab_size=9, max_seq_len=9, seed=1)
    assert set(changes) == {f.name for f in fields(ToyModelConfig)}
    probes = default_probe_sets(base, 0, {"math": 1, "nonmath": 1})
    model_ids = {capture_run(build_model(cfg), probes)[1].header.model_id
                 for cfg in [base] + [replace(base, **{k: v}) for k, v in changes.items()]}
    assert len(model_ids) == 1 + len(changes)
    assert "toy-L3-d4-h2-v8-t8-s0" in model_ids


def test_stored_sim_matches_trace_recomputation(small_model, small_probes, small_capture):
    _, table = small_capture
    sample_id = 0
    for ps in small_probes:
        for _, tokens in ps.all_samples():
            trace = small_model.forward_with_hooks(tokens)
            for lid, h_in, h_out in zip(trace.layer_ids, trace.h_in, trace.h_out):
                expected = token_cosine_mean(h_in, h_out)
                # stored as float32: within half a float32 ulp (2**-25 below 1) of the sim
                assert abs(table.sim[sample_id, lid] - expected) < 2.0 ** -25 + 1e-12
            sample_id += 1


def test_pooled_vectors_match_trace(small_model, small_probes, small_capture):
    _, table = small_capture
    header = table.header
    tokens = next(small_probes[0].all_samples())[1]
    trace = small_model.forward_with_hooks(tokens)
    pooled = table.pooled_out[0]
    assert pooled.shape == (header.num_layers, header.hidden_dim)
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
    sims = table.sim[:, 4]
    assert sims.size and all(abs(s - 1.0) < 1e-6 for s in sims)


def test_capture_holds_what_its_log_reads_back(small_capture):
    # sims are rounded to float32 as the log stores them, so sweep (which ranks the
    # captured table) and rank, plan and heatmap (which read the log) see the same numbers
    _, table = small_capture
    logged = read_log(io.StringIO(log_bytes(table).decode()))
    for name in ("subtask", "sim", "pooled_out"):
        got, want = getattr(table, name), getattr(logged, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_sims_within_range(small_capture):
    _, table = small_capture
    assert all(-1.0 <= s <= 1.0 for s in table.sim.flat)


def test_capture_counts_clamped_sims():
    # one-token samples whose streams pass every block unchanged: rounding puts
    # some of these self-cosines an ulp above 1
    cfg = ToyModelConfig()
    model = build_model(cfg)
    probes = generate_probes("math", 2, seed=0, config=cfg)
    x = np.random.default_rng(0).standard_normal((probes.num_samples, 1, cfg.hidden_dim))
    states = np.broadcast_to(x, (cfg.num_layers + 1,) + x.shape)
    raw, _ = layer_stats(states)
    clamped, table = capture_run(model, [probes], [states])
    assert clamped == int(np.count_nonzero(np.abs(raw) > 1.0)) > 0
    np.testing.assert_array_equal(
        table.sim, np.clip(raw, -1.0, 1.0).astype(np.float32).astype(np.float64))
    # the count is returned beside the table, since no log holds it: the table its log
    # reads back equals it in every field
    logged = read_log(io.StringIO(log_bytes(table).decode()))
    for field in fields(ActivationTable):
        got, want = getattr(logged, field.name), getattr(table, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want, field.name


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
    # refused before any block runs, on the chunked path and on given runs alike
    cfg = ToyModelConfig(num_layers=4, hidden_dim=16, num_heads=2)
    probe_sets = [ProbeSet("math", ()), generate_probes("nonmath", 1, seed=0, config=cfg)]
    model = build_model(cfg)
    for runs in (None, [[], []]):
        with pytest.raises(EmptyInput, match="^probe set 'math' is empty$"):
            capture_run(model, probe_sets, runs)


def test_capture_refuses_no_probe_sets(monkeypatch):
    # a log holds at least one sample, so no probe sets is refused before any reduction
    reduced = []
    monkeypatch.setattr(capture, "layer_stats", reduced.append)
    for runs in (None, []):
        with pytest.raises(EmptyInput, match="^no probe sets: a capture needs at least one$"):
            capture_run(build_model(ToyModelConfig(num_layers=4, hidden_dim=16, num_heads=2)),
                        [], runs)
    assert reduced == []


def test_capture_refuses_a_pruned_model(monkeypatch):
    # a table holds every layer of its header, so a model that lacks one cannot fill it
    cfg = ToyModelConfig(num_layers=4, hidden_dim=16, num_heads=2)
    pruned = apply_prune_plan(build_model(cfg), PrunePlan(
        method="cka", budget_fraction=0.5, k=1, num_layers=4, protected=frozenset({0, 3}),
        pruned=(2,)))
    reduced = []
    monkeypatch.setattr(capture, "layer_stats", reduced.append)
    with pytest.raises(PlanModelMismatch, match="^capture needs all 4 layers, not 3$"):
        capture_run(pruned, default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1}))
    assert reduced == []
