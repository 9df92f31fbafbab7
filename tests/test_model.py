import hashlib
import re
import threading
import time

import numpy as np
import pytest

from depthprune import model as model_module
from depthprune.capture import capture_run
from depthprune.errors import (InvalidConfig, PlanModelMismatch, SchemaViolation,
                               SequenceTooLong)
from depthprune.model import (ToyModelConfig, apply_prune_plan, build_model,
                              default_protected, neutralize_block, threaded)
from depthprune.planner import PrunePlan
from depthprune.probes import default_probe_sets
from depthprune.rng import SeededStream


def plan_for(config, pruned, p=None):
    n_mid = config.num_layers - 2
    k = len(pruned)
    return PrunePlan(method="random", budget_fraction=p if p is not None else k / n_mid,
                     k=k, num_layers=config.num_layers,
                     protected=default_protected(config.num_layers),
                     pruned=tuple(pruned), seed=0)


def test_build_deterministic():
    cfg = ToyModelConfig(seed=123)
    m1, m2 = build_model(cfg), build_model(cfg)
    tokens = [1, 2, 3, 4]
    np.testing.assert_array_equal(m1.logits(tokens), m2.logits(tokens))
    for b1, b2 in zip(m1.blocks, m2.blocks):
        np.testing.assert_array_equal(b1.wq, b2.wq)


def test_seed_changes_weights():
    m1 = build_model(ToyModelConfig(seed=1))
    m2 = build_model(ToyModelConfig(seed=2))
    assert not np.array_equal(m1.embedding, m2.embedding)


def test_min_depth_pruneable_set():
    cfg = ToyModelConfig(num_layers=3)
    probe_sets = default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1})
    header, _ = capture_run(build_model(cfg), probe_sets)
    assert header.pruneable == (1,)


@pytest.mark.parametrize("kwargs", [
    dict(num_layers=2),
    dict(hidden_dim=8, num_heads=3),
    dict(vocab_size=0),
    dict(vocab_size=1),
    dict(num_heads=0),
    dict(max_seq_len=0),
])
def test_invalid_config(kwargs):
    with pytest.raises(InvalidConfig):
        ToyModelConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(hidden_dim=64.0),
    dict(num_heads=True),
    dict(num_layers="12"),
    dict(seed=None),
    dict(vocab_size=np.int64(64)),
])
def test_config_rejects_a_field_that_is_not_a_plain_int(kwargs):
    # checked before any weight is drawn; a bool would build a 1-head model
    [(name, value)] = kwargs.items()
    message = f"^{name}: {re.escape(repr(value))} is not an integer$"
    with pytest.raises(InvalidConfig, match=message):
        build_model(ToyModelConfig(**kwargs))


def test_logits_shape():
    cfg = ToyModelConfig()
    trace = build_model(cfg).forward_with_hooks([5, 6, 7])
    assert trace.logits.shape == (3, cfg.vocab_size)
    assert len(trace.h_in) == len(trace.h_out) == cfg.num_layers
    assert trace.h_in[0].shape == (3, cfg.hidden_dim)


def test_sequence_too_long():
    cfg = ToyModelConfig(max_seq_len=4)
    with pytest.raises(SequenceTooLong):
        build_model(cfg).forward_with_hooks([0] * 5)


def test_traces_bit_identical():
    cfg = ToyModelConfig(seed=7)
    t1 = build_model(cfg).forward_with_hooks([3, 1, 4])
    t2 = build_model(cfg).forward_with_hooks([3, 1, 4])
    for a, b in zip(t1.h_out, t2.h_out):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(t1.logits, t2.logits)


def test_neutralized_block_is_exact_identity():
    cfg = ToyModelConfig()
    m = neutralize_block(build_model(cfg), 5)
    trace = m.forward_with_hooks([1, 2, 3, 4, 5])
    np.testing.assert_array_equal(trace.h_in[5], trace.h_out[5])


def test_empty_plan_is_identity():
    cfg = ToyModelConfig()
    m = build_model(cfg)
    pruned = apply_prune_plan(m, plan_for(cfg, [], p=0.0))
    tokens = [9, 8, 7]
    np.testing.assert_array_equal(m.logits(tokens), pruned.logits(tokens))


def test_prune_neutralized_block_matches_unpruned():
    cfg = ToyModelConfig()
    m = neutralize_block(build_model(cfg), 6)
    pruned = apply_prune_plan(m, plan_for(cfg, [6]))
    for tokens in ([0, 1, 2], [5] * 10, list(range(12))):
        np.testing.assert_allclose(pruned.logits(tokens), m.logits(tokens), atol=1e-5)


def test_depth_arithmetic():
    cfg = ToyModelConfig()
    m = build_model(cfg)
    pruned = apply_prune_plan(m, plan_for(cfg, [2, 5, 9]))
    assert pruned.depth == cfg.num_layers - 3
    assert pruned.layer_ids == tuple(l for l in range(12) if l not in {2, 5, 9})


def test_plan_touching_protected_layer_rejected():
    cfg = ToyModelConfig()
    m = build_model(cfg)
    # each endpoint is refused even when the plan protects only the other one
    for protected, pruned in (({11}, (0,)), ({0}, (11,))):
        bad = PrunePlan(method="random", budget_fraction=0.1, k=1, num_layers=12,
                        protected=frozenset(protected), pruned=pruned, seed=0)
        with pytest.raises(PlanModelMismatch, match=f"^pruned layer {pruned[0]} is protected$"):
            apply_prune_plan(m, bad)


def test_plan_out_of_range_rejected():
    # a plan checks itself when it is built, so no such plan reaches apply_prune_plan
    with pytest.raises(SchemaViolation, match=r"^pruned: 14 outside \[0, 12\)$"):
        PrunePlan(method="random", budget_fraction=0.1, k=1, num_layers=12,
                  protected=frozenset({0, 11}), pruned=(14,), seed=0)


def test_pruning_an_already_pruned_layer_rejected():
    cfg = ToyModelConfig()
    plan = plan_for(cfg, [4])
    once = apply_prune_plan(build_model(cfg), plan)
    with pytest.raises(PlanModelMismatch, match="^pruned layer 4 not present in model$"):
        apply_prune_plan(once, plan)


def test_plan_depth_mismatch_rejected():
    m = build_model(ToyModelConfig(num_layers=6))
    plan = plan_for(ToyModelConfig(num_layers=12), [3])
    with pytest.raises(PlanModelMismatch):
        apply_prune_plan(m, plan)


def test_retained_blocks_keep_original_order():
    cfg = ToyModelConfig()
    m = build_model(cfg)
    pruned = apply_prune_plan(m, plan_for(cfg, [4]))
    # block 5 of the original is now at position 4
    np.testing.assert_array_equal(pruned.blocks[4].wq, m.blocks[5].wq)


class _ReferenceStream:
    """The serial counter-mode stream, as drawn before draw positions existed."""

    def __init__(self, seed):
        self._seed, self._pos = np.uint64(seed & 0xFFFFFFFFFFFFFFFF), 0

    def gaussians(self, n):
        m = (n + 1) // 2
        idx = np.arange(self._pos + 1, self._pos + 2 * m + 1, dtype=np.uint64)
        self._pos += 2 * m
        z = self._seed + idx * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log1p(-u[:m]))
        theta = 2.0 * np.pi * u[m:]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def reference_weights(config):
    """Every weight tensor in draw order, drawn one after another on one thread."""
    stream = _ReferenceStream(config.seed)
    d = config.hidden_dim

    def draw(rows, cols, std):
        return stream.gaussians(rows * cols).reshape(rows, cols) * std

    proj_std = 1.0 / np.sqrt(d)
    weights = [draw(config.vocab_size, d, 1.0), draw(config.max_seq_len, d, 1.0)]
    for _ in range(config.num_layers):
        weights += [draw(d, d, proj_std), draw(d, d, proj_std), draw(d, d, proj_std),
                    draw(d, d, proj_std), draw(d, 4 * d, proj_std),
                    draw(4 * d, d, 1.0 / np.sqrt(4 * d))]
    return weights + [draw(d, config.vocab_size, proj_std)]


def model_weights(model):
    blocks = [getattr(blk, name) for blk in model.blocks
              for name in ("wq", "wk", "wv", "wo", "w_up", "w_down")]
    return [model.embedding, model.positional] + blocks + [model.unembed]


@pytest.mark.parametrize("cfg", [
    ToyModelConfig(),
    ToyModelConfig(num_layers=24, hidden_dim=128, num_heads=8, seed=11),
    # odd element counts, so draw positions fall between Box-Muller pairs
    ToyModelConfig(num_layers=3, vocab_size=3, hidden_dim=1, num_heads=1, max_seq_len=5,
                   seed=2 ** 64 + 9),
])
def test_build_model_equals_a_serial_draw(cfg):
    built, ref = model_weights(build_model(cfg)), reference_weights(cfg)
    assert len(built) == len(ref) == 6 * cfg.num_layers + 3
    for w, r in zip(built, ref):
        assert w.shape == r.shape and w.dtype == np.float64 and w.flags.c_contiguous
        np.testing.assert_array_equal(w, r)


def test_default_weights_are_pinned():
    # SHA-256 of the default config's weights in draw order, as drawn by the
    # serial loop above (numpy 2.4, x86-64); it pins numpy's float64 log1p,
    # cos and sin as well as the stream
    digest = hashlib.sha256()
    for w in model_weights(build_model(ToyModelConfig())):
        digest.update(w.tobytes())
    assert digest.hexdigest() == \
        "af8c6cf85534a634c47d6a6520e4e3ccbc5f62b03d52b900ab8502257b58e7bf"


def test_build_model_reraises_a_worker_threads_error_with_its_type(monkeypatch):
    class WorkerFailure(Exception):
        pass

    class FailsOffTheCallingThread(SeededStream):
        def gaussians(self, n, out=None):
            if threading.current_thread() is not threading.main_thread():
                raise WorkerFailure("drawn off the calling thread")
            return super().gaussians(n, out)

    monkeypatch.setattr(model_module, "SeededStream", FailsOffTheCallingThread)
    with pytest.raises(WorkerFailure, match="drawn off the calling thread"):
        build_model(ToyModelConfig())


def test_threaded_returns_results_in_item_order_and_runs_the_first_item_here():
    def fn(item):  # later items finish first
        time.sleep(0.01 * item)
        return item * item, threading.get_ident()

    results = threaded(fn, [3, 2, 1, 0])
    assert [square for square, _ in results] == [9, 4, 1, 0]
    idents = [ident for _, ident in results]
    assert idents[0] == threading.get_ident()
    assert threading.get_ident() not in idents[1:]


def test_threaded_re_raises_a_worker_exception_with_its_own_type():
    class WorkerError(Exception):
        pass

    def fn(item):
        if item == "bad":
            raise WorkerError(item)
        return item

    with pytest.raises(WorkerError, match="^bad$"):
        threaded(fn, ["good", "bad"])
