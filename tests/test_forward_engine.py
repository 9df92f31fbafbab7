"""Differential tests for the batched residual-state engine.

The oracle is the per-sample forward the engine replaced: einsum attention
and a ``x ** 3`` GELU cube, one sequence at a time.  The engine reorders
floating-point work (batched matmul, ``x * x * x``), so states and logits
are compared within 1e-12 absolute; resumes and sweep rows, which repeat
the engine's own arithmetic, are compared exactly.
"""

import numpy as np
import pytest

from depthprune.capture import capture_run
from depthprune.model import (Model, ToyModelConfig, apply_prune_plan, build_model,
                              neutralize_block)
from depthprune.planner import PrunePlan, default_protected
from depthprune.probes import ProbeSet, default_probe_sets, generate_probes
from depthprune.report import fidelity, plan_for_method, sweep

ATOL = 1e-12


def _ln(x):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)


def reference_forward(model, tokens):
    """Per-sample forward: (list of L+1 residual states (T, d), logits (T, V))."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    t, h = tokens.shape[0], cfg.num_heads
    hd = cfg.hidden_dim // h
    x = model.embedding[tokens] + model.positional[:t]
    mask = np.triu(np.full((t, t), -np.inf), k=1)
    states = [x]
    for blk in model.blocks:
        a = _ln(x)
        q, k, v = ((a @ w).reshape(t, h, hd) for w in (blk.wq, blk.wk, blk.wv))
        att = np.einsum("thd,shd->hts", q, k) / np.sqrt(hd) + mask[None]
        att = np.exp(att - att.max(axis=-1, keepdims=True))
        att = att / att.sum(axis=-1, keepdims=True)
        x = x + np.einsum("hts,shd->thd", att, v).reshape(t, cfg.hidden_dim) @ blk.wo
        u = _ln(x) @ blk.w_up
        g = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u ** 3)))
        x = x + g @ blk.w_down
        states.append(x)
    return states, _ln(x) @ model.unembed


def plan_for(config, pruned):
    return PrunePlan(method="random", budget_fraction=len(pruned) / (config.num_layers - 2),
                     k=len(pruned), num_layers=config.num_layers,
                     protected=default_protected(config.num_layers),
                     pruned=tuple(pruned), seed=0)


@pytest.mark.parametrize("cfg", [
    ToyModelConfig(num_layers=12, hidden_dim=64, num_heads=4, seed=3),
    ToyModelConfig(num_layers=24, hidden_dim=128, num_heads=8, seed=5),
])
def test_batched_states_match_reference(cfg):
    model = build_model(cfg)
    tokens = np.concatenate([ps.token_matrix() for ps in default_probe_sets(
        cfg, 1, {"math": 1, "nonmath": 1})])
    states, logits = model.residual_states(tokens)
    assert states.shape == (cfg.num_layers + 1,) + tokens.shape + (cfg.hidden_dim,)
    assert logits.shape == tokens.shape + (cfg.vocab_size,)
    for b, seq in enumerate(tokens):
        ref_states, ref_logits = reference_forward(model, seq)
        for l, ref in enumerate(ref_states):
            np.testing.assert_allclose(states[l, b], ref, rtol=0, atol=ATOL)
        np.testing.assert_allclose(logits[b], ref_logits, rtol=0, atol=ATOL)


def test_resume_equals_full_forward_of_pruned_model():
    cfg = ToyModelConfig()
    model = build_model(cfg)
    tokens = generate_probes("math", 2, seed=4, config=cfg).token_matrix()
    pruned = apply_prune_plan(model, plan_for(cfg, [4, 7]))
    base_states, _ = model.residual_states(tokens)
    full_states, full_logits = pruned.residual_states(tokens)
    states, logits = pruned.residual_states(tokens, start=4, x0=base_states[4])
    np.testing.assert_array_equal(states, full_states[4:])
    np.testing.assert_array_equal(logits, full_logits)


def test_adapter_trace_is_a_view_of_the_engine():
    model = build_model(ToyModelConfig())
    tokens = [5, 1, 9, 2, 6]
    trace = model.forward_with_hooks(tokens)
    states, logits = model.residual_states([tokens])
    for l in range(model.depth):
        np.testing.assert_array_equal(trace.h_in[l], states[l, 0])
        np.testing.assert_array_equal(trace.h_out[l], states[l + 1, 0])
    np.testing.assert_array_equal(trace.logits, logits[0])


@pytest.mark.parametrize("kwargs", [
    dict(tokens=[1, 2, 3]),
    dict(tokens=[[1, 2, 3]], start=2),
    dict(tokens=[[1, 2, 3]], start=13, x0=np.zeros((1, 3, 64))),
    dict(tokens=[[1, 2, 3]], start=2, x0=np.zeros((3, 64))),
    dict(tokens=[[1, 2, 64]]),
])
def test_residual_states_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        build_model(ToyModelConfig()).residual_states(**kwargs)


def test_token_matrix_rejects_mixed_lengths():
    ps = ProbeSet(domain="math", subtasks=(("Math-CoT", ((1, 2, 3), (4, 5))),), seed=0)
    with pytest.raises(ValueError):
        ps.token_matrix()


def test_neutralized_block_fidelity_equals_full_recomputation():
    # neutralize_block keeps layer ids but swaps block 5's weights, so only
    # blocks 0-4 may be taken from the base run
    cfg = ToyModelConfig()
    base = build_model(cfg)
    neutral = neutralize_block(base, 5)
    # fresh embedding arrays share nothing with base, forcing a full forward
    unshared = Model(cfg, base.embedding.copy(), base.positional.copy(), neutral.blocks,
                     base.unembed, neutral.layer_ids)
    for ps in default_probe_sets(cfg, 2, {"math": 2, "nonmath": 2}):
        resumed = fidelity(base, neutral, ps)
        assert resumed == fidelity(base, unshared, ps)
        assert resumed.mean_kl > 0.0


def test_sweep_rows_equal_uncached_fidelity():
    cfg = ToyModelConfig(num_layers=8, hidden_dim=32, num_heads=4, seed=2)
    counts = {"math": 1, "nonmath": 1}
    methods, budgets, seeds = ["ours-mixed", "cka", "interlace", "random"], [0.2, 0.4], [0, 1]
    reports, _, _ = sweep(cfg, methods, budgets, seeds, probe_counts=counts, probe_seed=3)
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 3, counts)
    runs = {ps.domain: model.residual_states(ps.token_matrix()) for ps in probe_sets}
    header, records = capture_run(model, probe_sets, runs)
    expected = []
    for method in methods:
        for p in budgets:
            for seed in seeds:
                plan = plan_for_method(method, header, records, p, seed=seed)
                pruned = apply_prune_plan(model, plan)
                expected.extend(fidelity(model, pruned, ps, method=method, budget_fraction=p,
                                         seed=seed) for ps in probe_sets)
    assert reports == expected
    # deterministic methods repeat their plan across seeds, so cached rows were checked
    assert len({(r.top1_agreement, r.mean_kl) for r in reports}) < len(reports)


def test_per_sample_capture_matches_batched_capture():
    cfg = ToyModelConfig()
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 0, {"math": 2, "nonmath": 2})
    runs = {ps.domain: model.residual_states(ps.token_matrix()) for ps in probe_sets}
    header, records = capture_run(model, probe_sets)
    batched_header, batched = capture_run(model, probe_sets, runs)
    assert header == batched_header
    for name in ("sample_id", "layer", "domain", "subtask"):
        np.testing.assert_array_equal(getattr(records, name), getattr(batched, name))
    assert np.abs(records.sim - batched.sim).max() <= ATOL
    np.testing.assert_allclose(records.pooled_out, batched.pooled_out, rtol=1e-6)
