"""Differential tests for the batched residual-state engine.

The oracle is the per-sample forward the engine replaced: einsum attention
and a ``x ** 3`` GELU cube, one sequence at a time.  The engine reorders
floating-point work (batched matmul, ``x * x * x``), so states, logits and
capture sims are compared within 1e-12 absolute, and float32 pooled
outputs within that plus float32 rounding; resumes, stacked streams and
sweep rows, which repeat the engine's own arithmetic, are compared exactly.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from depthprune.capture import capture_run
from depthprune.model import (CHUNK, Model, ToyModelConfig, apply_prune_plan, build_model,
                              default_protected, neutralize_block)
from depthprune.planner import PrunePlan
from depthprune.probes import (MATH_SUBTASKS, NONMATH_SUBTASKS, ProbeSet, default_probe_sets,
                               generate_probes)
from depthprune import report
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
    states = np.stack(list(model.stream(tokens)))
    logits = model.head(states[-1])
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
    base_states = np.stack(list(model.stream(tokens)))
    full_states = np.stack(list(pruned.stream(tokens)))
    states = np.stack(list(pruned.stream(tokens, start=4, x0=base_states[4])))
    full_logits, logits = pruned.head(full_states[-1]), pruned.head(states[-1])
    np.testing.assert_array_equal(states, full_states[4:])
    np.testing.assert_array_equal(logits, full_logits)


def test_adapter_trace_is_a_view_of_the_engine():
    model = build_model(ToyModelConfig())
    tokens = [5, 1, 9, 2, 6]
    trace = model.forward_with_hooks(tokens)
    states = np.stack(list(model.stream([tokens])))
    logits = model.head(states[-1])
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
        next(build_model(ToyModelConfig()).stream(**kwargs))


def test_token_matrix_rejects_mixed_lengths():
    ps = ProbeSet(domain="math", subtasks=(("Math-CoT", ((1, 2, 3), (4, 5))),))
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
    runs = [np.stack(list(model.stream(ps.token_matrix()))) for ps in probe_sets]
    header, records = capture_run(model, probe_sets, runs)
    expected = []
    for method in methods:
        for p in budgets:
            for seed in seeds:
                plan = plan_for_method(method, header, records, p, seed=seed)
                pruned = apply_prune_plan(model, plan)
                expected.extend(replace(fidelity(model, pruned, ps), method=method,
                                        budget_fraction=p, seed=seed) for ps in probe_sets)
    assert reports == expected
    # deterministic methods repeat their plan across seeds, so cached rows were checked
    assert len({(r.top1_agreement, r.mean_kl) for r in reports}) < len(reports)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_per_sample_capture_matches_batched_capture(n):
    # the default path streams CHUNK samples at a time; runs of whole-domain
    # states must give the same bits, with n samples per subtask either side of a chunk
    cfg = ToyModelConfig()
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 0, {"math": {MATH_SUBTASKS[0]: n, MATH_SUBTASKS[3]: n},
                                             "nonmath": {NONMATH_SUBTASKS[1]: n}})
    runs = [np.stack(list(model.stream(ps.token_matrix()))) for ps in probe_sets]
    header, records = capture_run(model, probe_sets)
    batched_header, batched = capture_run(model, probe_sets, runs)
    assert header == batched_header
    assert records.clamped == batched.clamped
    for name in ("sample_id", "layer", "domain", "subtask", "sim", "pooled_out"):
        np.testing.assert_array_equal(getattr(records, name), getattr(batched, name))


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_capture_matches_per_sample_reference(n):
    # n samples per domain, either side of a chunk boundary
    cfg = ToyModelConfig(seed=4)
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 6, {"math": {MATH_SUBTASKS[1]: n},
                                             "nonmath": {NONMATH_SUBTASKS[2]: n}})
    _, table = capture_run(model, probe_sets)
    sims, pooled = [], []
    for ps in probe_sets:
        for _, tokens in ps.all_samples():
            states, _ = reference_forward(model, tokens)
            for h_in, h_out in zip(states[:-1], states[1:]):
                cos = np.sum(h_in * h_out, axis=-1) / (np.sqrt(np.sum(h_in * h_in, axis=-1))
                                                       * np.sqrt(np.sum(h_out * h_out, axis=-1)))
                sims.append(cos.mean())
                pooled.append(h_out.mean(axis=0))
    np.testing.assert_array_equal(table.sample_id, np.repeat(np.arange(2 * n), cfg.num_layers))
    np.testing.assert_allclose(table.sim, sims, rtol=0, atol=ATOL)
    np.testing.assert_allclose(table.pooled_out, pooled, rtol=2.0 ** -23, atol=ATOL)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_stream_equals_per_sample_streams(n):
    # blocks are evaluated CHUNK samples at a time; rows must not see the batch size
    model = build_model(ToyModelConfig(seed=6))
    tokens = np.random.default_rng(n).integers(0, model.config.vocab_size, size=(n, 20))
    singles = [list(model.stream(tokens[i:i + 1])) for i in range(n)]
    for l, x in enumerate(model.stream(tokens)):
        np.testing.assert_array_equal(x, np.concatenate([s[l] for s in singles]))


def allocating_block(blk, x, mask, heads):
    """One block as evaluated before scratch buffers: every step on new arrays."""
    b, t, d = x.shape
    hd = d // heads

    def ln(y):
        y = y - y.mean(axis=-1, keepdims=True)
        var = np.square(y).mean(axis=-1, keepdims=True)
        var += 1e-6
        y /= np.sqrt(var, out=var)
        return y

    a = ln(x)
    q, k, v = ((a @ w).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
               for w in (blk.wq, blk.wk, blk.wv))
    att = q @ k.transpose(0, 1, 3, 2)
    att *= 1.0 / np.sqrt(hd)
    att += mask
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    h = x + (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d) @ blk.wo
    u = ln(h) @ blk.w_up
    g = u * u
    g *= u
    g *= 0.044715
    g += u
    g *= np.sqrt(2.0 / np.pi)
    np.tanh(g, out=g)
    g += 1.0
    g *= u
    g *= 0.5
    h += g @ blk.w_down
    return h


@pytest.mark.parametrize("cfg", [
    ToyModelConfig(seed=6),
    ToyModelConfig(num_layers=24, hidden_dim=128, num_heads=8, seed=11),
])
@pytest.mark.parametrize("n", [1, CHUNK + 1, 2 * CHUNK + 1])
def test_scratch_buffered_stream_equals_allocating_blocks(cfg, n):
    # the states are yielded from reused scratch buffers, so each must be a
    # new array that no later block writes to
    model = build_model(cfg)
    tokens = np.random.default_rng(n).integers(0, cfg.vocab_size, size=(n, 19))
    x = model.embedding[tokens] + model.positional[:19]
    mask = np.triu(np.full((19, 19), -np.inf), k=1)
    expected = [x]
    for blk in model.blocks:
        x = np.concatenate([allocating_block(blk, x[lo:lo + CHUNK], mask, cfg.num_heads)
                            for lo in range(0, n, CHUNK)])
        expected.append(x)
    kept = []
    for l, state in enumerate(model.stream(tokens)):
        np.testing.assert_array_equal(state, expected[l])
        kept.append((state, state.copy()))
    for i, (state, at_yield) in enumerate(kept):
        np.testing.assert_array_equal(state, at_yield)
        assert not any(np.shares_memory(state, other) for other, _ in kept[i + 1:])


@pytest.mark.parametrize("tokens", [
    [[1.7, 2.2]],
    [[1.0, 2.0]],
    np.array([[True, False]]),
    np.array([[1, 2]], dtype=object),
])
def test_stream_rejects_tokens_that_are_not_integers(tokens):
    model = build_model(ToyModelConfig())
    with pytest.raises(ValueError, match="tokens must be integers"):
        next(model.stream(tokens))
    with pytest.raises(ValueError, match="tokens must be integers"):
        model.forward_with_hooks(np.asarray(tokens)[0])


def test_trimmed_trie_equals_full_forwards():
    # many overlapping pruned sets, so leaves resume from states that several
    # earlier leaves left on the path, and from base states; then the same
    # sets from a streamed base, with a leaf in the middle of the order whose
    # copied embeddings it shares with no other model
    cfg = ToyModelConfig(num_layers=10, hidden_dim=32, num_heads=4, seed=7)
    model = build_model(cfg)
    tokens = generate_probes("math", 1, seed=5, config=cfg).token_matrix()
    rng = np.random.default_rng(0)
    pruned_sets = {frozenset()} | {frozenset(rng.choice(np.arange(1, 9), size=k, replace=False)
                                             .tolist()) for k in (1, 2, 3, 4) for _ in range(8)}
    models = {key: apply_prune_plan(model, plan_for(cfg, sorted(key))) for key in pruned_sets}
    middle = sorted(models.values(), key=lambda m: m.layer_ids)[len(models) // 2]
    copied = Model(cfg, model.embedding.copy(), model.positional.copy(), middle.blocks,
                   model.unembed, middle.layer_ids)
    for base_states, leaf_models in [(list(model.stream(tokens)), models),
                                     (model.stream(tokens), {**models, "copied": copied})]:
        leaves = list(report._trie_leaves(model, base_states, leaf_models, tokens))[1:]
        assert len(leaves) == len(leaf_models) == len({key for key, _, _ in leaves})
        for key, last, logits in leaves:
            full_states = list(leaf_models[key].stream(tokens))
            np.testing.assert_array_equal(last, full_states[-1])
            np.testing.assert_array_equal(logits, leaf_models[key].head(full_states[-1]))


def reference_fidelity(base, pruned, probes):
    """The fidelity loop that the one-leaf trie walk replaced.

    It streams the base keeping its state after the shared block prefix and
    its last state, then streams the pruned model from the former.
    """
    tokens = probes.token_matrix()
    f = report._shared_prefix(base, pruned)
    x0 = None
    for i, hb in enumerate(base.stream(tokens)):
        if i == f:
            x0 = hb
    stream = pruned.stream(tokens) if x0 is None else pruned.stream(tokens, start=f, x0=x0)
    for last in stream:
        pass
    return report._compare(probes, hb, base.head(hb), last, pruned.head(last))


def test_fidelity_equals_the_loop_it_replaced():
    cfg = ToyModelConfig(seed=3)
    base = build_model(cfg)
    planned = apply_prune_plan(base, plan_for(cfg, [3, 4, 8]))
    models = [
        base,
        planned,
        neutralize_block(base, 6),
        Model(cfg, base.embedding.copy(), base.positional.copy(), planned.blocks, base.unembed,
              planned.layer_ids),
        build_model(ToyModelConfig(seed=4)),
    ]
    for ps in default_probe_sets(cfg, 1, {"math": 1, "nonmath": 1}):
        for pruned in models:
            expected = reference_fidelity(base, pruned, ps)
            assert fidelity(base, pruned, ps) == expected


def test_fidelity_holds_at_most_two_base_states(monkeypatch):
    # the base is streamed: only its state at the pruned model's first
    # removed layer and its last state may outlive the base forward
    cfg = ToyModelConfig()
    base = build_model(cfg)
    pruned = apply_prune_plan(base, plan_for(cfg, [4, 7]))
    probes = generate_probes("math", 1, seed=0, config=cfg)
    base_states, alive = [], []
    real_stream = Model.stream

    def watched_stream(self, tokens, start=0, x0=None):
        for x in real_stream(self, tokens, start, x0):
            if self is base:
                base_states.append(weakref.ref(x))
            else:
                alive.append(sum(ref() is not None for ref in base_states))
            yield x

    monkeypatch.setattr(Model, "stream", watched_stream)
    fidelity(base, pruned, probes)
    assert len(base_states) == cfg.num_layers + 1
    assert len(alive) == pruned.depth - 4 + 1 and max(alive) <= 2


def test_sweep_drops_each_base_state_its_walk_has_passed(monkeypatch):
    # each domain's walk drains its list of base states: when a pruned model
    # starts to stream, only the base states it or a later leaf resumes from
    # and the base's last state may still be alive
    cfg = ToyModelConfig(num_layers=10, hidden_dim=32, num_heads=4, seed=5)
    built, base_states, starts = [], {}, {}
    real_build, real_stream = report.build_model, Model.stream

    def watched_build(config):
        built.append(real_build(config))
        return built[-1]

    def watched_stream(self, tokens, start=0, x0=None):
        refs = base_states.setdefault(id(tokens), [])
        for i, x in enumerate(real_stream(self, tokens, start, x0)):
            if self is built[0]:
                refs.append(weakref.ref(x))
            elif i == 0:
                starts.setdefault(id(tokens), []).append(
                    (report._shared_prefix(built[0], self), sum(r() is not None for r in refs)))
            yield x

    monkeypatch.setattr(report, "build_model", watched_build)
    monkeypatch.setattr(Model, "stream", watched_stream)
    sweep(cfg, ["ours-mixed", "cka", "random"], [0.125, 0.25, 0.5], [0, 1],
          probe_counts={"math": 1, "nonmath": 1}, probe_seed=4)
    assert len(base_states) == len(starts) == 2
    for domain, leaves in starts.items():
        assert len(base_states[domain]) == cfg.num_layers + 1
        bounds = [len({sp for sp, _ in leaves[j:]}) + 1 for j in range(len(leaves))]
        assert all(alive <= bound for (_, alive), bound in zip(leaves, bounds)), (leaves, bounds)
        assert max(bounds) < cfg.num_layers + 1


def test_sweep_evaluates_each_prefix_trie_node_once(monkeypatch):
    cfg = ToyModelConfig(num_layers=10, hidden_dim=32, num_heads=4, seed=2)
    counts = {"math": 1, "nonmath": 1}
    methods, budgets, seeds = ["ours-mixed", "cka", "interlace", "random"], [0.1, 0.25, 0.4], [0, 1]
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 3, counts)
    runs = [np.stack(list(model.stream(ps.token_matrix()))) for ps in probe_sets]
    header, table = capture_run(model, probe_sets, runs)
    pruned_sets = {frozenset(plan_for_method(method, header, table, p, seed=seed).pruned)
                   for method in methods for p in budgets for seed in seeds}
    # a node is the stream after retained layer j, given the layers pruned below j;
    # nodes with nothing pruned below j are the base run's own states
    nodes = {(j, frozenset(l for l in pruned if l < j))
             for pruned in pruned_sets for j in range(cfg.num_layers)
             if j not in pruned and min(pruned, default=j) < j}
    resumed_blocks = sum(cfg.num_layers - min(pruned) - len(pruned)
                         for pruned in pruned_sets if pruned)
    assert len(nodes) < resumed_blocks  # the sets share prefixes, so the trie saves blocks

    evaluated = []
    real_stream = Model.stream

    def counting_stream(self, tokens, start=0, x0=None):
        for i, x in enumerate(real_stream(self, tokens, start, x0)):
            if i and self.depth < cfg.num_layers:
                evaluated.append(self.layer_ids[start + i - 1])
            yield x

    monkeypatch.setattr(Model, "stream", counting_stream)
    sweep(cfg, methods, budgets, seeds, probe_counts=counts, probe_seed=3)
    assert len(evaluated) == len(probe_sets) * len(nodes)
