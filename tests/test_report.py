import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_synthetic_records
from depthprune import report
from depthprune.baselines import random_plan
from depthprune.capture import capture_run
from depthprune.errors import (AlphaOutOfRange, BudgetInfeasible, BudgetOutOfRange,
                               DepthPruneError, EmptyInput, InconsistentDepth, InvalidConfig,
                               LayerSetMismatch, ModelMismatch, ZeroNormInput)
from depthprune.model import (Model, ToyModelConfig, apply_prune_plan, build_model,
                              default_protected)
from depthprune.planner import METHODS, PrunePlan, budget_k, parse_plan, serialize_plan
from depthprune.probes import default_probe_sets, generate_probes
from depthprune.report import (RunConfig, classify_regime, fidelity, method_scores,
                               plan_for_method, removal_pattern_grid, sweep, sweep_csv)
from depthprune.scoring import aggregate_domain, mixed_ranking, rank_order, znormalize

CFG = ToyModelConfig()


# ---- regimes ---------------------------------------------------------------

@pytest.mark.parametrize("p,label", [
    (0.0, "ranking-sensitive"),
    (0.10, "ranking-sensitive"),
    (0.15, "ranking-sensitive"),
    (0.1500001, "transition"),
    (0.25, "transition"),
    (0.32, "transition"),
    (0.33, "structure-dominated"),
    (0.40, "structure-dominated"),
    (1.0, "structure-dominated"),
])
def test_classify_regime(p, label):
    assert classify_regime(p) == label


def test_classify_regime_out_of_range():
    with pytest.raises(BudgetOutOfRange):
        classify_regime(1.2)
    with pytest.raises(BudgetOutOfRange):
        classify_regime(-0.01)


def test_regime_partition_total():
    for p in np.linspace(0, 1, 101):
        assert classify_regime(float(p)) in {
            "ranking-sensitive", "transition", "structure-dominated"}


# ---- fidelity --------------------------------------------------------------

def test_fidelity_identity_case():
    model = build_model(CFG)
    probes = generate_probes("math", 3, seed=0, config=CFG)
    rep = fidelity(model, model, probes)
    assert rep.top1_agreement == 1.0
    assert rep.mean_kl == 0.0
    assert rep.final_hidden_cosine == pytest.approx(1.0, abs=1e-12)
    assert rep.num_probes == 15


def test_fidelity_chance_agreement_between_unrelated_models():
    base = build_model(ToyModelConfig(seed=1))
    other = build_model(ToyModelConfig(seed=2))
    probes = generate_probes("nonmath", 20, seed=0, config=CFG)
    rep = fidelity(base, other, probes)
    positions = sum(len(t) for _, t in probes.all_samples())
    assert positions >= 2000
    p = 1 / CFG.vocab_size
    sigma = np.sqrt(p * (1 - p) / positions)
    assert abs(rep.top1_agreement - p) < 3 * sigma
    assert 0.0 <= rep.top1_agreement <= 1.0
    assert rep.mean_kl >= 0.0
    assert -1.0 <= rep.final_hidden_cosine <= 1.0


def test_fidelity_model_mismatch():
    base = build_model(CFG)
    other = build_model(ToyModelConfig(vocab_size=32))
    probes = generate_probes("math", 1, seed=0, config=ToyModelConfig(vocab_size=32))
    with pytest.raises(ModelMismatch):
        fidelity(base, other, probes)


def test_fidelity_degrades_under_real_pruning():
    model = build_model(CFG)
    plan = PrunePlan(method="random", budget_fraction=0.3, k=3, num_layers=12,
                     protected=default_protected(12), pruned=(4, 6, 8), seed=0)
    pruned = apply_prune_plan(model, plan)
    probes = generate_probes("math", 5, seed=0, config=CFG)
    rep = fidelity(model, pruned, probes)
    assert rep.mean_kl > 0.0
    assert rep.top1_agreement < 1.0


def test_fidelity_zero_norm_final_hidden_raises():
    base = build_model(CFG)
    # zero embeddings keep the whole residual stream at exactly zero
    zero = Model(CFG, np.zeros_like(base.embedding), np.zeros_like(base.positional),
                 base.blocks, base.unembed)
    probes = generate_probes("math", 1, seed=0, config=CFG)
    with pytest.raises(ZeroNormInput):
        fidelity(base, zero, probes)
    with pytest.raises(ZeroNormInput):
        fidelity(zero, base, probes)


def three_step_floored_softmax(logits):
    """The floored softmax written out step by step, the reference for ``_floored_softmax``."""
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    p = np.maximum(p, report.KL_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


def test_floored_softmax_equals_the_three_step_formula_bit_for_bit():
    # logit spreads up to 100 put many probabilities under the floor
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.normal(scale=rng.choice([1.0, 10.0, 100.0]), size=(5, 32, 64))
        before = logits.copy()
        got = report._floored_softmax(logits)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      three_step_floored_softmax(logits).view(np.uint64))
        # fidelity passes the base logits to every leaf, so they are left as they are
        np.testing.assert_array_equal(logits.view(np.uint64), before.view(np.uint64))


# ---- sweep -----------------------------------------------------------------

SWEEP_ARGS = dict(methods=["ours-math", "random"], budgets=[0.0, 0.25],
                  seeds=[0], probe_counts={"math": 4, "nonmath": 4})


def test_sweep_row_count_and_order():
    reports, plans, heatmap = sweep(RunConfig(model=CFG, **SWEEP_ARGS))
    assert len(reports) == 2 * 2 * 2 * 1  # methods x budgets x domains x seeds
    text = sweep_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0].startswith("method,budget,domain,seed")
    assert lines[1:] == sorted(lines[1:])


def test_sweep_zero_budget_is_identity():
    rows, _, _ = sweep(RunConfig(model=CFG, **SWEEP_ARGS))
    for _, p, _, rep in rows:
        if p == 0.0:
            assert rep.top1_agreement == 1.0
            assert rep.mean_kl == 0.0


def test_sweep_deterministic_bytes():
    a = sweep_csv(sweep(RunConfig(model=CFG, **SWEEP_ARGS))[0])
    b = sweep_csv(sweep(RunConfig(model=CFG, **SWEEP_ARGS))[0])
    assert a.encode() == b.encode()


@pytest.mark.parametrize("bad,error,message", [
    (dict(methods=["ours-math", "bogus"]), InvalidConfig, "unknown method 'bogus'"),
    (dict(budgets=[0.25, 1.5]), BudgetOutOfRange, "got 1.5"),
    (dict(budgets=["0.25"]), BudgetOutOfRange, "got '0.25'"),
    (dict(alpha=2.0), AlphaOutOfRange, r"alpha must be in \[0, 1\], got 2.0"),
    (dict(seeds=[0, 1.5]), InvalidConfig, "seeds: 1.5 is not an integer"),
    (dict(seeds=[True]), InvalidConfig, "seeds: True is not an integer"),
    (dict(probe_counts={"math": 0, "nonmath": 2}), InvalidConfig,
     "probe_counts math: must be >= 1, got 0"),
    (dict(probe_counts={"math": 2}), InvalidConfig, "probe_counts: expected one entry"),
    (dict(probe_counts={"math": 2.5, "nonmath": 2}), InvalidConfig,
     "probe_counts math: 2.5 is not an integer"),
    (dict(probe_counts={"math": {}, "nonmath": 2}), InvalidConfig,
     "probe_counts math: missing subtask 'Math-CoT'"),
    (dict(probe_seed="x"), InvalidConfig, "probe_seed: 'x' is not an integer"),
    (dict(probe_seed=1.5), InvalidConfig, "probe_seed: 1.5 is not an integer"),
    (dict(probe_seed=None), InvalidConfig, "probe_seed: None is not an integer"),
    (dict(probe_seed=True), InvalidConfig, "probe_seed: True is not an integer"),
    (dict(probe_counts={}), InvalidConfig, "probe_counts: expected one entry"),
    # a repeated entry would write its rows twice
    (dict(methods=["random", "random"]), InvalidConfig, "methods: 'random' is listed twice"),
    (dict(budgets=[0.25, 0.0, 0.25]), InvalidConfig, "budgets: 0.25 is listed twice"),
    (dict(budgets=[1, 1.0]), InvalidConfig, "budgets: 1.0 is listed twice"),
    (dict(seeds=[0, 0]), InvalidConfig, "seeds: 0 is listed twice"),
])
def test_sweep_checks_arguments_before_building_a_model(monkeypatch, bad, error, message):
    calls = []
    monkeypatch.setattr(report, "build_model", lambda config: calls.append(config))
    with pytest.raises(error, match=message):
        sweep(RunConfig(model=CFG, **{**SWEEP_ARGS, **bad}))
    assert calls == []


def test_sweep_caches_fidelity_by_the_set_of_pruned_layers(monkeypatch):
    # two methods whose plans prune the same layers in a different rank order
    orders = {"cka": (3, 5), "ours-mixed": (5, 3)}
    calls = []
    real_compare = report._compare

    def stub_plan(method, table, p, **kwargs):
        return PrunePlan(method=method, budget_fraction=p, k=2, num_layers=CFG.num_layers,
                         protected=default_protected(CFG.num_layers), pruned=orders[method])

    def counting_compare(probes, *args, **kwargs):
        calls.append(probes.domain)
        return real_compare(probes, *args, **kwargs)

    monkeypatch.setattr(report, "plan_for_method", stub_plan)
    monkeypatch.setattr(report, "_compare", counting_compare)
    reports, _, _ = sweep(RunConfig(model=CFG, methods=["cka", "ours-mixed"], budgets=[0.25],
                                    probe_counts={"math": 1, "nonmath": 1}))
    # one evaluated trie leaf per domain serves both methods
    assert sorted(calls) == ["math", "nonmath"]
    assert [(method, r.domain) for method, _, _, r in reports] == [
        ("cka", "math"), ("cka", "nonmath"), ("ours-mixed", "math"), ("ours-mixed", "nonmath")]


def test_sweep_with_no_feasible_cell_raises():
    # interlace spaces only 4 removals on the default 12-layer model
    with pytest.raises(BudgetInfeasible, match="no \\(method, budget\\) of the sweep"):
        sweep(RunConfig(model=CFG, methods=["interlace"], budgets=[0.5],
                        probe_counts={"math": 1, "nonmath": 1}))


def test_sweep_raises_a_worker_threads_error_with_its_type(monkeypatch):
    real_compare = report._compare

    def failing_compare(probes, *args, **kwargs):
        if probes.domain == "nonmath":
            raise ZeroNormInput("nonmath final state")
        return real_compare(probes, *args, **kwargs)

    monkeypatch.setattr(report, "_compare", failing_compare)
    with pytest.raises(ZeroNormInput, match="nonmath final state"):
        sweep(RunConfig(model=CFG, **SWEEP_ARGS))


def test_sweep_equals_a_serial_loop_over_the_trie():
    cfg = ToyModelConfig(num_layers=10, hidden_dim=32, num_heads=4, seed=5)
    counts = {"math": 2, "nonmath": 2}
    methods, budgets, seeds = ["ours-mixed", "cka", "random"], [0.125, 0.25, 0.5], [0, 1]
    reports, _, _ = sweep(RunConfig(model=cfg, probe_counts=counts, probe_seed=4,
                                    methods=methods, budgets=budgets, seeds=seeds))
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 4, counts)
    runs = [np.stack(list(model.stream(ps.token_matrix()))) for ps in probe_sets]
    _, table = capture_run(model, probe_sets, runs)
    cells = [(m, p, s) for m in methods for p in budgets for s in seeds]
    plans = {cell: plan_for_method(cell[0], table, cell[1], seed=cell[2])
             for cell in cells}
    pruned = {frozenset(plan.pruned): apply_prune_plan(model, plan) for plan in plans.values()}
    results = {}
    for ps, states in zip(probe_sets, runs):
        logits = model.head(states[-1])
        for key, last, leaf_logits in islice(report._trie_leaves(model, states, pruned,
                                                                 ps.token_matrix()), 1, None):
            results[key, ps.domain] = report._compare(ps, states[-1], logits, last, leaf_logits)
    assert reports == [(m, p, s, results[frozenset(plans[m, p, s].pruned), ps.domain])
                       for m, p, s in cells for ps in probe_sets]


# ---- removal grid ----------------------------------------------------------

def grid_plans():
    protected = default_protected(12)
    return [
        PrunePlan(method="cka", budget_fraction=0.2, k=2, num_layers=12,
                  protected=protected, pruned=(3, 7)),
        PrunePlan(method="interlace", budget_fraction=0.2, k=2, num_layers=12,
                  protected=protected, pruned=(2, 9)),
        PrunePlan(method="random", budget_fraction=0.0, k=0, num_layers=12,
                  protected=protected, pruned=(), seed=0),
    ]


def test_grid_csv_structure():
    text = removal_pattern_grid(grid_plans())
    lines = text.strip().split("\n")
    assert lines[0] == "method,budget," + ",".join(f"layer_{l}" for l in range(12))
    assert lines[1].startswith("protected,,")
    flags = lines[1].split(",")[2:]
    assert flags[0] == "1" and flags[11] == "1" and flags[5] == "0"
    for line, plan in zip(lines[2:], sorted(grid_plans(), key=lambda p: (p.method, p.budget_fraction))):
        cells = [int(c) for c in line.split(",")[2:]]
        assert sum(cells) == plan.k
        assert all(cells[l] == 1 for l in plan.pruned)


def test_grid_empty_plan_all_zeros():
    text = removal_pattern_grid(grid_plans())
    random_row = [l for l in text.strip().split("\n") if l.startswith("random")][0]
    assert set(random_row.split(",")[2:]) == {"0"}


def test_grid_refuses_no_plans():
    with pytest.raises(InconsistentDepth, match="^no plans given$"):
        removal_pattern_grid([])


def test_grid_inconsistent_depth():
    plans = grid_plans()
    plans.append(PrunePlan(method="cka", budget_fraction=0.0, k=0, num_layers=10,
                           protected=default_protected(10), pruned=()))
    with pytest.raises(InconsistentDepth):
        removal_pattern_grid(plans)


# ---- plan invariants over random headers -----------------------------------

@st.composite
def protected_logs(draw):
    """(header, table) of synthetic records with a random protected set that leaves a layer."""
    num_layers = draw(st.integers(3, 14))
    protected = draw(st.sets(st.integers(0, num_layers - 1), max_size=num_layers - 1))
    header, table = make_synthetic_records(num_layers, seed=draw(st.integers(0, 2 ** 16)))
    header = replace(header, protected_layers=frozenset(protected))
    return header, replace(table, header=header)


@settings(max_examples=100, deadline=None)
@given(log=protected_logs(), drawn=st.lists(st.floats(0.0, 1.0), max_size=4),
       alpha=st.floats(0.0, 1.0), seed=st.integers(-2 ** 40, 2 ** 40))
def test_every_method_plans_or_raises_a_typed_error(log, drawn, alpha, seed):
    header, table = log
    budgets = sorted({0.0, 0.1, 0.25, 0.4, 0.5, 1.0, *drawn})
    pruneable = header.pruneable
    for method in METHODS:
        plans = []
        for p in budgets:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    plan = plan_for_method(method, table, p, alpha=alpha, seed=seed)
            except LayerSetMismatch:
                # cka scores layer l by CKA(l - 1, l), which layer 0 has not
                assert method == "cka" and 0 in pruneable
                continue
            except BudgetInfeasible:
                assert method == "interlace"
                continue
            assert not (method == "cka" and 0 in pruneable)
            assert plan.k == budget_k(p, len(pruneable)) == len(plan.pruned)
            assert len(set(plan.pruned)) == plan.k and set(plan.pruned) <= set(pruneable)
            assert plan.protected == header.protected_layers
            assert parse_plan(serialize_plan(plan)) == plan
            plans.append(plan)
        if method == "interlace":
            for plan in plans:
                layers = sorted(plan.pruned)
                assert all(b - a >= 2 for a, b in zip(layers, layers[1:]))
        else:  # a larger budget extends the same order
            for small, large in zip(plans, plans[1:]):
                assert large.pruned[:small.k] == small.pruned


# ---- the random baseline ---------------------------------------------------

def test_random_plans_are_prefixes_of_the_random_ranking(small_capture):
    # rank --method M and every plan --method M come from one ranking, for each M but
    # interlace; random's is one draw per seed
    _, table = small_capture
    header = table.header
    for method in ("ours-math", "ours-nonmath", "ours-mixed", "cka", "random"):
        for seed in range(200) if method == "random" else (None,):
            scores, order = method_scores(method, table, seed=seed)
            assert sorted(order) == list(header.pruneable)
            if method == "random":
                assert scores == {l: 0.0 for l in header.pruneable}
            for p in (0.1, 0.25, 0.4, 0.5, 1.0):
                plan = plan_for_method(method, table, p, seed=seed)
                assert plan.pruned == order[:budget_k(p, len(order))], (method, p)
                assert plan.scores == (None if method == "random" else scores), (method, p)


def test_random_requires_a_seed(small_capture):
    _, table = small_capture
    header = table.header
    with pytest.raises(DepthPruneError, match="requires a seed"):
        random_plan(header.pruneable, 2, None, num_layers=header.num_layers)
    with pytest.raises(DepthPruneError, match="requires a seed"):
        method_scores("random", table)
    with pytest.raises(DepthPruneError, match="requires a seed"):
        plan_for_method("random", table, 0.25)


# ---- single-domain criteria ------------------------------------------------

def bits(scores):
    """(layer, float.hex) pairs of ``scores`` in its key order: equal only bit for bit."""
    return [(l, float(v).hex()) for l, v in scores.items()]


@settings(max_examples=100, deadline=None)
@given(log=protected_logs(), decimals=st.none() | st.integers(0, 2))
def test_single_domain_methods_equal_the_mix_at_its_endpoints(log, decimals):
    # ours-math and ours-nonmath score their own domain alone; the alpha 0 and 1 mixes of both
    # domains are the reference, in scores and order, bit for bit (rounded sims give ties and
    # zero-spread layer sets)
    _, table = log
    if decimals is not None:
        table = replace(table, sim=np.round(table.sim, decimals))
    z_math, z_nonmath = (znormalize(aggregate_domain(table, d)) for d in ("math", "nonmath"))
    for method, alpha in (("ours-math", 0.0), ("ours-nonmath", 1.0)):
        scores, order = method_scores(method, table)
        mix = mixed_ranking(z_math, z_nonmath, alpha)
        assert bits(scores) == bits(mix), method
        assert order == rank_order(mix), method


@pytest.mark.parametrize("kept,missing", [("math", "nonmath"), ("nonmath", "math")])
def test_every_method_but_the_mix_ranks_a_one_domain_capture(small_model, small_probes,
                                                              small_capture, kept, missing):
    _, table = capture_run(small_model, [ps for ps in small_probes if ps.domain == kept])
    pruneable = table.header.pruneable
    needs_missing = ("ours-mixed", f"ours-{missing}")
    for method in METHODS:
        if method in needs_missing:
            with pytest.raises(EmptyInput, match=f"^no records for domain '{missing}'$"):
                method_scores(method, table, seed=0)
            with pytest.raises(EmptyInput, match=f"^no records for domain '{missing}'$"):
                plan_for_method(method, table, 0.25, seed=0)
            continue
        if method != "interlace":  # it ranks only under a budget
            scores, order = method_scores(method, table, seed=0)
            assert sorted(order) == list(pruneable), method
        plan = plan_for_method(method, table, 0.25, seed=0)
        assert plan.k == budget_k(0.25, len(pruneable)) == len(plan.pruned), method
        assert set(plan.pruned) <= set(pruneable), method
    # the kept domain's own criterion ranks as it does on the capture of both domains
    _, both = small_capture
    assert bits(method_scores(f"ours-{kept}", table)[0]) == \
        bits(method_scores(f"ours-{kept}", both)[0])
