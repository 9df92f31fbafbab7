"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS line on success
(run with `pytest -s` to see them inline).
"""

import itertools
import time

import numpy as np
import pytest

from conftest import make_synthetic_records
from depthprune.baselines import interlace_solution, linear_cka
from depthprune.capture import capture_run
from depthprune.errors import BudgetInfeasible
from depthprune.linalg import token_cosine_mean
from depthprune.model import (ToyModelConfig, apply_prune_plan, build_model,
                              neutralize_block)
from depthprune.planner import METHODS, budget_k
from depthprune.probes import default_probe_sets
from depthprune.report import RunConfig, classify_regime, fidelity, plan_for_method, sweep, sweep_csv, removal_pattern_grid
from depthprune.scoring import DomainScoreTable, mixed_ranking, rank_order, znormalize

from test_baselines import hsic_cka_oracle, random_orthogonal


def random_table(rng, domain="math", layers=10, lo=1, scale=1.0):
    raw = {l: float(rng.uniform(-1, 1) * scale) for l in range(lo, lo + layers)}
    return znormalize(DomainScoreTable(domain=domain, raw=raw, sample_count=1))


def test_acceptance_01_stored_sims_match_recomputation(small_model, small_probes,
                                                       small_capture):
    start = time.monotonic()
    _, table = small_capture
    stored = table.sim  # (samples, layers)
    assert stored.size >= 1000
    checked = 0
    sample_id = 0
    for ps in small_probes:
        for _, tokens in ps.all_samples():
            trace = small_model.forward_with_hooks(tokens)
            for lid, h_in, h_out in zip(trace.layer_ids, trace.h_in, trace.h_out):
                expected = token_cosine_mean(h_in, h_out)
                assert abs(stored[sample_id, lid] - expected) <= 1e-6
                checked += 1
            sample_id += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nPASS 1: {checked} stored (sample, layer) sims match trace "
          f"recomputation within 1e-6 in {elapsed:.1f}s")


def test_acceptance_02_normalization_invariants():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(200):
        t = random_table(rng, layers=int(rng.integers(3, 25)))
        vals = np.array(list(t.normalized.values()))
        assert t.sigma > 0
        assert abs(vals.mean()) <= 1e-9
        assert abs(vals.std() - 1.0) <= 1e-6
        checked += 1
    degenerate = znormalize(DomainScoreTable("math", {1: 0.3, 2: 0.3, 3: 0.3}, 1))
    assert all(v == 0.0 for v in degenerate.normalized.values())
    print(f"\nPASS 2: normalized scores have mean 0 (1e-9) and unit stdev (1e-6) "
          f"on {checked} random tables; zero-spread tables map to all zeros")


def test_acceptance_03_alpha_endpoints():
    rng = np.random.default_rng(30)
    for i in range(100):
        layers = int(rng.integers(3, 25))
        m = random_table(rng, "math", layers)
        nm = random_table(rng, "nonmath", layers)
        assert mixed_ranking(m, nm, 0.0).order == rank_order(m.normalized)
        assert mixed_ranking(m, nm, 1.0).order == rank_order(nm.normalized)
    print("\nPASS 3: alpha=0 and alpha=1 mixed rankings are order-identical to "
          "the math / non-math single-domain rankings on 100 random tables")


def test_acceptance_04_greedy_matches_exhaustive():
    start = time.monotonic()
    rng = np.random.default_rng(40)
    for _ in range(50):
        scores = {l: float(rng.uniform(-2, 2)) for l in range(1, 11)}
        # the greedy plan: the first K of the order that plan_for_method truncates
        k = budget_k(0.3, 10)
        pruned = rank_order(scores)[:k]
        assert k == 3
        best = max(itertools.combinations(scores, 3),
                   key=lambda sub: sum(scores[l] for l in sub))
        assert set(pruned) == set(best)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS 4: greedy top-3 of 10 equals exhaustive argmax over all 120 "
          f"subsets on 50 random tables in {elapsed:.1f}s")


def test_acceptance_05_cka_correctness():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((9, 16))
    assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)
    q = random_orthogonal(16, seed=51)
    for c in (0.1, 3.0):
        assert abs(linear_cka(x, c * x @ q) - 1.0) <= 1e-6
    for _ in range(100):
        a = rng.standard_normal((9, 16))
        b = rng.standard_normal((9, 16))
        assert abs(linear_cka(a, b) - hsic_cka_oracle(a, b)) <= 1e-10
        assert abs(linear_cka(a, b) - linear_cka(b, a)) <= 1e-12
    print("\nPASS 5: CKA is 1 on self and scaled-rotated copies, matches the "
          "centered-Gram HSIC oracle within 1e-10 on 100 pairs, symmetric to 1e-12")


def test_acceptance_06_interlace_structure():
    rng = np.random.default_rng(60)
    emitted = infeasible = 0
    for trial in range(500):
        num_layers = int(rng.integers(5, 20))
        pruneable = range(1, num_layers - 1)
        k = int(rng.integers(1, max(2, num_layers // 2)))
        _, records = make_synthetic_records(
            num_layers=num_layers, hidden_dim=4, samples_per_subtask=1,
            seed=int(rng.integers(1 << 30)))
        try:
            pruned, anchors, _ = interlace_solution(records, k)
        except BudgetInfeasible:
            infeasible += 1
            continue
        assert len(pruned) == k
        spaced = sorted(pruned)
        assert all(b - a >= 2 for a, b in zip(spaced, spaced[1:]))
        assert not set(pruned) & anchors
        assert set(pruned) <= set(pruneable)
        emitted += 1
    assert emitted + infeasible == 500
    print(f"\nPASS 6: interlace plans on 500 randomized configs keep gaps >= 2, "
          f"never prune anchors, and remove exactly K layers "
          f"({emitted} plans, {infeasible} typed infeasible)")


EXPECTED_K = {(0.10, 12): 1, (0.25, 12): 2, (0.40, 12): 4,
              (0.10, 26): 2, (0.25, 26): 6, (0.40, 26): 9}


def test_acceptance_07_endpoint_protection_and_budget_exactness():
    checked = 0
    for num_layers in (12, 26):
        cfg = ToyModelConfig(num_layers=num_layers)
        model = build_model(cfg)
        probe_sets = default_probe_sets(cfg, 0, {"math": 2, "nonmath": 2})
        _, records = capture_run(model, probe_sets)
        for method in METHODS:
            for p in (0.10, 0.25, 0.40):
                plan = plan_for_method(method, records, p, seed=0)
                assert 0 not in plan.pruned
                assert num_layers - 1 not in plan.pruned
                assert len(plan.pruned) == EXPECTED_K[(p, num_layers)]
                checked += 1
    print(f"\nPASS 7: all {checked} method x budget x depth plans protect both "
          f"endpoints and remove exactly floor(p * (L - 2)) layers")


def test_acceptance_08_planted_redundancy_detection():
    start = time.monotonic()
    cfg = ToyModelConfig()
    rng = np.random.default_rng(80)
    counts = {"math": 2, "nonmath": 2}
    for trial in range(20):
        planted = int(rng.integers(1, cfg.num_layers - 1))
        model = neutralize_block(build_model(ToyModelConfig(seed=trial)), planted)
        probe_sets = default_probe_sets(cfg, trial, counts)
        _, records = capture_run(model, probe_sets)
        for method in ("ours-math", "ours-nonmath", "ours-mixed", "cka"):
            plan = plan_for_method(method, records, 0.10)
            assert plan.pruned == (planted,), (trial, method, planted, plan.pruned)
        pruned_model = apply_prune_plan(model, plan)
        for ps in probe_sets:
            rep = fidelity(model, pruned_model, ps)
            assert rep.top1_agreement == 1.0
            assert rep.mean_kl < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nPASS 8: across 20 random planted positions, all four score-based "
          f"methods rank the identity block first and pruning it is lossless "
          f"(top-1 1.0, KL < 1e-9) in {elapsed:.0f}s")


def test_acceptance_09_directional_low_budget_gap():
    start = time.monotonic()
    cfg = ToyModelConfig()
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 0, {"math": 4, "nonmath": 4})
    _, records = capture_run(model, probe_sets)
    math_ps = next(ps for ps in probe_sets if ps.domain == "math")

    ours = plan_for_method("ours-math", records, 0.10)
    ours_top1 = fidelity(model, apply_prune_plan(model, ours), math_ps).top1_agreement

    cache = {}
    vals = []
    for seed in range(20):
        plan = plan_for_method("random", records, 0.10, seed=seed)
        if plan.pruned not in cache:
            rep = fidelity(model, apply_prune_plan(model, plan), math_ps)
            cache[plan.pruned] = rep.top1_agreement
        vals.append(cache[plan.pruned])
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert ours_top1 > mean, (ours_top1, mean, se)
    print(f"\nPASS 9: at a 10% budget, redundancy-ranked pruning beats the "
          f"random-baseline mean on math probes: gap {ours_top1 - mean:+.4f} "
          f"(random mean {mean:.4f}, SE {se:.4f}, ours {ours_top1:.4f}) in {elapsed:.0f}s")


def test_acceptance_10_sweep_determinism():
    cfg = ToyModelConfig(num_layers=8, hidden_dim=32, num_heads=4)
    args = dict(methods=["ours-mixed", "cka", "random"], budgets=[0.10, 0.25],
                seeds=[0, 1], probe_counts={"math": 2, "nonmath": 2})
    outs = []
    for _ in range(2):
        reports, plans, heatmap = sweep(RunConfig(model=cfg, **args))
        outs.append((sweep_csv(reports).encode(),
                     removal_pattern_grid(plans).encode(),
                     heatmap.to_csv().encode()))
    assert outs[0] == outs[1]
    print("\nPASS 10: two identical sweep runs produce byte-identical "
          "sweep, removal-grid, and heatmap CSVs")


def test_acceptance_11_regime_labels():
    assert classify_regime(0.10).label == "ranking-sensitive"
    assert classify_regime(0.25).label == "transition"
    assert classify_regime(0.40).label == "structure-dominated"
    print("\nPASS 11: budgets 0.10 / 0.25 / 0.40 classify as ranking-sensitive / "
          "transition / structure-dominated")
