from dataclasses import replace

import numpy as np
import pytest

from conftest import make_synthetic_records, select_samples
from depthprune.baselines import (cka_rank, feature_matrices, interlace_plan, interlace_solution,
                                  linear_cka, random_plan)
from depthprune.capture import capture_run
from depthprune.errors import (BudgetInfeasible, DegenerateFeatures, LayerSetMismatch,
                               MissingSubtask)
from depthprune.model import ToyModelConfig, build_model
from depthprune.probes import MATH_SUBTASKS, NONMATH_SUBTASKS, default_probe_sets


def random_orthogonal(d, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


def hsic_cka_oracle(x, y):
    """Independent centered-Gram formulation of linear CKA."""
    n = x.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    kx = h @ (x @ x.T) @ h
    ky = h @ (y @ y.T) @ h
    hsic_xy = np.trace(kx @ ky)
    hsic_xx = np.trace(kx @ kx)
    hsic_yy = np.trace(ky @ ky)
    return hsic_xy / np.sqrt(hsic_xx * hsic_yy)


# ---- CKA -------------------------------------------------------------------

def test_cka_self_similarity():
    x = np.random.default_rng(0).standard_normal((9, 16))
    assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.1, 3.0])
def test_cka_scale_and_rotation_invariance(c):
    x = np.random.default_rng(1).standard_normal((9, 16))
    q = random_orthogonal(16, seed=2)
    assert linear_cka(x, c * x @ q) == pytest.approx(1.0, abs=1e-6)


def test_cka_matches_hsic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal((9, 16))
        y = rng.standard_normal((9, 16))
        assert linear_cka(x, y) == pytest.approx(hsic_cka_oracle(x, y), abs=1e-10)


def test_cka_symmetry_and_range():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal((9, 8))
        y = rng.standard_normal((9, 8))
        a, b = linear_cka(x, y), linear_cka(y, x)
        assert abs(a - b) < 1e-12
        assert -1e-9 <= a <= 1.0 + 1e-9


def test_cka_degenerate_features():
    x = np.ones((9, 4))  # centered to zero
    y = np.random.default_rng(5).standard_normal((9, 4))
    with pytest.raises(DegenerateFeatures):
        linear_cka(x, y)


def test_feature_matrices_shape_and_order():
    header, records = make_synthetic_records(num_layers=5, hidden_dim=6)
    feats = feature_matrices(records)
    assert set(feats) == set(range(5))
    # one row per subtask the header declares, in its order (tests/test_table_reference.py
    # checks each row against a per-record loop)
    assert header.subtask_tags == MATH_SUBTASKS + NONMATH_SUBTASKS
    assert feats[0].shape == (9, 6)


SMALL = ToyModelConfig(num_layers=6, hidden_dim=16, num_heads=2, seed=3)


@pytest.fixture(scope="module")
def small_probe_sets():
    return default_probe_sets(SMALL, 3, {"math": 2, "nonmath": 2})


def test_feature_matrices_follow_the_header_order(small_probe_sets):
    model = build_model(SMALL)
    _, table = capture_run(model, small_probe_sets)
    _, reversed_table = capture_run(model, small_probe_sets[::-1])
    assert reversed_table.header.subtask_tags == NONMATH_SUBTASKS + MATH_SUBTASKS
    # the non-math rows come first; each row is the same subtask's mean bit for bit
    order = [table.header.subtask_tags.index(tag) for tag in reversed_table.header.subtask_tags]
    feats, reversed_feats = feature_matrices(table), feature_matrices(reversed_table)
    for layer in feats:
        np.testing.assert_array_equal(reversed_feats[layer], feats[layer][order])


@pytest.mark.parametrize("domain", ["math", "nonmath"])
def test_cka_and_interlace_rank_a_one_domain_capture(small_probe_sets, domain):
    probe_set = next(ps for ps in small_probe_sets if ps.domain == domain)
    _, table = capture_run(build_model(SMALL), [probe_set])
    tags = MATH_SUBTASKS if domain == "math" else NONMATH_SUBTASKS
    assert feature_matrices(table)[0].shape == (len(tags), SMALL.hidden_dim)
    scores = cka_rank(table)
    assert set(scores) == {1, 2, 3, 4}
    assert all(-1e-9 <= score <= 1 + 1e-9 for score in scores.values())
    plan = interlace_plan(table, 1, 0.25)
    assert plan.k == 1 and set(plan.pruned) <= {1, 2, 3, 4}


def test_cka_rank_attributes_to_later_layer():
    header, records = make_synthetic_records(num_layers=6)
    scores = cka_rank(records)
    features = feature_matrices(records)
    assert set(scores) == {1, 2, 3, 4}
    for later, score in scores.items():
        assert score == linear_cka(features[later - 1], features[later])
        assert -1e-9 <= score <= 1 + 1e-9


def test_cka_rank_missing_subtask():
    header, records = make_synthetic_records(num_layers=4)
    records = select_samples(records, records.subtask != header.subtask_tags.index("Grounding"))
    with pytest.raises(MissingSubtask, match="^no records for subtask 'Grounding'$"):
        cka_rank(records)


def test_cka_identical_adjacent_layers_score_one():
    header, records = make_synthetic_records(num_layers=5, seed=9)
    # make layer 3 carry layer 2's pooled outputs for every sample
    pooled = records.pooled_out.copy()
    pooled[:, 3] = pooled[:, 2]
    scores = cka_rank(replace(records, pooled_out=pooled))
    assert scores[3] == pytest.approx(1.0, abs=1e-9)
    assert max(scores, key=lambda l: scores[l]) == 3


def test_cka_rank_scores_a_degenerate_pair_zero():
    header, records = make_synthetic_records(num_layers=5, seed=9)
    # every sample pools to one vector at layer 2, so layer 2's features have no spread
    pooled = records.pooled_out.copy()
    pooled[:, 2] = 1.0
    scores = cka_rank(replace(records, pooled_out=pooled))
    assert scores[2] == scores[3] == 0.0
    assert scores[1] == cka_rank(records)[1] > 0.0


# ---- Interlace -------------------------------------------------------------

def test_interlace_k1_single_triplet():
    header, records = make_synthetic_records(num_layers=10)
    plan = interlace_plan(records, 1, 1 / 8)
    assert plan.k == 1 and len(plan.pruned) == 1
    pruned, anchors, _ = interlace_solution(records, 1)
    assert pruned[0] not in anchors


def test_interlace_spacing_and_anchors_randomized():
    rng = np.random.default_rng(0)
    for trial in range(60):
        num_layers = int(rng.integers(6, 16))
        k_max = max(1, (num_layers - 2) // 3)
        k = int(rng.integers(1, k_max + 1))
        header, records = make_synthetic_records(num_layers=num_layers,
                                                 seed=int(rng.integers(1 << 30)))
        pruned, anchors, _ = interlace_solution(records, k)
        assert len(pruned) == k
        spaced = sorted(pruned)
        assert all(b - a >= 2 for a, b in zip(spaced, spaced[1:]))
        assert not (set(pruned) & anchors)


def test_interlace_uniform_sims_deterministic():
    # identical sims everywhere: triplet ties break to the earliest start
    header, r1 = make_synthetic_records(num_layers=10, sims=[0.5] * 10, seed=1)
    header, r2 = make_synthetic_records(num_layers=10, sims=[0.5] * 10, seed=1)
    p1 = interlace_plan(r1, 2, 0.25)
    p2 = interlace_plan(r2, 2, 0.25)
    assert p1.pruned == p2.pruned


def test_interlace_budget_infeasible():
    header, records = make_synthetic_records(num_layers=6)
    # 4 pruneable layers can never yield 4 removals with pairwise gaps >= 2
    with pytest.raises(BudgetInfeasible):
        interlace_plan(records, 4, 1.0)


def test_interlace_refuses_more_removals_than_pruneable_layers():
    header, records = make_synthetic_records(num_layers=6)
    with pytest.raises(BudgetInfeasible, match="^k = 5 exceeds pruneable count 4$"):
        interlace_solution(records, 5)


def test_interlace_takes_depth_from_the_header():
    # pruneable layers 1-7 only: the depth is the header's 12, not 7 + 2
    header, records = make_synthetic_records(num_layers=12)
    header = replace(header, protected_layers=frozenset({0, 8, 9, 10, 11}))
    records = replace(records, header=header)
    pruned, _, inout = interlace_solution(records, 2)
    assert set(pruned) <= set(range(1, 8)) and set(inout) == set(range(12))
    plan = interlace_plan(records, 2, 2 / 7)
    assert plan.num_layers == 12
    assert plan.protected == frozenset({0, 8, 9, 10, 11})
    assert plan.pruned == pruned and set(plan.scores) == set(range(1, 8))


def test_interlace_respects_protected():
    header, records = make_synthetic_records(num_layers=12)
    plan = interlace_plan(records, 3, 0.3)
    assert 0 not in plan.pruned and 11 not in plan.pruned
    assert plan.protected == frozenset({0, 11})


# ---- Random ----------------------------------------------------------------

def test_random_plan_deterministic():
    a = random_plan(range(1, 11), 3, seed=7, num_layers=12)
    b = random_plan(range(1, 11), 3, seed=7, num_layers=12)
    assert a.pruned == b.pruned
    c = random_plan(range(1, 11), 3, seed=8, num_layers=12)
    assert a.pruned != c.pruned


def test_random_plan_requires_num_layers():
    with pytest.raises(TypeError):
        random_plan(range(1, 11), 3, seed=7)


def test_random_plan_exhaustion():
    plan = random_plan(range(1, 6), 5, seed=0, num_layers=7)
    assert sorted(plan.pruned) == [1, 2, 3, 4, 5]


def test_random_plan_budget_too_large():
    with pytest.raises(BudgetInfeasible):
        random_plan(range(1, 6), 6, seed=0, num_layers=7)


@pytest.mark.parametrize("pruneable,k,num_layers,message", [
    ([], 0, 3, "^pruneable: no layer to draw from$"),
    ([1, 1], 1, 3, "^pruneable: 1 is listed twice$"),
    ([5], 1, 3, r"^pruneable: 5 outside \[0, 3\)$"),
    ([1, -1], 1, 3, r"^pruneable: -1 outside \[0, 3\)$"),
    ([1, True], 1, 3, "^pruneable: True is not an integer$"),
    # the layer count is checked before the layers it bounds
    ([1], 1, None, "^num_layers: None is not an integer$"),
    ([1], 1, 2.5, "^num_layers: 2.5 is not an integer$"),
    ([1], 1, True, "^num_layers: True is not an integer$"),
], ids=["empty", "repeated", "past-the-last-layer", "negative", "bool",
        "num-layers-none", "num-layers-float", "num-layers-bool"])
def test_random_plan_refuses_a_bad_layer_list(pruneable, k, num_layers, message):
    with pytest.raises(LayerSetMismatch, match=message):
        random_plan(pruneable, k, 0, num_layers=num_layers)


def test_random_plan_uniformity_chi_square():
    counts = {l: 0 for l in range(1, 6)}
    for seed in range(10_000):
        plan = random_plan(range(1, 6), 1, seed=seed, num_layers=7)
        counts[plan.pruned[0]] += 1
    expected = 10_000 / 5
    sigma = np.sqrt(10_000 * 0.2 * 0.8)
    for layer, n in counts.items():
        assert abs(n - expected) < 3 * sigma, f"layer {layer}: {n}"


# interlace plans at every budget on bench-shaped models, pinned when its
# adjacent sims became one token_cosine_mean per layer pair (they moved
# by ulps from the per-row cosine loop): k removals are the first k of each
# plan, and one more is infeasible
PINNED_INTERLACE = [
    ((12, 64, 4), 7, (10, 7, 4, 2)),
    ((12, 64, 4), 19, (8, 5, 2, 10)),
    ((12, 64, 4), 54, (9, 5, 2, 7)),
    ((24, 128, 8), 7, (20, 17, 13, 11, 8, 5, 2, 22)),
    ((24, 128, 8), 19, (22, 19, 15, 12, 9, 5, 3, 17, 1)),
    ((24, 128, 8), 33, (22, 18, 15, 11, 9, 6, 3, 20, 1)),
]


@pytest.mark.parametrize("shape,seed,plan", PINNED_INTERLACE)
def test_interlace_plans_are_pinned(shape, seed, plan):
    num_layers, hidden_dim, num_heads = shape
    cfg = ToyModelConfig(num_layers=num_layers, hidden_dim=hidden_dim, num_heads=num_heads,
                         seed=seed)
    _, table = capture_run(build_model(cfg),
                           default_probe_sets(cfg, seed, {"math": 1, "nonmath": 1}))
    for k in range(len(plan) + 1):
        assert interlace_solution(table, k)[0] == plan[:k]
    with pytest.raises(BudgetInfeasible):
        interlace_solution(table, len(plan) + 1)
