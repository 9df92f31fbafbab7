import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthprune.errors import BudgetOutOfRange, SchemaViolation
from depthprune.model import default_protected
from depthprune.planner import METHODS, PrunePlan, budget_k, parse_plan, serialize_plan
from depthprune.report import plan_for_method
from depthprune.scoring import rank_order


def scores_for(num_layers, seed=0):
    rng = np.random.default_rng(seed)
    return {l: float(rng.uniform(-2, 2)) for l in range(1, num_layers - 1)}


def test_budget_k_zero():
    for n in (0, 5, 100):
        assert budget_k(0.0, n) == 0


def test_budget_k_floor():
    assert budget_k(0.25, 26) == 6
    assert budget_k(0.10, 10) == 1
    assert budget_k(0.40, 24) == 9
    assert budget_k(1.0, 7) == 7


def test_budget_k_float_representation():
    # 0.3 * 10 is 2.9999... in binary; the mathematical floor is 3
    assert budget_k(0.3, 10) == 3


def test_budget_k_out_of_range():
    with pytest.raises(BudgetOutOfRange):
        budget_k(1.5, 10)
    with pytest.raises(BudgetOutOfRange):
        budget_k(-0.1, 10)


@pytest.mark.parametrize("n_mid,message", [
    (2.5, "^n_mid: 2.5 is not an integer$"),
    (True, "^n_mid: True is not an integer$"),
    (None, "^n_mid: None is not an integer$"),
    (-1, "^n_mid: must be >= 0, got -1$"),
], ids=["float", "bool", "None", "negative"])
def test_budget_k_refuses_a_layer_count_that_is_not_a_count(n_mid, message):
    with pytest.raises(BudgetOutOfRange, match=message):
        budget_k(0.5, n_mid)


def cka_plan(scores, p):
    """The cka plan of ``scores`` on 12 layers at budget p: the first K of their order."""
    k = budget_k(p, len(scores))
    return PrunePlan(method="cka", budget_fraction=p, k=k, num_layers=12,
                     protected=default_protected(12), pruned=rank_order(scores)[:k],
                     scores=scores)


def test_rank_order_argmax_first():
    scores = scores_for(12)
    scores[7] = 99.0
    assert rank_order(scores)[0] == 7


def test_rank_order_tie_break_deeper_first():
    scores = {l: 0.0 for l in range(1, 11)}
    assert rank_order(scores)[:3] == (10, 9, 8)


def test_rank_order_exhaustive_subset_oracle():
    for seed in range(10):
        scores = scores_for(12, seed=seed)
        pruned = rank_order(scores)[:budget_k(0.3, len(scores))]
        best = max(itertools.combinations(scores, 3),
                   key=lambda sub: sum(scores[l] for l in sub))
        assert set(pruned) == set(best)


def test_plan_for_method_endpoint_safety(small_capture):
    _, table = small_capture
    header = table.header
    for method in ("ours-math", "ours-nonmath", "ours-mixed", "cka", "random"):
        plan = plan_for_method(method, table, 1.0, seed=0)
        assert 0 not in plan.pruned and header.num_layers - 1 not in plan.pruned, method
        assert sorted(plan.pruned) == list(header.pruneable), method


def test_plan_for_method_order_consistency(small_capture):
    for method in ("ours-math", "ours-nonmath", "ours-mixed", "cka"):
        plan = plan_for_method(method, small_capture[1], 0.5)
        ordered = sorted(plan.pruned, key=lambda l: (-plan.scores[l], -l))
        assert list(plan.pruned) == ordered, method


def test_serialize_round_trip():
    plan = cka_plan(scores_for(12, seed=2), 0.25)
    again = parse_plan(serialize_plan(plan))
    assert again == plan


def test_serialize_round_trip_with_seed_and_alpha():
    plan = PrunePlan(method="random", budget_fraction=0.2, k=2, num_layers=12,
                     protected=default_protected(12), pruned=(4, 8), seed=99)
    assert parse_plan(serialize_plan(plan)) == plan


def test_serialize_round_trip_empty_scores():
    # no pruneable layer: the scores are {}, which must not come back as None
    plan = PrunePlan(method="ours-mixed", budget_fraction=0.25, k=0, num_layers=2,
                     protected=default_protected(2), pruned=(), alpha=0.7, scores={})
    assert serialize_plan(plan).count('"scores":{}') == 1
    assert parse_plan(serialize_plan(plan)) == plan


def test_serialized_plan_bytes_are_pinned():
    # score keys sort numerically ("2" before "10"); a null alpha and seed are written out
    plan = PrunePlan(method="cka", budget_fraction=0.25, k=2, num_layers=12,
                     protected=default_protected(12), pruned=(10, 2),
                     scores={10: 0.75, 2: -1.5})
    text = serialize_plan(plan)
    assert text == ('{"method":"cka","alpha":null,"budget_fraction":0.25,"k":2,"num_layers":12,'
                    '"protected":[0,11],"pruned":[10,2],"scores":{"2":-1.5,"10":0.75},'
                    '"seed":null}\n')
    assert parse_plan(text) == plan


@st.composite
def plans(draw):
    num_layers = draw(st.integers(1, 10))
    protected = frozenset(draw(st.sets(st.integers(0, num_layers - 1))))
    pruneable = sorted(set(range(num_layers)) - protected)
    p = draw(st.floats(0.0, 1.0))
    k = budget_k(p, len(pruneable))
    method = draw(st.sampled_from(METHODS))
    random = method == "random"
    scores = None if random else {
        l: draw(st.floats(allow_nan=False, allow_infinity=False)) for l in pruneable}
    return PrunePlan(method=method, budget_fraction=p, k=k, num_layers=num_layers,
                     protected=protected, pruned=tuple(draw(st.permutations(pruneable))[:k]),
                     alpha=draw(st.floats(0.0, 1.0)) if method == "ours-mixed" else None,
                     scores=scores, seed=draw(st.integers(0, 2 ** 63)) if random else None)


@given(plans())
@settings(max_examples=200, deadline=None)
def test_property_plan_round_trip(plan):
    assert parse_plan(serialize_plan(plan)) == plan


def test_parse_rejects_k_mismatch():
    plan = cka_plan(scores_for(12), 0.25)
    text = serialize_plan(plan).replace('"k":2', '"k":3')
    with pytest.raises(SchemaViolation):
        parse_plan(text)


def test_parse_rejects_protected_overlap():
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.1,"k":1,'
            '"num_layers":12,"protected":[0,11],"pruned":[0],"scores":null,"seed":null}')
    with pytest.raises(SchemaViolation, match="protected"):
        parse_plan(text)


@pytest.mark.parametrize("fields,message", [
    ('"num_layers":6,"protected":[0,5,9]', r"^protected: 9 outside \[0, 6\)$"),
    ('"num_layers":6,"protected":[0,1,2,3,4,5,6,7]', r"^protected: 6 outside \[0, 6\)$"),
    ('"num_layers":-3,"protected":[0,5]', "^num_layers: must be >= 1, got -3$"),
], ids=["protected-past-the-last-layer", "more-protected-than-layers", "negative-num-layers"])
def test_parse_blames_protected_and_num_layers_before_k(fields, message):
    # k is checked against the budget over num_layers - len(protected) layers, so a bad
    # protected set or num_layers is named first, not blamed on k or on a negative count
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.25,"k":1,%s,'
            '"pruned":[3],"scores":null,"seed":null}' % fields)
    with pytest.raises(SchemaViolation, match=message):
        parse_plan(text)


@pytest.mark.parametrize("fields,message", [
    ('"method":"bogus","k":2,"pruned":[10,2]', "^method: unknown tag 'bogus'$"),
    ('"method":"cka","k":2,"pruned":[10]', "^pruned: has 1 layers but k = 2$"),
    ('"method":"cka","k":2,"pruned":[3,3]', "^pruned: 3 is listed twice$"),
], ids=["unknown-method", "fewer-pruned-than-k", "repeated-pruned-layer"])
def test_parse_rejects_a_bad_method_or_pruned_list(fields, message):
    text = ('{"alpha":null,"budget_fraction":0.25,"num_layers":12,"protected":[0,11],%s,'
            '"scores":null,"seed":null}' % fields)
    with pytest.raises(SchemaViolation, match=message):
        parse_plan(text)


@pytest.mark.parametrize("scores,message", [
    # "02" would replace "2" and "1_0" read as layer 10
    ('{"2":-1.5,"02":3.0,"1_0":0.75}', "^plan: scores: key '02' is not a layer index"),
    ('{"2":-1.5," 10":0.75}', "^plan: scores: key ' 10' is not a layer index"),
    ('{"2":-1.5,"x":0.75}', "^plan: scores: key 'x' is not a layer index"),
    ('{"99":1.0}', r"^scores: 99 outside \[0, 12\)$"),
    ('{"2":-1.5,"12":0.75}', r"^scores: 12 outside \[0, 12\)$"),
    ('{"-1":1.0}', r"^scores: -1 outside \[0, 12\)$"),
], ids=["leading-zero", "space", "word", "far-past-the-last-layer", "past-the-last-layer",
        "negative"])
def test_parse_rejects_score_keys_that_are_not_layers(scores, message):
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.25,"k":2,"num_layers":12,'
            '"protected":[0,11],"pruned":[10,2],"scores":%s,"seed":null}' % scores)
    with pytest.raises(SchemaViolation, match=message):
        parse_plan(text)


def test_parse_rejects_unknown_key():
    plan = cka_plan(scores_for(12), 0.1)
    text = serialize_plan(plan).rstrip()[:-1] + ',"extra":1}'
    with pytest.raises(SchemaViolation, match="extra"):
        parse_plan(text)


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaViolation):
        parse_plan("{not json")
