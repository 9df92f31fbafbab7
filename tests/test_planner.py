import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthprune.baselines import random_plan

from depthprune.errors import BudgetOutOfRange, LayerSetMismatch, SchemaViolation
from depthprune.model import default_protected
from depthprune.planner import PrunePlan, budget_k, make_plan, parse_plan, serialize_plan


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


def test_make_plan_argmax_first():
    scores = scores_for(12)
    scores[7] = 99.0
    plan = make_plan(scores, 0.1, 12, default_protected(12), "cka")
    assert plan.pruned[0] == 7


def test_make_plan_tie_break_deeper_first():
    scores = {l: 0.0 for l in range(1, 11)}
    plan = make_plan(scores, 0.3, 12, default_protected(12), "cka")
    assert plan.pruned == (10, 9, 8)


def test_make_plan_exhaustive_subset_oracle():
    for seed in range(10):
        scores = scores_for(12, seed=seed)
        plan = make_plan(scores, 0.3, 12, default_protected(12), "cka")
        best = max(itertools.combinations(scores, 3),
                   key=lambda sub: sum(scores[l] for l in sub))
        assert set(plan.pruned) == set(best)


def test_make_plan_endpoint_safety():
    plan = make_plan(scores_for(12), 1.0, 12, default_protected(12), "cka")
    assert 0 not in plan.pruned and 11 not in plan.pruned
    assert len(plan.pruned) == 10


def test_make_plan_coverage_mismatch():
    scores = scores_for(12)
    del scores[5]
    with pytest.raises(LayerSetMismatch):
        make_plan(scores, 0.2, 12, default_protected(12), "cka")


def test_make_plan_order_consistency():
    scores = scores_for(12, seed=4)
    plan = make_plan(scores, 0.5, 12, default_protected(12), "cka")
    ordered = sorted(plan.pruned, key=lambda l: (-scores[l], -l))
    assert list(plan.pruned) == ordered


def test_serialize_round_trip():
    plan = make_plan(scores_for(12, seed=2), 0.25, 12, default_protected(12), "cka")
    again = parse_plan(serialize_plan(plan))
    assert again == plan


def test_serialize_round_trip_with_seed_and_alpha():
    plan = PrunePlan(method="random", budget_fraction=0.2, k=2, num_layers=12,
                     protected=default_protected(12), pruned=(4, 8), seed=99)
    assert parse_plan(serialize_plan(plan)) == plan


def test_serialize_round_trip_empty_scores():
    # no pruneable layer: the scores are {}, which must not come back as None
    plan = make_plan({}, 0.25, 2, default_protected(2), "ours-mixed", alpha=0.7)
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
    method = draw(st.sampled_from(("ours-math", "ours-nonmath", "ours-mixed", "cka",
                                   "interlace", "random")))
    if method == "random":
        return random_plan(pruneable, budget_k(p, len(pruneable)), draw(st.integers(0, 2 ** 63)),
                           num_layers=num_layers, budget_fraction=p)
    scores = {l: draw(st.floats(allow_nan=False, allow_infinity=False)) for l in pruneable}
    alpha = draw(st.floats(0.0, 1.0)) if method == "ours-mixed" else None
    return make_plan(scores, p, num_layers, protected, method, alpha=alpha)


@given(plans())
@settings(max_examples=200, deadline=None)
def test_property_plan_round_trip(plan):
    assert parse_plan(serialize_plan(plan)) == plan


def test_parse_rejects_k_mismatch():
    plan = make_plan(scores_for(12), 0.25, 12, default_protected(12), "cka")
    text = serialize_plan(plan).replace('"k":2', '"k":3')
    with pytest.raises(SchemaViolation):
        parse_plan(text)


def test_parse_rejects_protected_overlap():
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.1,"k":1,'
            '"num_layers":12,"protected":[0,11],"pruned":[0],"scores":null,"seed":null}')
    with pytest.raises(SchemaViolation, match="protected"):
        parse_plan(text)


@pytest.mark.parametrize("fields,message", [
    ('"num_layers":6,"protected":[0,5,9]', r"^protected: layer 9 outside \[0, 6\)$"),
    ('"num_layers":6,"protected":[0,1,2,3,4,5,6,7]', r"^protected: layer 6 outside \[0, 6\)$"),
    ('"num_layers":-3,"protected":[0,5]', "^num_layers: must be positive, got -3$"),
], ids=["protected-past-the-last-layer", "more-protected-than-layers", "negative-num-layers"])
def test_parse_blames_protected_and_num_layers_before_k(fields, message):
    # k is checked against the budget over num_layers - len(protected) layers, so a bad
    # protected set or num_layers is named first, not blamed on k or on a negative count
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.25,"k":1,%s,'
            '"pruned":[3],"scores":null,"seed":null}' % fields)
    with pytest.raises(SchemaViolation, match=message):
        parse_plan(text)


@pytest.mark.parametrize("scores,message", [
    # "02" would replace "2" and "1_0" read as layer 10
    ('{"2":-1.5,"02":3.0,"1_0":0.75}', "^plan: scores: key '02' is not a layer index"),
    ('{"2":-1.5," 10":0.75}', "^plan: scores: key ' 10' is not a layer index"),
    ('{"2":-1.5,"x":0.75}', "^plan: scores: key 'x' is not a layer index"),
    ('{"99":1.0}', r"^scores: layer 99 outside \[0, 12\)"),
    ('{"2":-1.5,"12":0.75}', r"^scores: layer 12 outside \[0, 12\)"),
    ('{"-1":1.0}', r"^scores: layer -1 outside \[0, 12\)"),
], ids=["leading-zero", "space", "word", "far-past-the-last-layer", "past-the-last-layer",
        "negative"])
def test_parse_rejects_score_keys_that_are_not_layers(scores, message):
    text = ('{"method":"cka","alpha":null,"budget_fraction":0.25,"k":2,"num_layers":12,'
            '"protected":[0,11],"pruned":[10,2],"scores":%s,"seed":null}' % scores)
    with pytest.raises(SchemaViolation, match=message):
        parse_plan(text)


def test_parse_rejects_unknown_key():
    plan = make_plan(scores_for(12), 0.1, 12, default_protected(12), "cka")
    text = serialize_plan(plan).rstrip()[:-1] + ',"extra":1}'
    with pytest.raises(SchemaViolation, match="extra"):
        parse_plan(text)


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaViolation):
        parse_plan("{not json")
