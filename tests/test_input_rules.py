"""Every entry point applies the one integer, number and fraction rule of ``depthprune.errors``."""

import re
from dataclasses import replace

import pytest

from depthprune.actlog import DomainInfo, LogHeader
from depthprune.baselines import random_plan
from depthprune.errors import (AlphaOutOfRange, BudgetInfeasible, BudgetOutOfRange,
                               DepthPruneError, EmptyInput, InvalidConfig, SchemaViolation)
from depthprune.model import ToyModelConfig, build_model, default_protected
from depthprune.planner import METHODS, PrunePlan, budget_k, parse_plan, serialize_plan
from depthprune.probes import ProbeSet, generate_probes
from depthprune.report import (RunConfig, classify_regime, fidelity, method_scores,
                               plan_for_method)
from depthprune.scoring import DomainScoreTable, mixed_ranking, znormalize


def _normalized(domain):
    return znormalize(DomainScoreTable(domain=domain, raw={1: 0.1, 2: 0.5, 3: 0.3},
                                       sample_count=1))


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize("call,error", [
    (lambda p: budget_k(p, 10), BudgetOutOfRange),
    (classify_regime, BudgetOutOfRange),
    (lambda alpha: mixed_ranking(_normalized("math"), _normalized("nonmath"), alpha),
     AlphaOutOfRange),
], ids=["budget_k", "classify_regime", "mixed_ranking"])
def test_fraction_entry_points_refuse_bools_and_strings(call, error, value):
    with pytest.raises(error, match=re.escape(f"must be in [0, 1], got {value!r}")):
        call(value)


_HEADER = LogHeader(model_id="x", num_layers=4, hidden_dim=2, protected_layers=default_protected(4),
                    domains=())
_PLAN = PrunePlan(method="cka", budget_fraction=0.25, k=2, num_layers=12,
                  protected=default_protected(12), pruned=(10, 2))


@pytest.mark.parametrize("valid,bad,error,message", [
    (ToyModelConfig(), dict(num_heads=3), InvalidConfig, "not divisible by num_heads 3"),
    (RunConfig(), dict(alpha=1.5), AlphaOutOfRange, r"^alpha must be in \[0, 1\], got 1.5"),
    (_HEADER, dict(num_layers=0), SchemaViolation, "^num_layers: must be positive, got 0"),
    (_PLAN, dict(pruned=(10, 11)), SchemaViolation, "^pruned: layer 11 is protected"),
    # a field of the wrong type is named before any comparison could fail untyped
    (_HEADER, dict(num_layers="4"), SchemaViolation, "^num_layers: '4' is not an integer"),
    (_HEADER, dict(domains=(DomainInfo("math", ("Math-CoT",), "3"),)), SchemaViolation,
     "^domains: sample_count: '3' is not an integer"),
    (_PLAN, dict(num_layers="12"), SchemaViolation, "^num_layers: '12' is not an integer"),
    (_PLAN, dict(k="2"), SchemaViolation, "^k: '2' is not an integer"),
    (_PLAN, dict(pruned=("10", 2)), SchemaViolation, "^pruned: '10' is not an integer"),
], ids=["ToyModelConfig", "RunConfig", "LogHeader", "PrunePlan", "LogHeader-num_layers-str",
        "LogHeader-sample_count-str", "PrunePlan-num_layers-str", "PrunePlan-k-str",
        "PrunePlan-pruned-str"])
def test_replace_with_a_bad_field_raises_the_type_error(valid, bad, error, message):
    # each type checks itself when it is built, and replace builds a new object
    with pytest.raises(error, match=message):
        replace(valid, **bad)


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
@pytest.mark.parametrize("call", [
    lambda header, table, seed: random_plan(header.pruneable, 2, seed,
                                            num_layers=header.num_layers),
    lambda header, table, seed: method_scores("random", header, table, seed=seed),
    lambda header, table, seed: plan_for_method("random", header, table, 0.25, seed=seed),
], ids=["random_plan", "method_scores", "plan_for_method"])
def test_random_entry_points_refuse_a_seed_that_is_not_an_integer(small_capture, call, seed):
    with pytest.raises(DepthPruneError, match="requires a seed"):
        call(*small_capture, seed)


@pytest.mark.parametrize("counts", [True, 2.5, {}, {"Math-CoT": True}],
                         ids=["true", "float", "empty-map", "true-in-map"])
def test_generate_probes_applies_the_config_count_rule(counts):
    with pytest.raises(InvalidConfig, match="^probe_counts math: "):
        generate_probes("math", counts, seed=0, config=ToyModelConfig())


def test_fidelity_refuses_an_empty_probe_set():
    model = build_model(ToyModelConfig(num_layers=3, hidden_dim=16))
    with pytest.raises(EmptyInput, match="probe set is empty"):
        fidelity(model, model, ProbeSet(domain="math", subtasks=()))


def test_every_plan_round_trips_through_its_file(small_capture):
    # the plan reader takes exactly what the plan writer can write
    header, table = small_capture
    for method in METHODS:
        for p in (0.0, 0.1, 0.25, 0.4, 1.0):
            try:
                plan = plan_for_method(method, header, table, p, seed=0)
            except BudgetInfeasible:
                continue
            assert parse_plan(serialize_plan(plan)) == plan, (method, p)
