"""Every entry point applies the one integer, number and fraction rule of ``depthprune.errors``."""

import io
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthprune.actlog import (ActivationTable, DomainInfo, LogHeader, _header_to_json,
                               _parse_header, read_log, write_log)
from depthprune.baselines import random_plan
from depthprune.errors import (AlphaOutOfRange, BudgetInfeasible, BudgetOutOfRange,
                               DepthPruneError, EmptyInput, InvalidConfig, SchemaViolation,
                               SinkFailure, is_fraction)
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
    (_HEADER, dict(num_layers=0), SchemaViolation, "^num_layers: must be >= 1, got 0$"),
    (_PLAN, dict(pruned=(10, 11)), SchemaViolation, "^pruned: layer 11 is protected"),
    # a field of the wrong type is named before any comparison could fail untyped
    (_HEADER, dict(num_layers="4"), SchemaViolation, "^num_layers: '4' is not an integer$"),
    (_HEADER, dict(domains=(DomainInfo("math", ("Math-CoT",), "3"),)), SchemaViolation,
     "^domains: sample_count: '3' is not an integer$"),
    (_PLAN, dict(num_layers="12"), SchemaViolation, "^num_layers: '12' is not an integer$"),
    (_PLAN, dict(k="2"), SchemaViolation, "^k: '2' is not an integer$"),
    (_PLAN, dict(pruned=("10", 2)), SchemaViolation, "^pruned: '10' is not an integer$"),
    (_HEADER, dict(hidden_dim=0), SchemaViolation, "^hidden_dim: must be >= 1, got 0$"),
    (_HEADER, dict(domains=(DomainInfo("math", ("Math-CoT",), -1),)), SchemaViolation,
     "^domains: sample_count: must be >= 0, got -1$"),
    (RunConfig(), dict(out=3), InvalidConfig, "^out: 3 is not a path$"),
    # a field its reader would refuse is refused when built, in the reader's words
    (_HEADER, dict(model_id=5), SchemaViolation, "^model_id: unexpected value 5$"),
    (_HEADER, dict(model_id=None), SchemaViolation, "^model_id: unexpected value None$"),
    (_HEADER, dict(domains=(DomainInfo(7, ("Math-CoT",), 1),)), SchemaViolation,
     "^domain: unexpected value 7$"),
    (_HEADER, dict(domains=(DomainInfo("math", ("Math-CoT", 5), 1),)), SchemaViolation,
     r"^subtasks: unexpected value \('Math-CoT', 5\)$"),
    (_PLAN, dict(alpha=5.0), SchemaViolation, "^alpha: unexpected value 5.0$"),
    (_PLAN, dict(alpha=True), SchemaViolation, "^alpha: unexpected value True$"),
    (_PLAN, dict(seed="x"), SchemaViolation, "^seed: unexpected value 'x'$"),
    (_PLAN, dict(scores={2: "x", 10: 0.5}), SchemaViolation,
     "^scores: unexpected value {2: 'x', 10: 0.5}$"),
    (_PLAN, dict(scores={2: True, 10: 0.5}), SchemaViolation,
     "^scores: unexpected value {2: True, 10: 0.5}$"),
    # a container of another type than the reader builds would not read back equal
    (_HEADER, dict(protected_layers=[0, 3]), SchemaViolation,
     r"^protected_layers: unexpected value \[0, 3\]$"),
    (_HEADER, dict(protected_layers=5), SchemaViolation, "^protected_layers: unexpected value 5$"),
    (_HEADER, dict(domains=[DomainInfo("math", ("Math-CoT",), 1)]), SchemaViolation,
     r"^domains: unexpected value \[DomainInfo\("),
    (_PLAN, dict(protected=[0, 11]), SchemaViolation, r"^protected: unexpected value \[0, 11\]$"),
    (_PLAN, dict(protected=5), SchemaViolation, "^protected: unexpected value 5$"),
    (_PLAN, dict(pruned=[10, 2]), SchemaViolation, r"^pruned: unexpected value \[10, 2\]$"),
], ids=["ToyModelConfig", "RunConfig", "LogHeader", "PrunePlan", "LogHeader-num_layers-str",
        "LogHeader-sample_count-str", "PrunePlan-num_layers-str", "PrunePlan-k-str",
        "PrunePlan-pruned-str", "LogHeader-hidden_dim-0", "LogHeader-sample_count-negative",
        "RunConfig-out-int", "LogHeader-model_id-int", "LogHeader-model_id-None",
        "LogHeader-domain-int", "LogHeader-subtask-int", "PrunePlan-alpha-5", "PrunePlan-alpha-True",
        "PrunePlan-seed-str", "PrunePlan-score-str", "PrunePlan-score-True",
        "LogHeader-protected-list", "LogHeader-protected-int", "LogHeader-domains-list",
        "PrunePlan-protected-list", "PrunePlan-protected-int", "PrunePlan-pruned-list"])
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


@pytest.mark.parametrize("call,message", [
    (lambda header, table: method_scores("interlace", header, table),
     "^method 'interlace' has no budget-free ranking$"),
    (lambda header, table: method_scores("bogus", header, table), "^unknown method 'bogus'$"),
    (lambda header, table: plan_for_method("bogus", header, table, 0.25),
     "^unknown method 'bogus'$"),
    (lambda header, table: random_plan(header.pruneable, 2, None, num_layers=header.num_layers),
     r"^method random requires a seed \(an integer\), got None$"),
], ids=["method_scores-interlace", "method_scores-unknown", "plan_for_method-unknown",
        "random_plan-no-seed"])
def test_library_method_rules_raise_the_config_error_of_the_cli(small_capture, call, message):
    # the CLI refuses the same faults with InvalidConfig, before the log is read
    with pytest.raises(InvalidConfig, match=message):
        call(*small_capture)


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


# Any value a field could be given by mistake.  No NaN: a NaN score builds and is written, but
# reads back unequal to itself.
JUNK = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)


def field_drawer(data, fields):
    """``draw(field, strategy)``: a draw of ``strategy``, or of JUNK for one field drawn at random.

    At most one field of a record is drawn wrong, so about as many records build as not.
    """
    wrong = data.draw(st.sampled_from((None,) + fields), label="wrong field")
    return lambda field, strategy: data.draw(JUNK if field == wrong else strategy, label=field)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_property_every_header_that_builds_reads_back_equal(data):
    draw = field_drawer(data, ("model_id", "hidden_dim", "protected_layers", "domain",
                               "subtasks", "sample_count"))
    num_layers = data.draw(st.integers(1, 6), label="num_layers")
    protected = frozenset(draw("protected_layers", st.integers(0, num_layers - 1))
                          for _ in range(data.draw(st.integers(0, num_layers - 1))))
    domains = tuple(
        DomainInfo(draw("domain", st.text(max_size=4)),
                   tuple(draw("subtasks", st.text(max_size=4))
                         for _ in range(data.draw(st.integers(0, 2)))),
                   draw("sample_count", st.integers(0, 300)))
        for _ in range(data.draw(st.integers(0, 3))))
    try:
        header = LogHeader(model_id=draw("model_id", st.text(max_size=8)), num_layers=num_layers,
                           hidden_dim=draw("hidden_dim", st.integers(1, 64)),
                           protected_layers=protected, domains=domains)
    except SchemaViolation:
        return  # nothing was built, so nothing can be written
    assert _parse_header(_header_to_json(header)) == header


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_property_every_plan_that_builds_reads_back_equal(data):
    draw = field_drawer(data, ("method", "budget_fraction", "protected", "pruned", "alpha",
                               "scores", "seed"))
    num_layers = data.draw(st.integers(1, 10), label="num_layers")
    protected = frozenset(draw("protected", st.integers(0, num_layers - 1))
                          for _ in range(data.draw(st.integers(0, num_layers))))
    pruneable = sorted(set(range(num_layers)) - protected)
    p = draw("budget_fraction", st.floats(0.0, 1.0))
    k = budget_k(p, len(pruneable)) if is_fraction(p) else 0
    pruned = tuple(data.draw(st.permutations(pruneable), label="order")[:k])
    if pruned:
        pruned = (draw("pruned", st.just(pruned[0])),) + pruned[1:]
    scores = None
    if data.draw(st.booleans(), label="with scores"):
        scores = {layer: draw("scores", st.floats(allow_nan=False) | st.integers())
                  for layer in pruneable}
    try:
        plan = PrunePlan(method=draw("method", st.sampled_from(METHODS)), budget_fraction=p, k=k,
                         num_layers=num_layers, protected=protected, pruned=pruned,
                         alpha=draw("alpha", st.none() | st.floats(0.0, 1.0)), scores=scores,
                         seed=draw("seed", st.none() | st.integers()))
    except (SchemaViolation, BudgetOutOfRange):
        return  # nothing was built, so nothing can be written
    assert parse_plan(serialize_plan(plan)) == plan


@pytest.mark.parametrize("score", [2 ** 53 + 1, 10 ** 400], ids=["past-float-precision",
                                                                 "past-float-range"])
def test_an_integer_score_reads_back_as_written(score):
    # a score is kept as the JSON number it was written as, not rounded or overflowed to a float
    plan = replace(_PLAN, scores={2: score, 10: 0.5})
    assert parse_plan(serialize_plan(plan)).scores == {2: score, 10: 0.5}


# json refuses an integer literal of more digits than this (0: no limit)
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "9" * (_DIGITS + 1)
over_long = pytest.mark.skipif(_DIGITS == 0, reason="no limit on integer digits")


@over_long
@pytest.mark.parametrize("read,text,message", [
    (parse_plan, serialize_plan(_PLAN).replace('"seed":null', f'"seed":{_LONG}'),
     r"^plan: invalid JSON \(.*limit"),
    (lambda text: read_log(io.StringIO(text)),
     _header_to_json(_HEADER).replace('"schema_version":3', f'"schema_version":{_LONG}') + "\n",
     r"^line 1: invalid header \(.*limit"),
    (lambda text: read_log(io.StringIO(text)),
     _header_to_json(_HEADER) + f'\n{{"sample_id":{_LONG}}}\n',
     r"^line 2: invalid column \(.*limit"),
], ids=["plan", "log-header", "log-column"])
def test_an_over_long_integer_literal_is_a_schema_violation(read, text, message):
    with pytest.raises(SchemaViolation, match=message):
        read(text)


@over_long
def test_a_plan_with_an_over_long_seed_is_a_sink_failure():
    with pytest.raises(SinkFailure, match="^cannot write plan: .*limit"):
        serialize_plan(replace(_PLAN, seed=10 ** _DIGITS))


@over_long
def test_a_header_with_an_over_long_field_is_a_sink_failure():
    header = replace(_HEADER, hidden_dim=10 ** _DIGITS)  # no row of an empty table checks it
    empty = np.empty(0, dtype=np.int64)
    table = ActivationTable(header=header, sample_id=empty, layer=empty, domain=empty,
                            subtask=empty, sim=np.empty(0),
                            pooled_out=np.empty((0, 0), dtype=np.float32))
    buf = io.StringIO()
    with pytest.raises(SinkFailure, match="^cannot write log header: .*limit"):
        write_log(header, table, buf)
    assert buf.getvalue() == ""
