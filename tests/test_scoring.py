import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_table, make_synthetic_records
from depthprune.actlog import DomainInfo, LogHeader
from depthprune.errors import AlphaOutOfRange, EmptyInput, LayerSetMismatch, SchemaViolation
from depthprune.probes import MATH_SUBTASKS, NONMATH_SUBTASKS
from depthprune.scoring import (DomainScoreTable, aggregate_domain,
                                heatmap_matrix, mixed_ranking, rank_order, znormalize)


def records_table(*sims, subtasks=None):
    """A table of one math sample per row of ``sims`` (4 layers each), Math-CoT by default,
    under a header that counts them."""
    header = LogHeader(model_id="scoring", num_layers=4, hidden_dim=2,
                       protected_layers=frozenset({0, 3}),
                       domains=(DomainInfo("math", MATH_SUBTASKS, len(sims)),
                                DomainInfo("nonmath", NONMATH_SUBTASKS, 0)))
    return grid_table(header, subtasks or ["Math-CoT"] * len(sims), np.reshape(sims, (-1, 4)))


def table(raw, domain="math"):
    return znormalize(DomainScoreTable(domain=domain, raw=dict(raw), sample_count=1))


# ---- aggregation -----------------------------------------------------------

def test_single_sample_aggregate():
    # the header's pruneable layers, 1 and 2, are the layers scored
    t = aggregate_domain(records_table([0.1, 0.7, 0.3, 0.9]), "math")
    assert t.raw == {1: 0.7, 2: 0.3}
    assert t.sample_count == 1


def test_aggregate_mean_oracle():
    records = records_table(*([0.0, s, 0.0, 0.0] for s in [0.2, 0.4, 0.6]))
    t = aggregate_domain(records, "math")
    assert t.raw[1] == pytest.approx(0.4)


def test_aggregate_merges_subtasks_flat():
    records = records_table([0.0] * 4, [1.0] * 4, [0.5] * 4,
                            subtasks=["Math-CoT", "Math-Direct", "Math-Direct"])
    t = aggregate_domain(records, "math")
    assert t.raw[1] == pytest.approx(0.5)


def test_aggregate_empty_domain():
    with pytest.raises(EmptyInput):
        aggregate_domain(records_table([0.5] * 4), "nonmath")


# ---- z-normalization -------------------------------------------------------

def test_znormalize_hand_oracle():
    t = table({1: 1.0, 2: 2.0, 3: 3.0})
    assert t.normalized[1] == pytest.approx(-1.224745, abs=1e-5)
    assert t.normalized[2] == pytest.approx(0.0, abs=1e-9)
    assert t.normalized[3] == pytest.approx(1.224745, abs=1e-5)


def test_znormalize_degenerate_sigma():
    t = table({1: 0.5, 2: 0.5, 3: 0.5})
    assert t.sigma == 0.0
    assert all(v == 0.0 for v in t.normalized.values())


def test_znormalize_equal_values_with_an_inexact_mean():
    # the mean of three 0.4s rounds away from 0.4, and np.std() returns 5.6e-17
    t = table({1: 0.4, 2: 0.4, 3: 0.4})
    assert t.sigma == 0.0
    assert all(v == 0.0 for v in t.normalized.values())


@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=24))
def test_znormalize_mean_zero(values):
    t = table({i + 1: v for i, v in enumerate(values)})
    if t.sigma > 0:
        assert abs(np.mean(list(t.normalized.values()))) < 1e-9


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=2, max_size=24),
       st.floats(min_value=-5, max_value=5), st.floats(min_value=0.1, max_value=10))
@settings(max_examples=200)
def test_znormalize_affine_invariant_order(ints, shift, scale):
    raw = {i + 1: v / 100.0 for i, v in enumerate(ints)}
    t1 = table(raw)
    t2 = table({l: scale * v + shift for l, v in raw.items()})
    assert rank_order(t1.normalized) == rank_order(t2.normalized)


# ---- mixed ranking ---------------------------------------------------------

def two_tables(seed=0, layers=8):
    rng = np.random.default_rng(seed)
    m = table({l: float(rng.uniform(0, 1)) for l in range(1, layers + 1)}, "math")
    nm = table({l: float(rng.uniform(0, 1)) for l in range(1, layers + 1)}, "nonmath")
    return m, nm


def test_alpha_zero_matches_math_order():
    m, nm = two_tables()
    assert rank_order(mixed_ranking(m, nm, 0.0)) == rank_order(m.normalized)


def test_alpha_one_matches_nonmath_order():
    m, nm = two_tables()
    assert rank_order(mixed_ranking(m, nm, 1.0)) == rank_order(nm.normalized)


def test_mixed_arithmetic_oracle():
    # alpha = 0.7 (the default operating point): 0.7*1 + 0.3*(-1) = 0.4
    m = DomainScoreTable("math", {1: 0.0}, 1, normalized={1: -1.0})
    nm = DomainScoreTable("nonmath", {1: 0.0}, 1, normalized={1: 1.0})
    assert mixed_ranking(m, nm, 0.7)[1] == pytest.approx(0.4)


def test_alpha_out_of_range():
    m, nm = two_tables()
    with pytest.raises(AlphaOutOfRange):
        mixed_ranking(m, nm, 1.5)


def test_layer_set_mismatch():
    m, _ = two_tables(layers=8)
    _, nm = two_tables(layers=6)
    with pytest.raises(LayerSetMismatch):
        mixed_ranking(m, nm, 0.5)


def test_tie_break_prefers_deeper_layer():
    scores = {1: 0.5, 2: 0.5, 3: 0.1}
    assert rank_order(scores) == (2, 1, 3)


def test_monotone_substitution():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        m, nm = two_tables(seed=3)
        m.normalized[4] = 10.0
        nm.normalized[4] = 10.0
        assert rank_order(mixed_ranking(m, nm, alpha))[0] == 4


# ---- heatmap ---------------------------------------------------------------

def test_heatmap_singleton():
    header = LogHeader(model_id="scoring", num_layers=1, hidden_dim=2,
                       protected_layers=frozenset(), domains=(DomainInfo("math", ("Math-CoT",), 1),))
    hm = heatmap_matrix(grid_table(header, ["Math-CoT"], [[0.42]]))
    assert hm.subtasks == ("Math-CoT",)
    assert hm.values.shape[1] == 1
    assert hm.values[0, 0] == pytest.approx(0.42)


def test_heatmap_empty():
    # no table of no samples can be built, so a heatmap always has a row
    with pytest.raises(SchemaViolation, match="^no samples: a log holds at least one$"):
        heatmap_matrix(records_table())


def test_heatmap_consistent_with_aggregate():
    header, records = make_synthetic_records(num_layers=6, samples_per_subtask=3, seed=5)
    hm = heatmap_matrix(records)
    assert hm.values.shape[1] == header.num_layers  # column l is layer l
    for domain, tags in (("math", hm.subtasks[:5]), ("nonmath", hm.subtasks[5:])):
        t = aggregate_domain(records, domain)
        for layer in header.pruneable:
            rows = [hm.subtasks.index(tag) for tag in tags]
            # equal per-subtask sample counts: flat merge equals row mean
            assert np.mean(hm.values[rows, layer]) == pytest.approx(t.raw[layer], abs=1e-12)


def test_heatmap_csv_shape():
    header, records = make_synthetic_records(num_layers=4, samples_per_subtask=1)
    text = heatmap_matrix(records).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "subtask,layer_0,layer_1,layer_2,layer_3"
    assert len(lines) == 10  # header + 9 subtasks
