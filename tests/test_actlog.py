import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_from_rows
from depthprune.actlog import (DomainInfo, LogHeader, _Columns, log_to_bytes, read_log,
                               write_log)
from depthprune.errors import SchemaViolation, TruncatedFile


def header_4x2():
    return LogHeader(
        model_id="toy", num_layers=4, hidden_dim=2,
        protected_layers=frozenset({0, 3}),
        domains=(DomainInfo("math", ("Math-CoT",), 1),
                 DomainInfo("nonmath", ("Captioning",), 0)),
    )


def row(sample_id=0, layer=1, dim=2, sim=0.5, domain="math", subtask="Math-CoT"):
    return (sample_id, layer, domain, subtask, sim, np.arange(dim, dtype=np.float32) + 0.25)


def table(*rows):
    return table_from_rows(header_4x2(), list(rows))


def test_empty_stream_header_only():
    buf = io.StringIO()
    assert write_log(header_4x2(), table(), buf) == 0
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    header, got = read_log(io.StringIO(buf.getvalue()))
    assert len(got) == 0
    assert got.pooled_out.shape == (0, 2)
    assert header == header_4x2()


def test_round_trip_single_record():
    data = log_to_bytes(header_4x2(), table(row(sim=0.123456789)))
    header, got = read_log(io.StringIO(data.decode()))
    assert header == header_4x2()
    assert got.header == header
    assert len(got) == 1
    assert (got.sample_id[0], got.layer[0]) == (0, 1)
    assert header.domains[got.domain[0]].domain == "math"
    assert header.subtask_tags[got.subtask[0]] == "Math-CoT"
    assert got.sim[0] == float(np.float32(0.123456789))
    np.testing.assert_array_equal(got.pooled_out[0], row()[5])


def test_round_trip_preserves_float32_bits():
    rng = np.random.default_rng(0)
    rows = [(i, 1, "math", "Math-CoT", float(rng.uniform(-1, 1)),
             rng.standard_normal(2).astype(np.float32)) for i in range(20)]
    data = log_to_bytes(header_4x2(), table(*rows))
    _, got = read_log(io.StringIO(data.decode()))
    for i, r in enumerate(rows):
        np.testing.assert_array_equal(got.pooled_out[i], r[5])
        assert got.sim[i] == float(np.float32(r[4]))


def test_records_carry_no_pooled_in():
    data = log_to_bytes(header_4x2(), table(row()))
    header, record = (json.loads(line) for line in data.decode().splitlines())
    assert header["schema_version"] == 2
    assert list(record) == ["sample_id", "layer", "domain", "subtask", "sim", "pooled_out"]


def test_write_rejects_wrong_dim():
    with pytest.raises(SchemaViolation, match="pooled_out"):
        write_log(header_4x2(), table(row(dim=3)), io.StringIO())


def test_write_rejects_duplicate_pair():
    with pytest.raises(SchemaViolation, match="duplicate"):
        write_log(header_4x2(), table(row(), row()), io.StringIO())


def test_write_rejects_unknown_subtask():
    # Captioning is declared, but for nonmath only
    with pytest.raises(SchemaViolation, match="subtask"):
        write_log(header_4x2(), table(row(subtask="Captioning")), io.StringIO())


def test_write_rejects_undeclared_domain_index():
    bad = table(row())
    bad.domain[0] = 5
    with pytest.raises(SchemaViolation, match="record 0: domain: unknown tag 5"):
        write_log(header_4x2(), bad, io.StringIO())


def test_write_validates_before_writing():
    buf = io.StringIO()
    with pytest.raises(SchemaViolation, match="record 1: sim"):
        write_log(header_4x2(), table(row(0), row(1, sim=2.0)), buf)
    assert buf.getvalue() == ""


def corrupt(lines, lineno, **changes):
    """The log text with record line ``lineno`` (1-based) updated by ``changes``."""
    obj = json.loads(lines[lineno - 1])
    obj.update(changes)
    lines = list(lines)
    lines[lineno - 1] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def test_read_rejects_sim_out_of_range():
    data = log_to_bytes(header_4x2(), table(row())).decode().splitlines()
    with pytest.raises(SchemaViolation, match="line 2"):
        read_log(io.StringIO(corrupt(data, 2, sim=1.5)))


def test_read_rejects_unknown_key():
    data = log_to_bytes(header_4x2(), table(row())).decode().splitlines()
    with pytest.raises(SchemaViolation, match="extra"):
        read_log(io.StringIO(corrupt(data, 2, extra=1)))


def test_read_rejects_v1_record_key():
    data = log_to_bytes(header_4x2(), table(row())).decode().splitlines()
    with pytest.raises(SchemaViolation, match="line 2: unknown record key 'pooled_in'"):
        read_log(io.StringIO(corrupt(data, 2, pooled_in=[0.0, 1.0])))


def test_read_rejects_v1_log():
    data = log_to_bytes(header_4x2(), table(row())).decode().splitlines()
    v1 = corrupt(data, 1, schema_version=1).splitlines()
    v1 = corrupt(v1, 2, pooled_in=[0.0, 1.0])
    with pytest.raises(SchemaViolation, match="schema_version: unsupported value 1"):
        read_log(io.StringIO(v1))


def test_read_rejects_duplicate_pair():
    data = log_to_bytes(header_4x2(), table(row())).decode().splitlines()
    text = data[0] + "\n" + data[1] + "\n" + data[1] + "\n"
    with pytest.raises(SchemaViolation, match="line 3: duplicate"):
        read_log(io.StringIO(text))


@pytest.mark.parametrize("key,value,message", [
    ("sample_id", "0", "sample_id: unexpected value '0'"),
    ("layer", 1.0, "layer: unexpected value 1.0"),
    ("layer", 2 ** 70, f"layer: unexpected value {2 ** 70}"),
    ("sim", None, "sim: unexpected value None"),
    ("pooled_out", [0.5, "x"], r"pooled_out: unexpected value \[0.5, 'x'\]"),
    ("pooled_out", [0.5], r"pooled_out: unexpected value \[0.5\]"),
    ("pooled_out", [[0.5, 1.0], [0.5]], r"pooled_out: unexpected value \[\[0.5, 1.0\], \[0.5\]\]"),
    ("domain", ["math"], r"domain: unexpected value \['math'\]"),
    ("domain", 7, "domain: unexpected value 7"),
    ("sim", True, "sim: unexpected value True"),
    ("pooled_out", [0.5, None], r"pooled_out: unexpected value \[0.5, None\]"),
    ("subtask", "Captioning", "subtask: 'Captioning' not declared for domain 'math'"),
])
def test_read_rejects_wrong_types_with_line_number(key, value, message):
    data = log_to_bytes(header_4x2(), table(row(0), row(1), row(2))).decode().splitlines()
    with pytest.raises(SchemaViolation, match=f"^line 3: {message}"):
        read_log(io.StringIO(corrupt(data, 3, **{key: value})))


def test_read_keeps_rows_aligned_past_a_malformed_row():
    data = log_to_bytes(header_4x2(), table(row(0), row(1), row(2))).decode().splitlines()
    text = corrupt(corrupt(data, 2, sim="x").splitlines(), 3, pooled_out=[0.5, None])
    columns = _Columns(header_4x2())
    for line in text.splitlines()[1:]:
        columns.add(json.loads(line))
    assert columns.malformed.keys() == {0, 1}
    assert len(columns.pooled) == 3 * 2 and list(columns.pooled[4:]) == [0.25, 1.25]
    with pytest.raises(SchemaViolation, match="^line 2: sim: unexpected value 'x'"):
        columns.table()


def test_read_reports_earliest_bad_line():
    data = log_to_bytes(header_4x2(), table(row(0), row(1), row(2))).decode().splitlines()
    text = corrupt(corrupt(data, 2, sim=3.0).splitlines(), 4, layer=9)
    with pytest.raises(SchemaViolation, match="^line 2: sim"):
        read_log(io.StringIO(text))
    # a bad line before an unparsable one still wins
    text = corrupt(data, 2, layer=9).splitlines()
    text[2] = "{not json"
    with pytest.raises(SchemaViolation, match="^line 2: layer"):
        read_log(io.StringIO("\n".join(text) + "\n"))


def test_read_streams_lines():
    class LinesOnly:
        """A source with readline and nothing else."""

        def __init__(self, text):
            self._buf = io.StringIO(text)

        def readline(self):
            return self._buf.readline()

    data = log_to_bytes(header_4x2(), table(row(0), row(1))).decode()
    _, got = read_log(LinesOnly(data))
    assert got.sample_id.tolist() == [0, 1]


def test_truncated_last_line():
    data = log_to_bytes(header_4x2(), table(row())).decode()
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(data[:-10]))


def test_empty_file():
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(""))


def test_bad_header_layer_range():
    header = LogHeader(model_id="x", num_layers=4, hidden_dim=2,
                       protected_layers=frozenset({7}), domains=())
    with pytest.raises(SchemaViolation, match="protected"):
        write_log(header, table(), io.StringIO())


# ---- property tests over random headers and tables --------------------------

TAGS = ("A", "B", "C", "D")
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def headers_and_tables(draw, min_rows=0):
    num_layers = draw(st.integers(1, 6))
    hidden_dim = draw(st.integers(1, 4))
    domains = tuple(
        DomainInfo(name, tuple(draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=3,
                                             unique=True))), draw(st.integers(0, 9)))
        for name in draw(st.lists(st.sampled_from(("math", "nonmath", "other")), min_size=1,
                                  max_size=3, unique=True)))
    header = LogHeader(model_id=draw(st.text(max_size=8)), num_layers=num_layers,
                       hidden_dim=hidden_dim,
                       protected_layers=frozenset(draw(st.sets(st.integers(0, num_layers - 1)))),
                       domains=domains)
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(0, num_layers - 1)),
                          min_size=min_rows, max_size=12, unique=True))
    rows = []
    for sample_id, layer in pairs:
        d = draw(st.sampled_from(domains))
        rows.append((sample_id, layer, d.domain, draw(st.sampled_from(d.subtasks)),
                     draw(st.floats(-1.0, 1.0)),
                     np.array(draw(st.lists(finite32, min_size=hidden_dim, max_size=hidden_dim)),
                              dtype=np.float32)))
    return header, table_from_rows(header, rows)


@given(headers_and_tables())
@settings(max_examples=150, deadline=None)
def test_property_round_trip_is_bit_exact(case):
    header, tab = case
    got_header, got = read_log(io.StringIO(log_to_bytes(header, tab).decode()))
    assert got_header == header
    for name in ("sample_id", "layer", "domain", "subtask"):
        np.testing.assert_array_equal(getattr(got, name), getattr(tab, name))
    assert got.sim.dtype == np.float64 and got.pooled_out.dtype == np.float32
    assert (got.sim.view(np.uint64) == tab.sim.astype(np.float32).astype(np.float64)
            .view(np.uint64)).all()
    assert got.pooled_out.shape == tab.pooled_out.shape
    assert (got.pooled_out.view(np.uint32) == tab.pooled_out.view(np.uint32)).all()


CORRUPTIONS = {
    "drop key": lambda obj, rng: obj.pop(rng.choice(sorted(obj))),
    "unknown key": lambda obj, rng: obj.update(pooled_in=[0.0]),
    "layer range": lambda obj, rng: obj.update(layer=rng.choice([-1, 99])),
    "unknown domain": lambda obj, rng: obj.update(domain="nowhere"),
    "unknown subtask": lambda obj, rng: obj.update(subtask="Z"),
    "sim range": lambda obj, rng: obj.update(sim=rng.choice([1.5, -2.0, float("nan")])),
    "pooled dim": lambda obj, rng: obj.update(pooled_out=obj["pooled_out"] + [0.0]),
    "pooled finite": lambda obj, rng: obj.update(pooled_out=[float("inf")] * len(obj["pooled_out"])),
    "wrong type": lambda obj, rng: obj.update({rng.choice(["sample_id", "layer", "sim"]): "1"}),
    "not an object": lambda obj, rng: obj.clear(),
}


@given(headers_and_tables(min_rows=1), st.data())
@settings(max_examples=200, deadline=None)
def test_property_corrupt_line_is_reported(case, data):
    header, tab = case
    lines = log_to_bytes(header, tab).decode().splitlines()
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    kinds = sorted(CORRUPTIONS) + ["garbage"] + (["duplicate"] if len(lines) > 2 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "duplicate":
        source = data.draw(st.integers(2, len(lines)).filter(lambda n: n != lineno))
        first, second = sorted((lineno, source))
        obj = json.loads(lines[second - 1])
        same = json.loads(lines[first - 1])
        obj.update(sample_id=same["sample_id"], layer=same["layer"])
        lines[second - 1] = json.dumps(obj)
        lineno = second
    elif kind == "garbage":
        lines[lineno - 1] = "{not json"
        lines.append("{}")  # keeps the garbage off the last line, where it reads as truncation
    else:
        obj = json.loads(lines[lineno - 1])
        CORRUPTIONS[kind](obj, data.draw(st.randoms(use_true_random=False)))
        lines[lineno - 1] = json.dumps(obj) if obj else "[]"
    with pytest.raises(SchemaViolation, match=f"^line {lineno}: "):
        read_log(io.StringIO("\n".join(lines) + "\n"))


@given(headers_and_tables(min_rows=1), st.data())
@settings(max_examples=100, deadline=None)
def test_property_truncated_last_line(case, data):
    header, tab = case
    text = log_to_bytes(header, tab).decode()
    start = text.rstrip("\n").rindex("\n") + 1
    cut = data.draw(st.integers(start + 1, len(text) - 2), label="cut")
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(text[:cut]))
