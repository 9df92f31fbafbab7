import base64
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import log_bytes, table_from_rows
from depthprune.actlog import (_COLUMNS, _PIECE, ActivationTable, DomainInfo, LogHeader,
                               _parse_header, read_log, write_log)
from depthprune.errors import SchemaViolation, SinkFailure, TruncatedFile


def header_4x2(math_samples=1):
    return LogHeader(
        model_id="toy", num_layers=4, hidden_dim=2,
        protected_layers=frozenset({0, 3}),
        domains=(DomainInfo("math", ("Math-CoT",), math_samples),
                 DomainInfo("nonmath", ("Captioning",), 0)),
    )


def row(sample_id=0, layer=1, dim=2, sim=0.5, domain="math", subtask="Math-CoT"):
    return (sample_id, layer, domain, subtask, sim, np.arange(dim, dtype=np.float32) + 0.25)


def table(*rows):
    """A table of math ``rows`` under a header that counts their samples."""
    return table_from_rows(header_4x2(len({r[0] for r in rows})), list(rows))


def test_empty_stream_header_only():
    buf = io.StringIO()
    assert write_log(header_4x2(0), table(), buf) == 0
    lines = buf.getvalue().splitlines()
    assert lines[1:] == [json.dumps({name: ""}, separators=(",", ":")) for name, _ in _COLUMNS]
    header, got = read_log(io.StringIO(buf.getvalue()))
    assert len(got) == 0
    assert got.pooled_out.shape == (0, 2)
    assert header == header_4x2(0)


def reference_column_lines(tab):
    """Each column line as one ``json.dumps`` of the whole column's base64."""
    lines = []
    for name, dtype in _COLUMNS:
        data = np.asarray(getattr(tab, name), dtype=dtype).tobytes()
        lines.append(json.dumps({name: base64.b64encode(data).decode("ascii")},
                                separators=(",", ":")) + "\n")
    return "".join(lines)


def test_column_written_in_pieces_equals_one_json_dumps():
    # 20-byte pooled rows: the column spans three pieces and ends mid base64 group
    n = 2 * _PIECE // 20 + 1
    rng = np.random.default_rng(0)
    header = LogHeader(model_id="toy", num_layers=4, hidden_dim=5,
                       protected_layers=frozenset({0, 3}),
                       domains=(DomainInfo("math", ("Math-CoT",), n),))
    tab = ActivationTable(header=header, sample_id=np.arange(n), layer=np.ones(n, dtype=np.int64),
                          domain=np.zeros(n, dtype=np.int64), subtask=np.zeros(n, dtype=np.int64),
                          sim=rng.uniform(-1, 1, n),
                          pooled_out=rng.standard_normal((n, 5)).astype(np.float32))
    assert tab.pooled_out.nbytes > 2 * _PIECE and tab.pooled_out.nbytes % 3 != 0
    buf = io.StringIO()
    assert write_log(header, tab, buf) == n
    assert buf.getvalue().split("\n", 1)[1] == reference_column_lines(tab)
    _, got = read_log(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(got.pooled_out, tab.pooled_out)


def test_round_trip_single_record():
    data = log_bytes(header_4x2(), table(row(sim=0.123456789)))
    header, got = read_log(io.StringIO(data.decode()))
    assert header == header_4x2()
    assert got.header == header
    assert len(got) == 1
    assert (got.sample_id[0], got.layer[0]) == (0, 1)
    assert header.domains[got.domain[0]].domain == "math"
    assert header.subtask_tags[got.subtask[0]] == "Math-CoT"
    assert got.sim[0] == float(np.float32(0.123456789))
    np.testing.assert_array_equal(got.pooled_out[0], row()[5])


def test_header_line_bytes_are_pinned():
    header = replace(header_4x2(), protected_layers=frozenset({3, 1, 0}),
                     domains=(DomainInfo("math", ("Math-CoT", "Arithmetic"), 1),
                              DomainInfo("nonmath", ("Captioning",), 0)))
    data = log_bytes(header, table_from_rows(header, [row()]))
    assert data.split(b"\n")[0] == (
        b'{"schema_version":3,"model_id":"toy","num_layers":4,"hidden_dim":2,'
        b'"protected_layers":[0,1,3],"domains":[{"domain":"math","subtasks":'
        b'["Math-CoT","Arithmetic"],"sample_count":1},{"domain":"nonmath",'
        b'"subtasks":["Captioning"],"sample_count":0}]}')
    assert read_log(io.StringIO(data.decode()))[0] == header


def test_round_trip_preserves_float32_bits():
    rng = np.random.default_rng(0)
    rows = [(i, 1, "math", "Math-CoT", float(rng.uniform(-1, 1)),
             rng.standard_normal(2).astype(np.float32)) for i in range(20)]
    tab = table(*rows)
    data = log_bytes(tab.header, tab)
    _, got = read_log(io.StringIO(data.decode()))
    for i, r in enumerate(rows):
        np.testing.assert_array_equal(got.pooled_out[i], r[5])
        assert got.sim[i] == float(np.float32(r[4]))


def test_records_carry_no_pooled_in():
    data = log_bytes(header_4x2(), table(row()))
    header, *columns = (json.loads(line) for line in data.decode().splitlines())
    assert header["schema_version"] == 3
    assert [list(obj) for obj in columns] == [
        ["sample_id"], ["layer"], ["domain"], ["subtask"], ["sim"], ["pooled_out"]]


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


def test_write_turns_a_sink_failure_into_sink_failure():
    class FullSink:
        def write(self, text):
            raise OSError(28, "No space left on device")

    with pytest.raises(SinkFailure, match=r"^I/O failure while writing log: "
                                          r"\[Errno 28\] No space left on device$"):
        write_log(header_4x2(), table(row()), FullSink())


def log_lines(tab=None):
    tab = table(row()) if tab is None else tab
    return log_bytes(tab.header, tab).decode().splitlines()


def text(lines):
    return "\n".join(lines) + "\n"


def encode(name, values):
    """The log line of column ``name`` holding ``values``."""
    dtype = dict(_COLUMNS)[name]
    data = base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")
    return json.dumps({name: data})


def lineno(name):
    return 2 + [n for n, _ in _COLUMNS].index(name)


def with_column(lines, name, values):
    """The log text with column ``name`` re-encoded to hold ``values``."""
    lines = list(lines)
    lines[lineno(name) - 1] = encode(name, values)
    return text(lines)


def test_read_rejects_sim_out_of_range():
    with pytest.raises(SchemaViolation, match=r"^record 0: sim: 1.5 outside \[-1, 1\]"):
        read_log(io.StringIO(with_column(log_lines(), "sim", [1.5])))


def test_read_rejects_unknown_key():
    lines = log_lines()
    lines[2] = lines[2][:-1] + ',"extra":1}'
    with pytest.raises(SchemaViolation, match="^line 3: unknown column key 'extra'"):
        read_log(io.StringIO(text(lines)))


def test_read_rejects_v1_record_key():
    lines = log_lines()
    lines[6] = lines[6].replace('"pooled_out"', '"pooled_in"')
    with pytest.raises(SchemaViolation, match="^line 7: unknown column key 'pooled_in'"):
        read_log(io.StringIO(text(lines)))


def test_read_rejects_v1_log():
    # v1 and v2 logs: the same header keys, then one JSON record per line
    record = {"sample_id": 0, "layer": 1, "domain": "math", "subtask": "Math-CoT", "sim": 0.5,
              "pooled_out": [0.25, 1.25]}
    for version in (1, 2):
        header = json.loads(log_lines()[0])
        header["schema_version"] = version
        old = text([json.dumps(header), json.dumps(dict(record, pooled_in=[0.0, 0.25])
                                                   if version == 1 else record)])
        with pytest.raises(SchemaViolation, match=f"^schema_version: unsupported value {version}"):
            read_log(io.StringIO(old))


def test_read_rejects_duplicate_pair():
    lines = log_lines(table(row(0), row(1)))
    with pytest.raises(SchemaViolation, match=r"^record 1: duplicate \(sample_id, layer\) pair"):
        read_log(io.StringIO(with_column(lines, "sample_id", [0, 0])))


def test_read_rejects_undeclared_subtask():
    # Captioning is declared, but for nonmath only
    captioning = header_4x2().subtask_tags.index("Captioning")
    lines = log_lines(table(row(0), row(1)))
    with pytest.raises(SchemaViolation,
                       match="^record 1: subtask: 'Captioning' not declared for domain 'math'"):
        read_log(io.StringIO(with_column(lines, "subtask", [0, captioning])))


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
])
def test_read_rejects_wrong_types_with_line_number(key, value, message):
    # a column is only ever a base64 string: no JSON value can pose as its numbers
    lines = log_lines(table(row(0), row(1), row(2)))
    lines[lineno(key) - 1] = json.dumps({key: value})
    with pytest.raises(SchemaViolation, match=f"^line {lineno(key)}: {message}"):
        read_log(io.StringIO(text(lines)))


def test_read_rejects_a_header_that_is_not_json():
    lines = log_lines()
    for header, reason in (
            ("{'model_id': 'toy'}", "Expecting property name enclosed in double quotes"),
            (lines[0] + "}", "Extra data")):
        with pytest.raises(SchemaViolation, match=rf"^line 1: invalid header \({reason}\)$"):
            read_log(io.StringIO(text([header] + lines[1:])))


def test_read_rejects_unequal_columns():
    lines = log_lines(table(row(0), row(1), row(2)))
    with pytest.raises(SchemaViolation, match="^line 4: domain: 2 values, expected 3"):
        read_log(io.StringIO(with_column(lines, "domain", [0, 0])))
    with pytest.raises(SchemaViolation, match="^line 7: pooled_out: 5 values, expected 6"):
        read_log(io.StringIO(with_column(lines, "pooled_out", np.zeros(5))))
    # lengths are counted against sample_id, so a short sample_id shows on the next line
    with pytest.raises(SchemaViolation, match="^line 3: layer: 3 values, expected 2"):
        read_log(io.StringIO(with_column(lines, "sample_id", [0, 1])))


def test_read_reports_earliest_bad_line():
    lines = log_lines(table(row(0), row(1), row(2)))
    lines[2] = json.dumps({"layer": 1})
    lines[5] = json.dumps({"sim": "*"})
    with pytest.raises(SchemaViolation, match="^line 3: layer"):
        read_log(io.StringIO(text(lines)))
    # a bad line before a truncated one still wins
    with pytest.raises(SchemaViolation, match="^line 3: layer"):
        read_log(io.StringIO(text(lines[:4])[:-5]))
    # and among bad values, the earliest record wins
    lines = with_column(log_lines(table(row(0), row(1), row(2))), "layer", [1, 9, 1])
    with pytest.raises(SchemaViolation, match="^record 0: sim"):
        read_log(io.StringIO(with_column(lines.splitlines(), "sim", [3.0, 0.5, 0.5])))


def test_read_rejects_content_after_the_last_column():
    with pytest.raises(SchemaViolation, match="^line 8: content after the last column"):
        read_log(io.StringIO(text(log_lines() + ["{}"])))


def test_read_streams_lines():
    class LinesOnly:
        """A source with readline and nothing else."""

        def __init__(self, text):
            self._buf = io.StringIO(text)

        def readline(self):
            return self._buf.readline()

    tab = table(row(0), row(1))
    data = log_bytes(tab.header, tab).decode()
    _, got = read_log(LinesOnly(data))
    assert got.sample_id.tolist() == [0, 1]


def test_truncated_last_line():
    data = log_bytes(header_4x2(), table(row())).decode()
    with pytest.raises(TruncatedFile, match="^line 7: unterminated"):
        read_log(io.StringIO(data[:-10]))
    # a log cut at a line boundary has all its lines whole, but too few of them
    for cut in range(1, 7):
        with pytest.raises(TruncatedFile, match=f"^line {cut + 1}: missing"):
            read_log(io.StringIO(text(data.splitlines()[:cut])))


def test_empty_file():
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(""))


def test_bad_header_layer_range():
    with pytest.raises(SchemaViolation, match=r"^protected_layers: 7 outside \[0, 4\)$"):
        LogHeader(model_id="x", num_layers=4, hidden_dim=2,
                  protected_layers=frozenset({7}), domains=())


def test_header_needs_a_pruneable_layer():
    # every method ranks the layers left unprotected, so a header must leave one
    with pytest.raises(SchemaViolation, match="^protected_layers: all 4 layers are protected"):
        replace(header_4x2(), protected_layers=frozenset(range(4)))
    lines = log_lines()
    lines[0] = lines[0].replace('"protected_layers":[0,3]', '"protected_layers":[0,1,2,3]')
    with pytest.raises(SchemaViolation, match="^protected_layers: all 4 layers are protected"):
        read_log(io.StringIO(text(lines)))
    assert replace(header_4x2(), protected_layers=frozenset({0, 2, 3})).pruneable == (1,)


def test_parsing_a_header_costs_no_more_than_its_line():
    # one edited num_layers must not make the reader allocate a set of that many layers
    line = ('{"schema_version":3,"model_id":"x","num_layers":1000000,"hidden_dim":2,'
            '"protected_layers":[0,999999],"domains":[]}')
    tracemalloc.start()
    try:
        header = _parse_header(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert header.num_layers == 10 ** 6
    assert peak < 2 ** 20


def test_header_rejects_repeated_domain():
    # scoring looks a domain up by name, so a second "math" would go unread
    with pytest.raises(SchemaViolation, match="^domains: 'math' is listed twice$"):
        LogHeader(model_id="x", num_layers=4, hidden_dim=2, protected_layers=frozenset(),
                  domains=(DomainInfo("math", ("A",), 1), DomainInfo("math", ("B",), 1)))
    lines = log_lines()
    lines[0] = lines[0].replace('"nonmath"', '"math"')
    with pytest.raises(SchemaViolation, match="^domains: 'math' is listed twice$"):
        read_log(io.StringIO(text(lines)))


@pytest.mark.parametrize("domains", [
    (DomainInfo("math", ("A", "B", "A"), 1), DomainInfo("nonmath", ("C",), 1)),
    # one tag under two domains would merge both domains' records in one heatmap row
    (DomainInfo("math", ("A", "B"), 1), DomainInfo("nonmath", ("C", "A"), 1)),
])
def test_header_rejects_repeated_subtask_tag(domains):
    with pytest.raises(SchemaViolation, match="^domains: subtasks: 'A' is listed twice$"):
        LogHeader(model_id="x", num_layers=4, hidden_dim=2, protected_layers=frozenset(),
                  domains=domains)


def test_read_rejects_a_subtask_tag_of_two_domains():
    lines = log_lines()
    lines[0] = lines[0].replace('"Captioning"', '"Math-CoT"')
    with pytest.raises(SchemaViolation, match="^domains: subtasks: 'Math-CoT' is listed twice$"):
        read_log(io.StringIO(text(lines)))


def test_header_sample_counts_must_match_the_records():
    # scoring reports each domain's n from its records, so a header that
    # declares 250 math samples over records of 5 would go unnoticed
    tab = table(*(row(i) for i in range(5)))
    for domain, count, held in [(0, 250, 5), (0, 4, 5), (1, 3, 0)]:
        lines = log_lines(tab)
        header = json.loads(lines[0])
        header["domains"][domain]["sample_count"] = count
        lines[0] = json.dumps(header)
        name = header["domains"][domain]["domain"]
        with pytest.raises(SchemaViolation, match=f"^domains: {name!r} declares sample_count "
                                                  f"{count}, but its records hold {held} samples"):
            read_log(io.StringIO(text(lines)))
    with pytest.raises(SchemaViolation, match="^domains: 'math' declares sample_count 250"):
        write_log(header_4x2(250), tab, io.StringIO())


# ---- property tests over random headers and tables --------------------------

TAGS = ("A", "B", "C", "D")
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def headers_and_tables(draw, min_rows=0):
    num_layers = draw(st.integers(1, 6))
    hidden_dim = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(("math", "nonmath", "other")),
                          min_size=1, max_size=3, unique=True))
    # a tag belongs to one domain: the drawn tags are cut into one run per domain
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=len(names), unique=True))
    cuts = sorted(draw(st.permutations(range(1, len(tags))))[:len(names) - 1])
    subtasks = {name: tuple(tags[a:b])
                for name, a, b in zip(names, [0, *cuts], [*cuts, len(tags)])}
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(0, num_layers - 1)),
                          min_size=min_rows, max_size=12, unique=True))
    rows = []
    for sample_id, layer in pairs:
        name = draw(st.sampled_from(sorted(subtasks)))
        rows.append((sample_id, layer, name, draw(st.sampled_from(subtasks[name])),
                     draw(st.floats(-1.0, 1.0)),
                     np.array(draw(st.lists(finite32, min_size=hidden_dim, max_size=hidden_dim)),
                              dtype=np.float32)))
    # each domain declares as many samples as its records hold
    domains = tuple(DomainInfo(name, tags, len({r[0] for r in rows if r[2] == name}))
                    for name, tags in subtasks.items())
    header = LogHeader(model_id=draw(st.text(max_size=8)), num_layers=num_layers,
                       hidden_dim=hidden_dim,
                       protected_layers=frozenset(draw(st.sets(st.integers(0, num_layers - 1),
                                                               max_size=num_layers - 1))),
                       domains=domains)
    return header, table_from_rows(header, rows)


@given(headers_and_tables())
@settings(max_examples=150, deadline=None)
def test_property_round_trip_is_bit_exact(case):
    header, tab = case
    got_header, got = read_log(io.StringIO(log_bytes(header, tab).decode()))
    assert got_header == header
    for name in ("sample_id", "layer", "domain", "subtask"):
        np.testing.assert_array_equal(getattr(got, name), getattr(tab, name))
    assert got.sim.dtype == np.float64 and got.pooled_out.dtype == np.float32
    assert (got.sim.view(np.uint64) == tab.sim.astype(np.float32).astype(np.float64)
            .view(np.uint64)).all()
    assert got.pooled_out.shape == tab.pooled_out.shape
    assert (got.pooled_out.view(np.uint32) == tab.pooled_out.view(np.uint32)).all()




def reencode(value, rng):
    """``value``, a base64 string, re-encoded with bytes that are no whole number of values."""
    data = base64.b64decode(value)
    return base64.b64encode(data + bytes(rng.choice([1, 2, 3]))).decode("ascii")


LINE_CORRUPTIONS = {
    "garbage": lambda name, value, rng: "{not json",
    "not an object": lambda name, value, rng: rng.choice(["[]", "null", json.dumps(value)]),
    "missing key": lambda name, value, rng: "{}",
    "wrong key": lambda name, value, rng: json.dumps({rng.choice(["pooled_in", "x"]): value}),
    "extra key": lambda name, value, rng: json.dumps({name: value, "extra": value}),
    "non-string": lambda name, value, rng: json.dumps(
        {name: rng.choice([1, 1.5, None, True, [0.5], {}])}),
    "bad base64": lambda name, value, rng: json.dumps(
        {name: rng.choice([value + "*", value[:-1], value + "é", "A"])}),
    "ragged bytes": lambda name, value, rng: json.dumps({name: reencode(value, rng)}),
}


@given(headers_and_tables(min_rows=1), st.data())
@settings(max_examples=200, deadline=None)
def test_property_corrupt_line_is_reported(case, data):
    header, tab = case
    lines = log_bytes(header, tab).decode().splitlines()
    kind = data.draw(st.sampled_from(sorted(LINE_CORRUPTIONS) + ["extra line"]), label="kind")
    if kind == "extra line":
        lines.append(data.draw(st.sampled_from(["", "{}", lines[-1]])))
        lineno = len(lines)
    else:
        lineno = data.draw(st.integers(2, len(lines)), label="line")
        name, value = next(iter(json.loads(lines[lineno - 1]).items()))
        rng = data.draw(st.randoms(use_true_random=False))
        lines[lineno - 1] = LINE_CORRUPTIONS[kind](name, value, rng)
    with pytest.raises(SchemaViolation, match=f"^line {lineno}: "):
        read_log(io.StringIO(text(lines)))


def bad_value(header, tab, name, i, rng):
    """A value of column ``name`` (not pooled_out) for record ``i`` that the reader rejects."""
    if name == "layer":
        return rng.choice([-1, header.num_layers, 2 ** 40])
    if name == "domain":
        return rng.choice([-1, len(header.domains)])
    if name == "subtask":
        declared = header.domains[tab.domain[i]].subtasks
        return rng.choice([-1, len(header.subtask_tags)] + [
            t for t, tag in enumerate(header.subtask_tags) if tag not in declared])
    return rng.choice([1.5, -2.0, float("nan"), float("inf")])  # sim


@given(headers_and_tables(min_rows=1), st.data())
@settings(max_examples=200, deadline=None)
def test_property_bad_record_value_is_reported(case, data):
    header, tab = case
    lines = log_bytes(header, tab).decode().splitlines()
    rng = data.draw(st.randoms(use_true_random=False))
    i = data.draw(st.integers(0, len(tab) - 1), label="record")
    kinds = ["layer", "domain", "subtask", "sim", "pooled_out"] + (["duplicate"] if i else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "duplicate":  # record i takes the (sample_id, layer) pair of an earlier record
        j = data.draw(st.integers(0, i - 1), label="earlier")
        columns = {"sample_id": tab.sample_id.copy(), "layer": tab.layer.copy()}
        for values in columns.values():
            values[i] = values[j]
    elif kind == "pooled_out":
        pooled = tab.pooled_out.copy()
        pooled[i, rng.randrange(header.hidden_dim)] = rng.choice([np.inf, -np.inf, np.nan])
        columns = {"pooled_out": pooled}
    else:
        values = getattr(tab, kind).astype(dict(_COLUMNS)[kind])
        values[i] = bad_value(header, tab, kind, i, rng)
        columns = {kind: values}
    for name, values in columns.items():
        lines[lineno(name) - 1] = encode(name, values)
    with pytest.raises(SchemaViolation, match=f"^record {i}: "):
        read_log(io.StringIO(text(lines)))


@given(headers_and_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_property_truncated_last_line(case, data):
    """A log cut anywhere, at a line boundary too, raises TruncatedFile."""
    header, tab = case
    log = log_bytes(header, tab).decode()
    boundaries = [i + 1 for i, char in enumerate(log[:-1]) if char == "\n"]
    cut = data.draw(st.sampled_from(boundaries) | st.integers(1, len(log) - 1), label="cut")
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(log[:cut]))
