import base64
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_table, log_bytes
from depthprune.actlog import (_COLUMNS, _PIECE, SCHEMA_VERSION, ActivationTable, DomainInfo,
                               LogHeader, _parse_header, read_log, read_log_path, write_log,
                               write_log_path)
from depthprune.errors import SchemaViolation, SinkFailure, TruncatedFile


def header_4x2(math_samples=1):
    return LogHeader(
        model_id="toy", num_layers=4, hidden_dim=2,
        protected_layers=frozenset({0, 3}),
        domains=(DomainInfo("math", ("Math-CoT",), math_samples),
                 DomainInfo("nonmath", ("Captioning",), 0)),
    )


SIMS = (0.5, 0.25, -0.5, 1.0)  # one sample's sims at layers 0-3
POOLED = np.arange(2, dtype=np.float32) + 0.25  # every record's pooled output


def table(*sims):
    """A table of one Math-CoT sample per row of ``sims``, under a header that counts them."""
    n = len(sims)
    return grid_table(header_4x2(n), ["Math-CoT"] * n, np.reshape(sims, (n, 4)),
                      np.broadcast_to(POOLED, (n, 4, 2)))


def test_empty_stream_header_only():
    # a log holds at least one sample: no header-only log is written or read
    with pytest.raises(SchemaViolation, match="^no samples: a log holds at least one$"):
        write_log(table(), io.StringIO())
    header_only = (log_lines()[0] + "\n"
                   + "".join(json.dumps({name: ""}) + "\n" for name, _ in _COLUMNS))
    with pytest.raises(SchemaViolation, match="^no samples: a log holds at least one$"):
        read_log(io.StringIO(header_only.replace('"sample_count":1', '"sample_count":0')))


def reference_column_lines(tab):
    """Each column line as one ``json.dumps`` of the whole column's base64."""
    lines = []
    for name, dtype in _COLUMNS:
        data = np.asarray(getattr(tab, name), dtype=dtype).tobytes()
        lines.append(json.dumps({name: base64.b64encode(data).decode("ascii")},
                                separators=(",", ":")) + "\n")
    return "".join(lines)


def test_column_written_in_pieces_equals_one_json_dumps():
    # 20-byte pooled rows, 4 per sample: the column spans three pieces and ends mid base64 group
    n = 2 * _PIECE // 80 + 1
    rng = np.random.default_rng(0)
    header = LogHeader(model_id="toy", num_layers=4, hidden_dim=5,
                       protected_layers=frozenset({0, 3}),
                       domains=(DomainInfo("math", ("Math-CoT",), n),))
    tab = ActivationTable(header=header, subtask=np.zeros(n, dtype=np.int64),
                          sim=rng.uniform(-1, 1, (n, 4)),
                          pooled_out=rng.standard_normal((n, 4, 5)).astype(np.float32))
    assert tab.pooled_out.nbytes > 2 * _PIECE and tab.pooled_out.nbytes % 3 != 0
    buf = io.StringIO()
    write_log(tab, buf)
    assert buf.getvalue().split("\n", 1)[1] == reference_column_lines(tab)
    got = read_log(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(got.pooled_out, tab.pooled_out)


def test_round_trip_single_record():
    data = log_bytes(table((0.5, 0.123456789, -0.5, 1.0)))
    got = read_log(io.StringIO(data.decode()))
    header = got.header
    assert header == header_4x2()
    assert len(got) == 4
    assert got.sim.shape == (1, 4) and got.pooled_out.shape == (1, 4, 2)
    assert header.domains[got.domain[0]].domain == "math"
    assert header.subtask_tags[got.subtask[0]] == "Math-CoT"
    assert got.sim[0, 1] == float(np.float32(0.123456789))
    np.testing.assert_array_equal(got.pooled_out[0, 1], POOLED)


def test_header_line_bytes_are_pinned():
    header = replace(header_4x2(), protected_layers=frozenset({3, 1, 0}),
                     domains=(DomainInfo("math", ("Math-CoT", "Arithmetic"), 1),
                              DomainInfo("nonmath", ("Captioning",), 0)))
    data = log_bytes(grid_table(header, ["Arithmetic"], [SIMS]))
    assert data.split(b"\n")[0] == (
        b'{"schema_version":4,"model_id":"toy","num_layers":4,"hidden_dim":2,'
        b'"protected_layers":[0,1,3],"domains":[{"domain":"math","subtasks":'
        b'["Math-CoT","Arithmetic"],"sample_count":1},{"domain":"nonmath",'
        b'"subtasks":["Captioning"],"sample_count":0}]}')
    assert read_log(io.StringIO(data.decode())).header == header


def test_round_trip_preserves_float32_bits():
    rng = np.random.default_rng(0)
    sims = rng.uniform(-1, 1, (20, 4))
    pooled = rng.standard_normal((20, 4, 2)).astype(np.float32)
    tab = grid_table(header_4x2(20), ["Math-CoT"] * 20, sims, pooled)
    data = log_bytes(tab)
    got = read_log(io.StringIO(data.decode()))
    np.testing.assert_array_equal(got.pooled_out, pooled)
    np.testing.assert_array_equal(got.sim, sims.astype(np.float32).astype(np.float64))


def test_records_carry_no_pooled_in():
    # nor sample_id, layer or domain: a record's place in the grid gives its sample and layer,
    # and a sample's subtask its domain
    data = log_bytes(table(SIMS))
    header, *columns = (json.loads(line) for line in data.decode().splitlines())
    assert header["schema_version"] == 4
    assert [list(obj) for obj in columns] == [["subtask"], ["sim"], ["pooled_out"]]


def test_write_rejects_wrong_dim():
    # a table of hidden_dim 3, put under a header of hidden_dim 2
    bad = grid_table(replace(header_4x2(), hidden_dim=3), ["Math-CoT"], [SIMS])
    with pytest.raises(SchemaViolation,
                       match=r"pooled_out \(1, 4, 3\): not the shapes of 1 samples"):
        write_log(replace(bad, header=header_4x2()), io.StringIO())


def test_write_rejects_duplicate_pair():
    # a grid holds each (sample, layer) pair once: a sample's records given twice are
    # more records than its samples have, so no table holds them
    tab = table(SIMS)
    with pytest.raises(SchemaViolation, match=r"^sim \(1, 8\) and pooled_out \(1, 8, 2\): "
                                              r"not the shapes of 1 samples$"):
        twice = replace(tab, sim=np.tile(tab.sim, 2), pooled_out=np.tile(tab.pooled_out, (2, 1)))
        write_log(twice, io.StringIO())


def test_write_rejects_unknown_subtask():
    tab = table(SIMS, SIMS)
    with pytest.raises(SchemaViolation, match="^sample 1: subtask: unknown tag -1$"):
        write_log(replace(tab, subtask=np.array([0, -1])), io.StringIO())


def test_write_rejects_undeclared_domain_index():
    # a sample's domain is the one that declares its subtask, so a subtask index past every
    # domain's tags is the only way to name no domain
    tab = table(SIMS)
    with pytest.raises(SchemaViolation, match="^sample 0: subtask: unknown tag 5$"):
        write_log(replace(tab, subtask=np.array([5])), io.StringIO())


@pytest.mark.parametrize("column,value,got", [
    ("subtask", np.array([0.0]), "float64"),
    ("subtask", np.array([False]), "bool"),
    ("sim", [list(SIMS)], "list"),
    ("sim", np.array([SIMS], dtype=complex), "complex128"),
], ids=["float-subtask", "bool-subtask", "list-sim", "complex-sim"])
def test_a_column_of_another_kind_is_refused_first(column, value, got):
    # a complex sim would build, and then lose its imaginary part in the log
    kind = "integer" if column == "subtask" else "floating"
    with pytest.raises(SchemaViolation,
                       match=rf"^{column}: not an array of {kind} values \({got}\)$"):
        replace(table(SIMS), **{column: value})


def test_a_table_cannot_be_edited_in_place():
    tab = table(SIMS)
    for column in (tab.subtask, tab.sim, tab.pooled_out):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = -1


def test_write_validates_before_writing():
    # a table valid under its own header, put under one that miscounts its samples
    with pytest.raises(SchemaViolation, match="^domains: 'math' declares sample_count 3, "
                                              "but its records hold 2 samples$"):
        write_log(replace(table(SIMS, SIMS), header=header_4x2(3)), io.StringIO())


def test_a_refused_write_keeps_the_log_at_its_path(tmp_path):
    path = str(tmp_path / "keep.log")
    tab = table(SIMS)
    write_log_path(tab, path=path)
    assert read_log_path(path).header == tab.header
    # a table is checked when built, so no table the writer could refuse reaches it
    with pytest.raises(SchemaViolation, match=r"^sim \(1, 4\) and pooled_out \(1, 4, 2\): "
                                              r"not the shapes of 1 samples$"):
        write_log_path(replace(tab, header=replace(tab.header, num_layers=5)), path=path)


def test_write_turns_a_sink_failure_into_sink_failure():
    class FullSink:
        def write(self, text):
            raise OSError(28, "No space left on device")

    with pytest.raises(SinkFailure, match=r"^I/O failure while writing log: "
                                          r"\[Errno 28\] No space left on device$"):
        write_log(table(SIMS), FullSink())


def log_lines(tab=None):
    tab = table(SIMS) if tab is None else tab
    return log_bytes(tab).decode().splitlines()


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
        read_log(io.StringIO(with_column(log_lines(), "sim", [1.5, 0.5, 0.5, 0.5])))


def test_read_rejects_unknown_key():
    lines = log_lines()
    lines[2] = lines[2][:-1] + ',"extra":1}'
    with pytest.raises(SchemaViolation, match="^line 3: unknown column key 'extra'"):
        read_log(io.StringIO(text(lines)))


def test_read_rejects_v1_record_key():
    lines = log_lines()
    lines[3] = lines[3].replace('"pooled_out"', '"pooled_in"')
    with pytest.raises(SchemaViolation, match="^line 4: unknown column key 'pooled_in'"):
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
    # v3: one column line per record field, sample_id, layer and domain among them
    header = json.loads(log_lines()[0])
    header["schema_version"] = 3
    old = text([json.dumps(header)] + [json.dumps({name: ""}) for name in (
        "sample_id", "layer", "domain", "subtask", "sim", "pooled_out")])
    with pytest.raises(SchemaViolation, match="^schema_version: unsupported value 3"):
        read_log(io.StringIO(old))


def test_read_rejects_duplicate_pair():
    # a grid holds each (sample, layer) pair once: records given twice over are more than
    # the samples' layers, whichever column holds them
    lines = log_lines(table(SIMS))
    with pytest.raises(SchemaViolation, match="^line 3: sim: 8 values, expected 4 for 1 samples$"):
        read_log(io.StringIO(with_column(lines, "sim", SIMS * 2)))
    with pytest.raises(SchemaViolation,
                       match="^line 4: pooled_out: 16 values, expected 8 for 1 samples$"):
        read_log(io.StringIO(with_column(lines, "pooled_out", np.tile(POOLED, 8))))


def test_read_rejects_undeclared_subtask():
    lines = log_lines(table(SIMS, SIMS))
    for index in (-1, len(header_4x2().subtask_tags)):
        with pytest.raises(SchemaViolation, match=f"^sample 1: subtask: unknown tag {index}$"):
            read_log(io.StringIO(with_column(lines, "subtask", [0, index])))


@pytest.mark.parametrize("key,value,message", [
    ("subtask", "0", "subtask: unexpected value '0'"),
    ("subtask", 1.0, "subtask: unexpected value 1.0"),
    ("subtask", 2 ** 70, f"subtask: unexpected value {2 ** 70}"),
    ("sim", None, "sim: unexpected value None"),
    ("pooled_out", [0.5, "x"], r"pooled_out: unexpected value \[0.5, 'x'\]"),
    ("pooled_out", [0.5], r"pooled_out: unexpected value \[0.5\]"),
    ("pooled_out", [[0.5, 1.0], [0.5]], r"pooled_out: unexpected value \[\[0.5, 1.0\], \[0.5\]\]"),
    ("subtask", ["math"], r"subtask: unexpected value \['math'\]"),
    ("subtask", 7, "subtask: unexpected value 7"),
    ("sim", True, "sim: unexpected value True"),
    ("pooled_out", [0.5, None], r"pooled_out: unexpected value \[0.5, None\]"),
])
def test_read_rejects_wrong_types_with_line_number(key, value, message):
    # a column is only ever a base64 string: no JSON value can pose as its numbers
    lines = log_lines(table(SIMS, SIMS, SIMS))
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
    lines = log_lines(table(SIMS, SIMS, SIMS))
    with pytest.raises(SchemaViolation, match="^line 3: sim: 11 values, expected 12 for 3 samples"):
        read_log(io.StringIO(with_column(lines, "sim", np.zeros(11))))
    with pytest.raises(SchemaViolation,
                       match="^line 4: pooled_out: 23 values, expected 24 for 3 samples"):
        read_log(io.StringIO(with_column(lines, "pooled_out", np.zeros(23))))
    # lengths are counted against subtask, so a short subtask shows on the next line
    with pytest.raises(SchemaViolation, match="^line 3: sim: 12 values, expected 8 for 2 samples"):
        read_log(io.StringIO(with_column(lines, "subtask", [0, 0])))


def test_read_refuses_a_header_that_declares_more_layers_than_its_columns_hold():
    # the expected lengths are integers, so an edited num_layers costs no grid of that many layers
    lines = log_lines(table(SIMS, SIMS))
    lines[0] = lines[0].replace('"num_layers":4', '"num_layers":2000000')
    tracemalloc.start()
    try:
        with pytest.raises(SchemaViolation,
                           match="^line 3: sim: 8 values, expected 4000000 for 2 samples$"):
            read_log(io.StringIO(text(lines)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_read_reports_earliest_bad_line():
    lines = log_lines(table(SIMS, SIMS, SIMS))
    lines[2] = json.dumps({"sim": 1})
    lines[3] = json.dumps({"pooled_out": "*"})
    with pytest.raises(SchemaViolation, match="^line 3: sim"):
        read_log(io.StringIO(text(lines)))
    # a bad line before a truncated one still wins
    with pytest.raises(SchemaViolation, match="^line 3: sim"):
        read_log(io.StringIO(text(lines)[:-5]))
    # among bad values, the earliest column's earliest bad value wins
    lines = with_column(log_lines(table(SIMS, SIMS, SIMS)), "subtask", [0, 0, 9])
    sims = np.tile(SIMS, 3)
    sims[[5, 2]] = 3.0
    with pytest.raises(SchemaViolation, match="^sample 2: subtask"):
        read_log(io.StringIO(with_column(lines.splitlines(), "sim", sims)))
    lines = with_column(log_lines(table(SIMS, SIMS, SIMS)), "sim", sims)
    pooled = np.tile(POOLED, 12)
    pooled[0] = np.nan
    with pytest.raises(SchemaViolation, match="^record 2: sim: 3.0"):
        read_log(io.StringIO(with_column(lines.splitlines(), "pooled_out", pooled)))


def test_read_rejects_content_after_the_last_column():
    with pytest.raises(SchemaViolation, match="^line 5: content after the last column"):
        read_log(io.StringIO(text(log_lines() + ["{}"])))


def test_read_streams_lines():
    class LinesOnly:
        """A source with readline and nothing else."""

        def __init__(self, text):
            self._buf = io.StringIO(text)

        def readline(self):
            return self._buf.readline()

    tab = table(SIMS, SIMS)
    data = log_bytes(tab).decode()
    got = read_log(LinesOnly(data))
    np.testing.assert_array_equal(got.sim, [SIMS, SIMS])


def test_truncated_last_line():
    data = log_bytes(table(SIMS)).decode()
    with pytest.raises(TruncatedFile, match="^line 4: unterminated"):
        read_log(io.StringIO(data[:-10]))
    # a log cut at a line boundary has all its lines whole, but too few of them
    for cut in range(1, 4):
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
    line = (f'{{"schema_version":{SCHEMA_VERSION},"model_id":"x","num_layers":1000000,'
            '"hidden_dim":2,"protected_layers":[0,999999],"domains":[]}')
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
    # one tag under two domains would leave its samples' domain unknown
    (DomainInfo("math", ("A", "B"), 1), DomainInfo("nonmath", ("C", "A"), 1)),
])
def test_header_rejects_repeated_subtask_tag(domains):
    with pytest.raises(SchemaViolation, match="^domains: subtasks: 'A' is listed twice$"):
        LogHeader(model_id="x", num_layers=4, hidden_dim=2, protected_layers=frozenset(),
                  domains=domains)


@pytest.mark.parametrize("domains,message", [
    ((DomainInfo("math", ("Math,CoT",), 1),), "^domains: subtasks: 'Math,CoT' holds "),
    ((DomainInfo("math", ("A", 'Math"CoT'), 1),), "^domains: subtasks: 'Math\"CoT' holds "),
    ((DomainInfo("math", ("Math\rCoT",), 1),), r"^domains: subtasks: 'Math\\rCoT' holds "),
    ((DomainInfo("math", ("A",), 1), DomainInfo("non\nmath", ("B",), 1)),
     r"^domains: domain: 'non\\nmath' holds "),
], ids=["comma-in-a-tag", "quote-in-a-tag", "cr-in-a-tag", "lf-in-a-domain"])
def test_header_rejects_a_name_that_would_break_a_csv_cell_or_line(domains, message):
    # heatmap writes each tag into a CSV cell and score each domain into a line, as they are
    with pytest.raises(SchemaViolation, match=message + "a comma, a quote or a line break$"):
        LogHeader(model_id="x", num_layers=4, hidden_dim=2, protected_layers=frozenset(),
                  domains=domains)


def test_read_rejects_a_subtask_tag_of_two_domains():
    lines = log_lines()
    lines[0] = lines[0].replace('"Captioning"', '"Math-CoT"')
    with pytest.raises(SchemaViolation, match="^domains: subtasks: 'Math-CoT' is listed twice$"):
        read_log(io.StringIO(text(lines)))


def test_header_sample_counts_must_match_the_records():
    # scoring reports each domain's n from its samples, so a header that
    # declares 250 math samples over records of 5 would go unnoticed
    tab = table(*[SIMS] * 5)
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
        write_log(replace(tab, header=header_4x2(250)), io.StringIO())
    # a Captioning sample is a nonmath sample, whatever header the table was built under
    with pytest.raises(SchemaViolation, match="^domains: 'math' declares sample_count 1, "
                                              "but its records hold 0 samples"):
        write_log(grid_table(header_4x2(), ["Captioning"], [SIMS]), io.StringIO())


# ---- property tests over random headers and tables --------------------------

TAGS = ("A", "B", "C", "D")
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def headers_and_tables(draw):
    num_layers = draw(st.integers(1, 6))
    hidden_dim = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(("math", "nonmath", "other")),
                          min_size=1, max_size=3, unique=True))
    # a tag belongs to one domain: the drawn tags are cut into one run per domain
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=len(names), unique=True))
    cuts = sorted(draw(st.permutations(range(1, len(tags))))[:len(names) - 1])
    subtasks = {name: tuple(tags[a:b])
                for name, a, b in zip(names, [0, *cuts], [*cuts, len(tags)])}
    # a log holds at least one sample
    samples = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=4))
    n = len(samples)
    sims = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * num_layers, max_size=n * num_layers))
    pooled = draw(st.lists(finite32, min_size=n * num_layers * hidden_dim,
                           max_size=n * num_layers * hidden_dim))
    # each domain declares as many samples as it holds
    domains = tuple(DomainInfo(name, declared, sum(tag in declared for tag in samples))
                    for name, declared in subtasks.items())
    header = LogHeader(model_id=draw(st.text(max_size=8)), num_layers=num_layers,
                       hidden_dim=hidden_dim,
                       protected_layers=frozenset(draw(st.sets(st.integers(0, num_layers - 1),
                                                               max_size=num_layers - 1))),
                       domains=domains)
    return header, grid_table(header, samples, np.reshape(sims, (n, num_layers)),
                              np.reshape(pooled, (n, num_layers, hidden_dim)))


@given(headers_and_tables())
@settings(max_examples=150, deadline=None)
def test_property_round_trip_is_bit_exact(case):
    header, tab = case
    got = read_log(io.StringIO(log_bytes(tab).decode()))
    assert got.header == header
    for name in ("subtask", "domain"):
        np.testing.assert_array_equal(getattr(got, name), getattr(tab, name))
    assert got.sim.dtype == np.float64 and got.pooled_out.dtype == np.float32
    assert got.sim.shape == tab.sim.shape
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


@given(headers_and_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_property_corrupt_line_is_reported(case, data):
    _, tab = case
    lines = log_bytes(tab).decode().splitlines()
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


@given(headers_and_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_property_bad_record_value_is_reported(case, data):
    header, tab = case
    lines = log_bytes(tab).decode().splitlines()
    rng = data.draw(st.randoms(use_true_random=False))
    kind = data.draw(st.sampled_from(["subtask", "sim", "pooled_out"]), label="kind")
    if kind == "subtask":  # a sample's tag index that no domain declares
        i = data.draw(st.integers(0, len(tab.subtask) - 1), label="sample")
        values = tab.subtask.copy()
        values[i] = rng.choice([-1, len(header.subtask_tags), 2 ** 40])
        where = f"sample {i}"
    else:
        i = data.draw(st.integers(0, len(tab) - 1), label="record")
        values = getattr(tab, kind).astype(np.float32).reshape(len(tab), -1)  # a row per record
        if kind == "sim":
            values[i] = rng.choice([1.5, -2.0, float("nan"), float("inf")])
        else:
            values[i, rng.randrange(header.hidden_dim)] = rng.choice([np.inf, -np.inf, np.nan])
        where = f"record {i}"
    lines[lineno(kind) - 1] = encode(kind, values)
    with pytest.raises(SchemaViolation, match=f"^{where}: "):
        read_log(io.StringIO(text(lines)))


@given(headers_and_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_property_truncated_last_line(case, data):
    """A log cut anywhere, at a line boundary too, raises TruncatedFile."""
    _, tab = case
    log = log_bytes(tab).decode()
    boundaries = [i + 1 for i, char in enumerate(log[:-1]) if char == "\n"]
    cut = data.draw(st.sampled_from(boundaries) | st.integers(1, len(log) - 1), label="cut")
    with pytest.raises(TruncatedFile):
        read_log(io.StringIO(log[:cut]))
