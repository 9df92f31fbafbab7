"""Activation-log file format and the activation table it holds.

Line-delimited JSON: line 1 is the header object, every following line is
one (sample, layer) record.  Sims and pooled outputs are rounded to float32
before writing so the decimal form round-trips bit-stably across
implementations.  Schema v2 has no ``pooled_in``: no ranker reads it, and
for layer l >= 1 it equals the ``pooled_out`` of layer l - 1.
"""

import io
import json
import reprlib
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import SchemaViolation, SinkFailure, TruncatedFile

SCHEMA_VERSION = 2

_HEADER_KEYS = {"schema_version", "model_id", "num_layers", "hidden_dim",
                "protected_layers", "domains"}
_DOMAIN_KEYS = {"domain", "subtasks", "sample_count"}
_RECORD_KEYS = {"sample_id", "layer", "domain", "subtask", "sim", "pooled_out"}
_TYPES = {"sample_id": (int,), "layer": (int,), "domain": (str,), "subtask": (str,),
          "sim": (int, float), "pooled_out": (list,)}  # exact types: a JSON true is no number
_INT64 = range(-2 ** 63, 2 ** 63)


@dataclass(frozen=True)
class DomainInfo:
    domain: str
    subtasks: tuple
    sample_count: int


@dataclass(frozen=True)
class LogHeader:
    model_id: str
    num_layers: int
    hidden_dim: int
    protected_layers: frozenset
    domains: tuple  # of DomainInfo
    schema_version: int = SCHEMA_VERSION

    def validate(self):
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaViolation(f"schema_version: unsupported value {self.schema_version} "
                                  f"(this reader reads {SCHEMA_VERSION})")
        if self.num_layers <= 0:
            raise SchemaViolation(f"num_layers: must be positive, got {self.num_layers}")
        if self.hidden_dim <= 0:
            raise SchemaViolation(f"hidden_dim: must be positive, got {self.hidden_dim}")
        for p in self.protected_layers:
            if not (0 <= p < self.num_layers):
                raise SchemaViolation(f"protected_layers: index {p} outside [0, {self.num_layers})")
        for d in self.domains:
            if d.sample_count < 0:
                raise SchemaViolation(f"domains: negative sample_count for {d.domain}")
            if len(set(d.subtasks)) != len(d.subtasks):
                raise SchemaViolation(f"domains: duplicate subtask tag in {d.domain}")

    @property
    def subtask_tags(self) -> tuple:
        """Every declared subtask tag once, in declaration order."""
        return tuple(dict.fromkeys(tag for d in self.domains for tag in d.subtasks))


@dataclass(frozen=True, eq=False)
class ActivationTable:
    """Records as columns, one row per (sample, layer), in record order.

    ``clamped`` counts the sims a capture clamped into [-1, 1] (0 when read).
    """
    header: LogHeader
    sample_id: np.ndarray   # int64 (N,)
    layer: np.ndarray       # int64 (N,)
    domain: np.ndarray      # int64 (N,), index into header.domains
    subtask: np.ndarray     # int64 (N,), index into header.subtask_tags
    sim: np.ndarray         # float64 (N,)
    pooled_out: np.ndarray  # float32 (N, hidden_dim)
    clamped: int = 0

    def __len__(self) -> int:
        return self.sim.shape[0]


def _header_to_json(header: LogHeader) -> str:
    obj = {
        "schema_version": header.schema_version,
        "model_id": header.model_id,
        "num_layers": header.num_layers,
        "hidden_dim": header.hidden_dim,
        "protected_layers": sorted(header.protected_layers),
        "domains": [
            {"domain": d.domain, "subtasks": list(d.subtasks), "sample_count": d.sample_count}
            for d in header.domains
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def _check_rows(header, table, where, malformed=None, raw_names=None):
    """Raise SchemaViolation for the earliest invalid row.

    ``malformed`` maps a row to the message for its value of a wrong type;
    ``raw_names`` maps a row to the (domain, subtask) it named, where either
    is not declared.  Checks are listed in the order one record is checked,
    so a row with several faults reports the first.
    """
    tags, n, d, pooled = header.subtask_tags, len(table), header.hidden_dim, table.pooled_out
    malformed, raw_names = malformed or {}, raw_names or {}
    allowed = np.zeros((len(header.domains) + 1, len(tags) + 1), dtype=bool)  # last: unknown
    for i, info in enumerate(header.domains):
        allowed[i, [tags.index(tag) for tag in info.subtasks]] = True
    known = (table.domain >= 0) & (table.domain < len(header.domains))
    subtask = np.where((table.subtask >= 0) & (table.subtask < len(tags)), table.subtask, -1)

    def names(i):  # as read, else from the codes; an undeclared code shows as itself
        return raw_names.get(i) or (
            header.domains[table.domain[i]].domain if known[i] else int(table.domain[i]),
            tags[subtask[i]] if subtask[i] >= 0 else int(table.subtask[i]))

    dim_ok = pooled.shape[1:] == (d,)
    flagged, repeat, seen = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), set()
    flagged[list(malformed)] = True
    for i, pair in enumerate(zip(table.sample_id.tolist(), table.layer.tolist())):
        repeat[i] = pair in seen
        seen.add(pair)
    checks = [
        (flagged, malformed.get),
        ((table.layer < 0) | (table.layer >= header.num_layers),
         lambda i: f"layer: {table.layer[i]} outside [0, {header.num_layers})"),
        (~known, lambda i: f"domain: unknown tag {names(i)[0]!r}"),
        (known & ~allowed[np.where(known, table.domain, -1), subtask],
         lambda i: "subtask: {1!r} not declared for domain {0!r}".format(*names(i))),
        (~((table.sim >= -1.0) & (table.sim <= 1.0)),
         lambda i: f"sim: {float(table.sim[i])} outside [-1, 1]"),
        (np.full(n, not dim_ok), lambda i: f"pooled_out: dim {pooled.shape[1:]} != hidden_dim {d}"),
        (~np.isfinite(pooled).all(axis=1) if dim_ok else np.zeros(n, dtype=bool),
         lambda i: "pooled_out: non-finite entry"),
        (repeat, lambda i: "duplicate (sample_id, layer) pair "
                           f"{(int(table.sample_id[i]), int(table.layer[i]))}"),
    ]
    bad = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if bad:
        i, k = min(bad)
        raise SchemaViolation(f"{where(i)}{checks[k][1](i)}")


def write_log(header: LogHeader, table: ActivationTable, destination) -> int:
    """Validate the table, then write header plus rows to a text sink; returns record count."""
    header.validate()
    names, tags = [d.domain for d in header.domains], header.subtask_tags
    _check_rows(header, table, lambda i: f"record {i}: ")
    pooled = np.asarray(table.pooled_out, dtype=np.float32)  # tolist() gives exact doubles
    try:
        destination.write(_header_to_json(header) + "\n")
        for i, (sample_id, layer, domain, subtask, sim) in enumerate(zip(
                table.sample_id.tolist(), table.layer.tolist(), table.domain.tolist(),
                table.subtask.tolist(), table.sim.astype(np.float32).tolist())):
            obj = {"sample_id": sample_id, "layer": layer, "domain": names[domain],
                   "subtask": tags[subtask], "sim": sim, "pooled_out": pooled[i].tolist()}
            destination.write(json.dumps(obj, separators=(",", ":")) + "\n")
        destination.flush()
    except OSError as exc:
        raise SinkFailure(f"I/O failure while writing log: {exc}") from exc
    return len(table)


def _key_problem(obj, keys, what):
    """Why ``obj`` is not an object with exactly ``keys``, or None."""
    if not isinstance(obj, dict):
        return f"{what} is not an object"
    unknown, missing = set(obj) - keys, keys - set(obj)
    if unknown:
        return f"unknown {what} key {sorted(unknown)[0]!r}"
    return f"missing {what} key {sorted(missing)[0]!r}" if missing else None


def _parse_header(line: str) -> LogHeader:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"line 1: invalid header ({exc.msg})") from exc
    problem = _key_problem(obj, _HEADER_KEYS, "header")
    if problem is None:
        for d in obj["domains"]:
            problem = problem or _key_problem(d, _DOMAIN_KEYS, "domain")
    if problem is not None:
        raise SchemaViolation(f"line 1: {problem}")
    header = LogHeader(
        model_id=obj["model_id"],
        num_layers=obj["num_layers"],
        hidden_dim=obj["hidden_dim"],
        protected_layers=frozenset(obj["protected_layers"]),
        domains=tuple(DomainInfo(d["domain"], tuple(d["subtasks"]), d["sample_count"])
                      for d in obj["domains"]),
        schema_version=obj["schema_version"],
    )
    header.validate()
    return header


def read_log(source):
    """Stream, parse and validate an activation log; returns (header, table).

    ``source`` is read one line at a time.  Errors name the earliest bad
    line; an unparsable last line raises ``TruncatedFile``.
    """
    first = source.readline()
    if not first:
        raise TruncatedFile("empty log file")
    columns = _Columns(_parse_header(first))
    error, lineno = None, 1
    while line := source.readline():
        lineno += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            error = (SchemaViolation(f"line {lineno}: invalid record ({exc.msg})")
                     if source.readline() else TruncatedFile(f"line {lineno}: truncated record"))
            break
        if not isinstance(obj, dict) or obj.keys() != _RECORD_KEYS:
            error = SchemaViolation(f"line {lineno}: {_key_problem(obj, _RECORD_KEYS, 'record')}")
            break
        columns.add(obj)
    table = columns.table()  # rows before a malformed line are checked first
    if error is not None:
        raise error
    return table.header, table


class _Columns:
    """Parsed records gathered into typed arrays, one record at a time.

    No Python object outlives its record's line, so reading a log leaves
    no heap of small objects behind.  A value of the wrong type is noted
    and stored blank, to be reported in line order with the other checks.
    """

    def __init__(self, header):
        self.header = header
        self.dmap = {d.domain: i for i, d in enumerate(header.domains)}
        self.tmap = {tag: i for i, tag in enumerate(header.subtask_tags)}
        self.ids, self.layers, self.domains, self.subtasks = (array("q") for _ in range(4))
        self.sims, self.pooled = array("d"), array("f")
        self.malformed, self.raw_names = {}, {}

    def add(self, obj):
        row, d = len(self.sims), self.header.hidden_dim
        problem = _value_problem(obj, d)
        if problem is None:
            try:
                self.pooled.extend(obj["pooled_out"])
            except (TypeError, OverflowError):
                del self.pooled[row * d:]
                problem = f"pooled_out: unexpected value {reprlib.repr(obj['pooled_out'])}"
        if problem is not None:
            self.malformed[row] = problem
            obj = dict(sample_id=0, layer=0, domain=None, subtask=None, sim=0.0)
            self.pooled.extend([0.0] * d)
        domain, subtask = self.dmap.get(obj["domain"], -1), self.tmap.get(obj["subtask"], -1)
        if problem is None and min(domain, subtask) < 0:
            self.raw_names[row] = (obj["domain"], obj["subtask"])
        self.ids.append(obj["sample_id"])
        self.layers.append(obj["layer"])
        self.domains.append(domain)
        self.subtasks.append(subtask)
        self.sims.append(obj["sim"])

    def table(self):
        header, d = self.header, self.header.hidden_dim
        table = ActivationTable(
            header=header, sample_id=np.array(self.ids, dtype=np.int64),
            layer=np.array(self.layers, dtype=np.int64),
            domain=np.array(self.domains, dtype=np.int64),
            subtask=np.array(self.subtasks, dtype=np.int64), sim=np.array(self.sims),
            pooled_out=np.frombuffer(self.pooled, dtype=np.float32).reshape(-1, d).copy())
        _check_rows(header, table, lambda i: f"line {i + 2}: ", self.malformed, self.raw_names)
        return table


def _value_problem(obj, hidden_dim):
    """Why a record's values other than pooled_out's entries have the wrong types, or None."""
    for key, types in _TYPES.items():
        value = obj[key]
        if type(value) not in types or (types == (int,) and value not in _INT64):
            return f"{key}: unexpected value {reprlib.repr(value)}"
    if len(obj["pooled_out"]) != hidden_dim:
        return f"pooled_out: unexpected value {reprlib.repr(obj['pooled_out'])}"
    return None


def write_log_path(header: LogHeader, table: ActivationTable, path) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        return write_log(header, table, fh)


def read_log_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_log(fh)
    except OSError as exc:
        raise SinkFailure(f"cannot read log {path}: {exc}") from exc


def log_to_bytes(header: LogHeader, table: ActivationTable) -> bytes:
    buf = io.StringIO()
    write_log(header, table, buf)
    return buf.getvalue().encode("utf-8")
