"""Activation-log file format and the activation table it holds.

UTF-8 text of ``\n``-terminated JSON lines.  Line 1 is the header object.
Then come exactly one line per table column, in ``_COLUMNS`` order: an
object whose one key is the column name and whose value is the base64 of
the column's little-endian bytes.  ``domain`` and ``subtask`` are indices
into ``header.domains`` and ``header.subtask_tags``; sims and pooled
outputs are stored as float32, so a log round-trips bit for bit.
"""

import base64
import os
from dataclasses import dataclass

import numpy as np

from .errors import (SchemaViolation, SinkFailure, TruncatedFile, check_distinct, check_int,
                     check_kinds, dump_json, load_json, object_problem)

SCHEMA_VERSION = 3

_COLUMNS = (("sample_id", "<i8"), ("layer", "<i8"), ("domain", "<i8"), ("subtask", "<i8"),
            ("sim", "<f4"), ("pooled_out", "<f4"))
# Bytes of a column encoded at a time.  A multiple of 3, so each piece's base64
# has no padding and the pieces' base64 joins into the whole column's.
_PIECE = 3 * 16384
# The only key lists of a header and a domain, in file order; each key names a field.
_HEADER_KINDS = {"schema_version": int, "model_id": str, "num_layers": int, "hidden_dim": int,
                 "protected_layers": (list, int), "domains": list}
_DOMAIN_KINDS = {"domain": str, "subtasks": (list, str), "sample_count": int}


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

    def __post_init__(self):
        # a record holds a JSON list as a tuple, and the protected layers as a frozenset
        check_kinds(dict(_HEADER_KINDS, protected_layers=frozenset, domains=(list, DomainInfo)),
                    model_id=self.model_id, protected_layers=self.protected_layers,
                    domains=self.domains)
        for d in self.domains:
            check_kinds(_DOMAIN_KINDS, domain=d.domain, subtasks=d.subtasks)
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaViolation(f"schema_version: unsupported value {self.schema_version} "
                                  f"(this reader reads {SCHEMA_VERSION})")
        check_int(SchemaViolation, "num_layers", self.num_layers, 1)
        check_int(SchemaViolation, "hidden_dim", self.hidden_dim, 1)
        for p in self.protected_layers:
            check_int(SchemaViolation, "protected_layers", p, 0, self.num_layers)
        if len(self.protected_layers) >= self.num_layers:  # distinct and in range, so all
            raise SchemaViolation(f"protected_layers: all {self.num_layers} layers are protected, "
                                  "so no layer is pruneable")
        check_distinct(SchemaViolation, "domains", (d.domain for d in self.domains))
        for d in self.domains:
            check_int(SchemaViolation, "domains: sample_count", d.sample_count, 0)
        check_distinct(SchemaViolation, "domains: subtasks",
                       (tag for d in self.domains for tag in d.subtasks))

    @property
    def pruneable(self) -> tuple:
        """The layers not protected, in ascending order."""
        return tuple(sorted(set(range(self.num_layers)) - self.protected_layers))

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
    obj = {key: getattr(header, key) for key in _HEADER_KINDS}
    obj["protected_layers"] = sorted(header.protected_layers)
    obj["domains"] = [{key: getattr(d, key) for key in _DOMAIN_KINDS} for d in header.domains]
    return dump_json(obj, "log header")


def _check_rows(header, table):
    """Raise SchemaViolation for the earliest invalid record, then for a miscounted domain.

    Checks are listed in the order one record is checked, so a record with
    several faults reports the first.  Each domain's records must hold as
    many distinct samples as its header ``sample_count`` declares.
    """
    tags, n, d, pooled = header.subtask_tags, len(table), header.hidden_dim, table.pooled_out
    allowed = np.zeros((len(header.domains) + 1, len(tags) + 1), dtype=bool)  # last: unknown
    for i, info in enumerate(header.domains):
        allowed[i, [tags.index(tag) for tag in info.subtasks]] = True
    known = (table.domain >= 0) & (table.domain < len(header.domains))
    subtask = np.where((table.subtask >= 0) & (table.subtask < len(tags)), table.subtask, -1)
    dim_ok = pooled.shape[1:] == (d,)
    repeat, seen = np.zeros(n, dtype=bool), set()
    for i, pair in enumerate(zip(table.sample_id.tolist(), table.layer.tolist())):
        repeat[i] = pair in seen
        seen.add(pair)
    checks = [
        ((table.layer < 0) | (table.layer >= header.num_layers),
         lambda i: f"layer: {table.layer[i]} outside [0, {header.num_layers})"),
        (~known, lambda i: f"domain: unknown tag {table.domain[i]}"),
        (known & ~allowed[np.where(known, table.domain, -1), subtask],
         lambda i: f"subtask: {tags[subtask[i]] if subtask[i] >= 0 else int(table.subtask[i])!r} "
                   f"not declared for domain {header.domains[table.domain[i]].domain!r}"),
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
        raise SchemaViolation(f"record {i}: {checks[k][1](i)}")
    for i, info in enumerate(header.domains):
        held = len(set(table.sample_id[table.domain == i].tolist()))
        if held != info.sample_count:
            raise SchemaViolation(f"domains: {info.domain!r} declares sample_count "
                                  f"{info.sample_count}, but its records hold {held} samples")


def write_log(header: LogHeader, table: ActivationTable, destination) -> int:
    """Validate the table, then write header and columns to a text sink; returns record count.

    Each column's bytes are encoded and written ``_PIECE`` bytes at a time,
    so no whole-column copy of its bytes (for a column already in its file
    dtype) or of its base64 text is made.  The line equals the compact
    ``json.dumps`` of ``{name: base64}``: a column name and the base64
    alphabet need no JSON escape.
    """
    _check_rows(header, table)
    try:
        destination.write(_header_to_json(header) + "\n")
        for name, dtype in _COLUMNS:
            data = np.ascontiguousarray(getattr(table, name), dtype=dtype)
            data = data.reshape(-1).view(np.uint8)
            destination.write(f'{{"{name}":"')
            for lo in range(0, len(data), _PIECE):
                destination.write(base64.b64encode(data[lo:lo + _PIECE]).decode("ascii"))
            destination.write('"}\n')
        destination.flush()
    except OSError as exc:
        raise SinkFailure(f"I/O failure while writing log: {exc}") from exc
    return len(table)


def _parse_header(line: str) -> LogHeader:
    obj = load_json(line, SchemaViolation, "line 1: invalid header")
    problem = object_problem(obj, _HEADER_KINDS, "header")
    for d in obj["domains"] if problem is None else ():
        problem = problem or object_problem(d, _DOMAIN_KINDS, "domain")
    if problem is not None:
        raise SchemaViolation(f"line 1: {problem}")
    domains = tuple(DomainInfo(**dict(d, subtasks=tuple(d["subtasks"]))) for d in obj["domains"])
    return LogHeader(**dict(obj, protected_layers=frozenset(obj["protected_layers"]),
                            domains=domains))


def _read_line(source, lineno):
    line = source.readline()
    if not line.endswith("\n"):
        raise TruncatedFile(f"line {lineno}: {'unterminated' if line else 'missing'}")
    return line


def _parse_column(line, lineno, name, dtype):
    """The values of column ``name`` from its log line, as a writable array."""
    obj = load_json(line, SchemaViolation, f"line {lineno}: invalid column")
    problem = object_problem(obj, {name: str}, "column")
    if problem is None:
        try:
            data = base64.b64decode(obj[name], validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            problem = f"{name}: unexpected value {obj[name]!r:.60} (invalid base64: {exc})"
    if problem is None and len(data) % np.dtype(dtype).itemsize:
        problem = f"{name}: {len(data)} bytes is not a whole number of {dtype} values"
    if problem is not None:
        raise SchemaViolation(f"line {lineno}: {problem}")
    return np.frombuffer(data, dtype=dtype).copy()


def read_log(source):
    """Read and validate an activation log; returns (header, table).

    A fault in a line's form names the line (``line N: ...``), an invalid
    value names its record (``record i: ...``), and a missing or
    unterminated line raises ``TruncatedFile``.
    """
    header = _parse_header(_read_line(source, 1))
    columns = {name: _parse_column(_read_line(source, lineno), lineno, name, dtype)
               for lineno, (name, dtype) in enumerate(_COLUMNS, start=2)}
    if source.readline():
        raise SchemaViolation(f"line {len(_COLUMNS) + 2}: content after the last column")
    n, d = len(columns["sample_id"]), header.hidden_dim
    for lineno, (name, _) in enumerate(_COLUMNS, start=2):
        expected = n * d if name == "pooled_out" else n
        if len(columns[name]) != expected:
            raise SchemaViolation(f"line {lineno}: {name}: {len(columns[name])} values, "
                                  f"expected {expected} for {n} records")
    columns["sim"] = columns["sim"].astype(np.float64)
    columns["pooled_out"] = columns["pooled_out"].reshape(n, d)
    table = ActivationTable(header=header, **columns)
    _check_rows(header, table)
    return header, table


def write_log_path(header: LogHeader, table: ActivationTable, path) -> int:
    return write_path(path, "log", lambda fh: write_log(header, table, fh))


def write_path(path, what, write):
    """``write`` of the UTF-8 text file ``path``, its directory made first if missing."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            return write(fh)
    except OSError as exc:
        raise SinkFailure(f"cannot write {what} {path}: {exc}") from exc


def read_path(path, what, malformed, parse):
    """``parse`` of the open UTF-8 text file; text that does not decode raises ``malformed``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise SinkFailure(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise malformed(
            f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_log_path(path):
    return read_path(path, "log", SchemaViolation, read_log)
