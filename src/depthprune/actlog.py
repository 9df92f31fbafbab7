"""Activation-log file format and the activation table it holds.

UTF-8 text of ``\n``-terminated JSON lines.  Line 1 is the header object.
Then come exactly one line per table column, in ``_COLUMNS`` order: an
object whose one key is the column name and whose value is the base64 of
the column's little-endian bytes.  ``subtask`` holds one index into
``header.subtask_tags`` per sample; ``sim`` and ``pooled_out`` hold the
table's (samples, layers) and (samples, layers, hidden_dim) grids flattened,
sample-major over every layer, stored as float32, so a log round-trips bit
for bit.  A log holds at least one sample.
"""

import base64
import os
from dataclasses import dataclass

import numpy as np

from .errors import (SchemaViolation, SinkFailure, TruncatedFile, check_distinct, check_int,
                     check_kinds, dump_json, load_json, object_problem, show)

SCHEMA_VERSION = 4

_COLUMNS = (("subtask", "<i8"), ("sim", "<f4"), ("pooled_out", "<f4"))
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
            raise SchemaViolation(f"schema_version: unsupported value {show(self.schema_version)}"
                                  f" (this reader reads {SCHEMA_VERSION})")
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
    """A samples × layers grid over every layer of its header; it checks itself when built.

    It holds read-only views of its arrays, so no edit through the table
    skips the check; ``dataclasses.replace`` builds, and checks, a new one.
    """
    header: LogHeader
    subtask: np.ndarray     # int64 (n,), index into header.subtask_tags
    sim: np.ndarray         # float64 (n, num_layers)
    pooled_out: np.ndarray  # float32 (n, num_layers, hidden_dim)

    def __post_init__(self):
        """Raise SchemaViolation for a column of the wrong kind, then the table's other faults.

        ``subtask`` must be an integer array, ``sim`` and ``pooled_out`` real
        floating ones.  A table with no samples is refused next, so no
        per-layer work follows for a header that only declares its layers.
        Values are checked in column order, and the earliest bad one is named
        by its sample (a subtask) or record (a sim or pooled output at cell
        (s, l) is record s·num_layers + l).  Each domain must hold as many
        samples as its header ``sample_count`` declares.
        """
        for name, kind in (("subtask", np.integer), ("sim", np.floating),
                           ("pooled_out", np.floating)):
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and np.issubdtype(column.dtype, kind)):
                got = column.dtype if isinstance(column, np.ndarray) else type(column).__name__
                raise SchemaViolation(f"{name}: not an array of {kind.__name__} values ({got})")
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        header, n = self.header, len(self.subtask)
        if n == 0:
            raise SchemaViolation("no samples: a log holds at least one")
        grid = (n, header.num_layers)
        if self.sim.shape != grid or self.pooled_out.shape != grid + (header.hidden_dim,):
            raise SchemaViolation(f"sim {self.sim.shape} and pooled_out {self.pooled_out.shape}: "
                                  f"not the shapes of {n} samples")
        faults = (("sample", (self.subtask < 0) | (self.subtask >= len(header.subtask_tags)),
                   lambda i: f"subtask: unknown tag {self.subtask[i]}"),
                  ("record", ~((self.sim >= -1.0) & (self.sim <= 1.0)),
                   lambda i: f"sim: {float(self.sim.flat[i])} outside [-1, 1]"),
                  ("record", ~np.isfinite(self.pooled_out).all(axis=2),
                   lambda i: "pooled_out: non-finite entry"))
        for unit, mask, message in faults:
            if mask.any():
                i = int(np.argmax(mask))  # of the flattened mask: sample-major, as the log is
                raise SchemaViolation(f"{unit} {i}: {message(i)}")
        held = np.bincount(self.domain, minlength=len(header.domains))
        for info, count in zip(header.domains, held.tolist()):
            if count != info.sample_count:
                raise SchemaViolation(f"domains: {info.domain!r} declares sample_count "
                                      f"{info.sample_count}, but its records hold {count} samples")

    def __len__(self) -> int:
        return self.sim.size

    @property
    def domain(self) -> np.ndarray:  # int64 (n,), the domain declaring each sample's subtask
        sizes = [len(d.subtasks) for d in self.header.domains]
        return np.repeat(np.arange(len(sizes)), sizes)[self.subtask]


def _header_to_json(header: LogHeader) -> str:
    obj = {key: getattr(header, key) for key in _HEADER_KINDS}
    obj["protected_layers"] = sorted(header.protected_layers)
    obj["domains"] = [{key: getattr(d, key) for key in _DOMAIN_KINDS} for d in header.domains]
    return dump_json(obj, "log header")


def write_log(table: ActivationTable, destination):
    """Write the table (checked when built) and its header to a text sink.

    Each column's bytes are encoded and written ``_PIECE`` bytes at a time,
    so no whole-column copy of its bytes (for a column already in its file
    dtype) or of its base64 text is made.  The line equals the compact
    ``json.dumps`` of ``{name: base64}``: a column name and the base64
    alphabet need no JSON escape.
    """
    try:
        destination.write(_header_to_json(table.header) + "\n")
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


def _parse_header(line: str) -> LogHeader:
    obj = load_json(line, SchemaViolation, "line 1: invalid header")
    problem = object_problem(obj, _HEADER_KINDS, "header")
    for d in obj["domains"] if problem is None else ():
        problem = problem or object_problem(d, _DOMAIN_KINDS, "domain")
    if problem is not None:
        raise SchemaViolation(f"line 1: {problem}")
    check_distinct(SchemaViolation, "line 1: protected_layers", obj["protected_layers"])
    domains = tuple(DomainInfo(**dict(d, subtasks=tuple(d["subtasks"]))) for d in obj["domains"])
    return LogHeader(**dict(obj, protected_layers=frozenset(obj["protected_layers"]),
                            domains=domains))


def _read_line(source, lineno):
    line = source.readline()
    if not line.endswith("\n"):
        raise TruncatedFile(f"line {lineno}: {'unterminated' if line else 'missing'}")
    return line


def _parse_column(line, lineno, name, dtype):
    """The values of column ``name`` from its log line, an array over its decoded bytes."""
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
    return np.frombuffer(data, dtype=dtype)


def read_log(source):
    """Read and validate an activation log; returns its table.

    A fault in a line's form names the line (``line N: ...``), such as a
    column length the header's sizes do not give; an invalid value names its
    sample or record (``sample i: ...``, ``record i: ...``); and a missing or
    unterminated line raises ``TruncatedFile``.
    """
    header = _parse_header(_read_line(source, 1))
    columns = {name: _parse_column(_read_line(source, lineno), lineno, name, dtype)
               for lineno, (name, dtype) in enumerate(_COLUMNS, start=2)}
    if source.readline():
        raise SchemaViolation(f"line {len(_COLUMNS) + 2}: content after the last column")
    n, d = len(columns["subtask"]), header.hidden_dim
    rows = n * header.num_layers
    for lineno, name, expected in ((3, "sim", rows), (4, "pooled_out", rows * d)):
        if len(columns[name]) != expected:
            raise SchemaViolation(f"line {lineno}: {name}: {len(columns[name])} values, "
                                  f"expected {expected} for {n} samples")
    columns["sim"] = columns["sim"].astype(np.float64).reshape(n, header.num_layers)
    columns["pooled_out"] = columns["pooled_out"].reshape(n, header.num_layers, d)
    return ActivationTable(header=header, **columns)


# ``path`` is keyword-only: bench/tracer.py reads it as the third positional argument or by name
def write_log_path(table: ActivationTable, *, path):
    """``write_log`` into the file ``path``."""
    write_path(path, "log", lambda fh: write_log(table, fh))


def write_path(path, what, write):
    """``write`` of the UTF-8 text file ``path``, its directory made first if missing."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
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
