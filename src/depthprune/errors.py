"""Typed errors for the depth-pruning toolkit, and the value rules they enforce.

Every error carries an ``exit_code`` used by the CLI: 1 for validation
problems (bad input, schema, config), 2 for runtime failures (I/O).
``is_int``, ``is_number`` (an integer or a finite float) and ``is_fraction``
(a number in [0, 1]) are the only rules for a valid integer, number and
fraction; none takes a ``bool``.
``check_int``, ``check_fraction`` and ``check_distinct`` word each fault once;
``kind_problem``, ``check_kinds`` and ``object_problem`` apply the kind rules
of each on-disk record, to a file's keys and to a record's fields alike.
``show`` writes a value into a message, an over-long integer too.
``load_json`` and ``dump_json`` are the only JSON decode and encode.
"""

import json
import math
import sys


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    # only a float is tested for finiteness: math.isfinite overflows on a huge int
    return is_int(value) or isinstance(value, float) and math.isfinite(value)


def is_fraction(value) -> bool:
    return is_number(value) and 0 <= value <= 1


def show(value) -> str:
    """``repr(value)``, or what it is when it holds an integer too long for ``repr``.

    ``repr`` refuses an integer of more than ``sys.get_int_max_str_digits()``
    digits with a plain ``ValueError``, so no message may hold one.
    """
    try:
        return repr(value)
    except ValueError:
        what = "an integer" if is_int(value) else f"a {type(value).__name__} holding an integer"
        return f"<{what} of over {sys.get_int_max_str_digits()} digits>"


def check_int(error, name, value, low=None, high=None, written=False):
    """Raise ``error`` naming ``name`` unless ``value`` is an integer in [low, high), type first."""
    if not is_int(value):
        raise error(f"{name}: {show(value)} is not an integer")
    if high is not None and not low <= value < high:
        raise error(f"{name}: {show(value)} outside [{low}, {show(high)})")
    if low is not None and value < low:
        raise error(f"{name}: must be >= {low}, got {show(value)}")
    # ``written``: an output holds it, so str must take it; show writes "<...>" for one it cannot
    if written and show(value).startswith("<"):
        raise error(f"{name}: {show(value)} is too long to write")


def check_fraction(error, name, value):
    if not is_fraction(value):
        raise error(f"{name} must be in [0, 1], got {show(value)}")


def check_distinct(error, name, values):
    """Raise ``error`` naming the first entry of ``values`` that repeats an earlier one.

    Entries must be hashable: each is looked up in a set of those before it.
    """
    seen = set()
    for value in values:
        if value in seen:
            raise error(f"{name}: {show(value)} is listed twice")
        seen.add(value)


def kind_problem(kinds, values, sequence=list):
    """Why the first of ``values`` (key -> value) is not of its kind in ``kinds``, or None.

    A kind is an exact type (a JSON true is no int), ``(list, t)`` or a
    predicate.  A JSON list is a ``list``; a record holds it as a ``tuple``.
    """
    for key, value in values.items():
        kind = kinds[key]
        if isinstance(kind, tuple):
            ok = type(value) is sequence and all(type(v) is kind[1] for v in value)
        else:
            ok = type(value) is kind if isinstance(kind, type) else kind(value)
        if not ok:
            return f"{key}: unexpected value {show(value):.60}"
    return None


def check_kinds(kinds, **values):
    """Raise SchemaViolation, in the reader's words, for a record field not of its kind."""
    problem = kind_problem(kinds, values, tuple)
    if problem is not None:
        raise SchemaViolation(problem)


def object_problem(obj, kinds, what):
    """Why JSON ``obj`` is not an object with exactly the keys of ``kinds``, each of its kind."""
    if not isinstance(obj, dict):
        return f"{what} is not an object"
    unknown, missing = set(obj) - kinds.keys(), kinds.keys() - set(obj)
    if unknown:
        return f"unknown {what} key {sorted(unknown)[0]!r}"
    if missing:
        return f"missing {what} key {sorted(missing)[0]!r}"
    return kind_problem(kinds, {key: obj[key] for key in kinds})


def _distinct_keys(pairs):
    check_distinct(ValueError, "key", (key for key, _ in pairs))
    return dict(pairs)


def load_json(text, error, what):
    """``json.loads(text)``; any ValueError (a decode fault, a repeated key, or an integer literal
    longer than ``sys.get_int_max_str_digits()``) raises ``error("<what> (<reason>)")``."""
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys)
    except ValueError as exc:
        raise error(f"{what} ({getattr(exc, 'msg', exc)})") from exc


def dump_json(obj, what):
    """The compact JSON text of ``obj``; an integer too long to write raises SinkFailure."""
    try:
        return json.dumps(obj, separators=(",", ":"))
    except ValueError as exc:
        raise SinkFailure(f"cannot write {what}: {exc}") from exc


class DepthPruneError(Exception):
    exit_code = 1


# core math
class ZeroNormInput(DepthPruneError):
    """A vector with norm below the degeneracy threshold reached a cosine."""


class EmptyInput(DepthPruneError):
    pass


# activation log
class SchemaViolation(DepthPruneError):
    pass


class SinkFailure(DepthPruneError):
    exit_code = 2


class TruncatedFile(DepthPruneError):
    exit_code = 2


# toy model
class InvalidConfig(DepthPruneError):
    pass


class SequenceTooLong(DepthPruneError):
    pass


class PlanModelMismatch(DepthPruneError):
    pass


class UnknownDomain(DepthPruneError):
    pass


# scoring
class AlphaOutOfRange(DepthPruneError):
    pass


class LayerSetMismatch(DepthPruneError):
    pass


# baselines
class MissingSubtask(DepthPruneError):
    pass


class DegenerateFeatures(DepthPruneError):
    pass


class BudgetInfeasible(DepthPruneError):
    pass


# planner
class BudgetOutOfRange(DepthPruneError):
    pass


# evaluation
class ModelMismatch(DepthPruneError):
    pass


class InconsistentDepth(DepthPruneError):
    pass
