"""Typed errors for the depth-pruning toolkit, and the value rules they enforce.

Every error carries an ``exit_code`` used by the CLI: 1 for validation
problems (bad input, schema, config), 2 for runtime failures (I/O).
``is_int``, ``is_number`` and ``is_fraction`` (a number in [0, 1]) are the
only rules for a valid integer, number and fraction; none takes a ``bool``.
``check_int`` and ``check_distinct`` word each integer and repeat fault once.
"""


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_fraction(value) -> bool:
    return is_number(value) and 0 <= value <= 1


def check_int(error, name, value, low=None, high=None):
    """Raise ``error`` naming ``name`` unless ``value`` is an integer in [low, high), type first."""
    if not is_int(value):
        raise error(f"{name}: {value!r} is not an integer")
    if high is not None and not low <= value < high:
        raise error(f"{name}: {value} outside [{low}, {high})")
    if low is not None and value < low:
        raise error(f"{name}: must be >= {low}, got {value}")


def check_distinct(error, name, values):
    """Raise ``error`` naming the first entry of ``values`` that repeats an earlier one."""
    values = list(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise error(f"{name}: {value!r} is listed twice")


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
