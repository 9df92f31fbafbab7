"""Typed errors for the depth-pruning toolkit, and the value rules they enforce.

Every error carries an ``exit_code`` used by the CLI: 1 for validation
problems (bad input, schema, config), 2 for runtime failures (I/O).
``is_int``, ``is_number`` and ``is_fraction`` (a number in [0, 1]) are the
only rules for a valid integer, number and fraction; none takes a ``bool``.
"""


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_fraction(value) -> bool:
    return is_number(value) and 0 <= value <= 1


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
