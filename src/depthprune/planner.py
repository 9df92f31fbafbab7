"""Budgeted prune-plan construction and serialization."""

import math
from dataclasses import dataclass

from .errors import (BudgetOutOfRange, LayerSetMismatch, SchemaViolation, check_distinct,
                     check_int, check_kinds, dump_json, is_fraction, is_int, is_number, load_json,
                     object_problem)
from .scoring import rank_order

METHODS = ("ours-math", "ours-nonmath", "ours-mixed", "cka", "interlace", "random")

DEFAULT_BUDGETS = (0.10, 0.25, 0.40)


# A plan file's only key list, in file order; each key is the name of a PrunePlan field.
_PLAN_KINDS = {
    "method": str, "alpha": lambda v: v is None or is_fraction(v), "budget_fraction": is_fraction,
    "k": int, "num_layers": int, "protected": (list, int), "pruned": (list, int),
    "scores": lambda v: v is None or (type(v) is dict and all(map(is_number, v.values()))),
    "seed": lambda v: v is None or is_int(v),
}


def budget_k(p: float, n_mid: int) -> int:
    """K = floor(p * n_mid), guarded against float representation of p."""
    if not is_fraction(p):
        raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {p!r}")
    if n_mid < 0:
        raise BudgetOutOfRange(f"n_mid must be >= 0, got {n_mid}")
    return int(math.floor(p * n_mid + 1e-9))


@dataclass(frozen=True)
class PrunePlan:
    method: str
    budget_fraction: float
    k: int
    num_layers: int
    protected: frozenset
    pruned: tuple          # rank order
    alpha: float = None    # ours-mixed only
    scores: dict = None    # layer -> justifying score
    seed: int = None       # random only

    def __post_init__(self):
        check_kinds(dict(_PLAN_KINDS, protected=frozenset, pruned=tuple), alpha=self.alpha,
                    scores=self.scores, seed=self.seed, protected=self.protected,
                    pruned=self.pruned)
        if self.method not in METHODS:
            raise SchemaViolation(f"method: unknown tag {self.method!r}")
        check_int(SchemaViolation, "num_layers", self.num_layers, 1)
        for p in self.protected:
            check_int(SchemaViolation, "protected", p, 0, self.num_layers)
        check_int(SchemaViolation, "k", self.k)
        n_mid = self.num_layers - len(self.protected)
        if self.k != budget_k(self.budget_fraction, n_mid):
            raise SchemaViolation(
                f"k: {self.k} != floor({self.budget_fraction} * {n_mid})")
        if len(self.pruned) != self.k:
            raise SchemaViolation(f"pruned: has {len(self.pruned)} layers but k = {self.k}")
        for layer in self.pruned:
            check_int(SchemaViolation, "pruned", layer, 0, self.num_layers)
            if layer in self.protected:
                raise SchemaViolation(f"pruned: layer {layer} is protected")
        check_distinct(SchemaViolation, "pruned", self.pruned)
        for layer in self.scores or ():
            check_int(SchemaViolation, "scores", layer, 0, self.num_layers)


def make_plan(scores, p: float, num_layers: int, protected, method: str,
              alpha: float = None) -> PrunePlan:
    """Truncate the descending order of ``scores`` to the budget K.

    scores is a {layer: score} map covering exactly the pruneable set;
    alpha is recorded in the plan (ours-mixed only).
    """
    protected = frozenset(protected)
    scores = dict(scores)
    l_mid = frozenset(range(num_layers)) - protected
    if set(scores) != l_mid:
        raise LayerSetMismatch(
            f"ranking covers {sorted(scores)}, pruneable set is {sorted(l_mid)}")
    k = budget_k(p, len(l_mid))
    order = rank_order(scores)
    return PrunePlan(method=method, budget_fraction=p, k=k, num_layers=num_layers,
                     protected=protected, pruned=order[:k], alpha=alpha, scores=scores)


def serialize_plan(plan: PrunePlan) -> str:
    obj = {key: getattr(plan, key) for key in _PLAN_KINDS}
    obj["protected"] = sorted(plan.protected)
    if plan.scores is not None:
        obj["scores"] = {str(l): plan.scores[l] for l in sorted(plan.scores)}
    return dump_json(obj, "plan") + "\n"


def parse_plan(text) -> PrunePlan:
    obj = load_json(text, SchemaViolation, "plan: invalid JSON")
    problem = object_problem(obj, _PLAN_KINDS, "plan")
    if problem is not None:
        raise SchemaViolation(f"plan: {problem}")
    scores = obj["scores"]
    if scores is not None:
        for key in scores:  # only the form serialize_plan writes, str(layer)
            if not key.removeprefix("-").isdecimal() or str(int(key)) != key:
                raise SchemaViolation(f"plan: scores: key {key!r} is not a layer index")
        scores = {int(key): s for key, s in scores.items()}
    return PrunePlan(**dict(obj, protected=frozenset(obj["protected"]),
                            pruned=tuple(obj["pruned"]), scores=scores))
