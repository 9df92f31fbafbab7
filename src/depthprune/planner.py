"""Budgeted prune-plan construction and serialization."""

import math
from dataclasses import dataclass

from .errors import (BudgetOutOfRange, SchemaViolation, check_distinct, check_fraction, check_int,
                     check_kinds, dump_json, is_fraction, is_int, is_number, load_json,
                     object_problem, show)

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
    check_fraction(BudgetOutOfRange, "budget fraction", p)
    check_int(BudgetOutOfRange, "n_mid", n_mid, 0)
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
                f"k: {show(self.k)} != floor({self.budget_fraction} * {show(n_mid)})")
        if len(self.pruned) != self.k:
            raise SchemaViolation(f"pruned: has {len(self.pruned)} layers but k = {show(self.k)}")
        for layer in self.pruned:
            check_int(SchemaViolation, "pruned", layer, 0, self.num_layers)
            if layer in self.protected:
                raise SchemaViolation(f"pruned: layer {layer} is protected")
        check_distinct(SchemaViolation, "pruned", self.pruned)
        for layer in self.scores or ():
            check_int(SchemaViolation, "scores", layer, 0, self.num_layers)


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
    check_distinct(SchemaViolation, "plan: protected", obj["protected"])
    scores = obj["scores"]
    if scores is not None:
        for key in scores:  # only the form serialize_plan writes, str(layer)
            if not key.removeprefix("-").isdecimal() or str(int(key)) != key:
                raise SchemaViolation(f"plan: scores: key {key!r} is not a layer index")
        scores = {int(key): s for key, s in scores.items()}
    return PrunePlan(**dict(obj, protected=frozenset(obj["protected"]),
                            pruned=tuple(obj["pruned"]), scores=scores))
