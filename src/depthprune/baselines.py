"""Comparison rankers: linear-CKA adjacency, triplet interlacing, random.

All three consume the activation table from the log, reuse only pooled
output vectors and stored similarities, and respect the protected
endpoint set: CKA and interlace rank the pruneable layers of the table's
header, and ``random_plan`` draws from the pruneable layers it is given.
"""

import numpy as np

from .errors import (BudgetInfeasible, DegenerateFeatures, InvalidConfig, LayerSetMismatch,
                     MissingSubtask, check_distinct, check_int, is_int, show)
from .linalg import center_rows, token_cosine_mean
from .planner import PrunePlan
from .rng import SeededStream


def feature_matrices(table) -> dict:
    """Per-layer (subtasks, d) matrices: row i is the mean pooled_out of header subtask i."""
    means = []
    for i, tag in enumerate(table.header.subtask_tags):
        rows = table.subtask == i
        if not rows.any():
            raise MissingSubtask(f"no records for subtask {tag!r}")
        # a float64 mean over the rows adds each entry in sample order, as a per-record loop would
        means.append(table.pooled_out[rows].mean(axis=0, dtype=np.float64))
    return dict(enumerate(np.stack(means, axis=1)))  # layer -> (subtasks, d)


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA of two (n, d) feature matrices after column centering."""
    xc = center_rows(x)
    yc = center_rows(y)
    denom_x = np.linalg.norm(xc.T @ xc)
    denom_y = np.linalg.norm(yc.T @ yc)
    if denom_x == 0.0 or denom_y == 0.0:
        raise DegenerateFeatures("centered feature matrix has zero Frobenius norm")
    num = np.linalg.norm(xc.T @ yc) ** 2
    return float(num / (denom_x * denom_y))


def cka_rank(table) -> dict:
    """Adjacent-layer CKA redundancy; high CKA(l, l+1) marks l+1 pruneable.

    Returns {pruneable layer l of the header: CKA(X_{l-1}, X_l)}; a degenerate
    (zero-spread) feature pair scores 0.0.  Layer 0 has no layer before it,
    so a header that leaves it pruneable raises ``LayerSetMismatch``.
    """
    if 0 in table.header.pruneable:
        raise LayerSetMismatch("layer 0 is pruneable, but cka scores layer l by CKA(l - 1, l): "
                               "it needs layer 0 protected")
    features = feature_matrices(table)
    redundancy = {}
    for later in table.header.pruneable:
        try:
            redundancy[later] = linear_cka(features[later - 1], features[later])
        except DegenerateFeatures:
            redundancy[later] = 0.0
    return redundancy


def _inout_redundancy(table) -> dict:
    """Domain-agnostic per-layer mean of stored in/out similarities."""
    return dict(enumerate(table.sim.mean(axis=0).tolist()))


def interlace_solution(table, k: int):
    """Solve the triplet selection; returns (pruned, anchors, inout).

    Triplets (l, l+1, l+2) over the header's pruneable layers are scored by
    the mean of the two adjacent similarities, accepted greedily under a
    strict non-overlap constraint, and each accepted triplet removes the more
    redundant of its first two layers while keeping l+2 as an anchor.
    If non-overlapping triplets cannot cover the budget, remaining removals
    are filled from the highest in/out-redundancy layers subject to the
    >= 2 spacing constraint and anchor preservation; if that still falls
    short, the budget is infeasible.
    """
    pruneable = table.header.pruneable
    if k > len(pruneable):
        raise BudgetInfeasible(f"k = {k} exceeds pruneable count {len(pruneable)}")
    features = feature_matrices(table)
    # S_l = mean over the subtask rows of cosine(row_l, row_{l+1})
    sims = {l: token_cosine_mean(features[l], features[l + 1])
            for l in pruneable if l + 1 in features}
    inout = _inout_redundancy(table)

    # a triplet's l + 1 has a sim when it is pruneable and l + 2 is a layer
    triplets = [((sims[l] + sims[l + 1]) / 2.0, l) for l in pruneable if l + 1 in sims]
    # descending score; equal scores favor the earlier start
    triplets.sort(key=lambda t: (-t[0], t[1]))

    used = set()
    anchors = set()
    pruned = []
    for _, l in triplets:
        if len(pruned) >= k:
            break
        members = {l, l + 1, l + 2}
        if members & used:
            continue
        used |= members
        anchors.add(l + 2)
        # remove the more redundant of l / l+1; ties remove l+1
        if inout[l] > inout[l + 1]:
            pruned.append(l)
        else:
            pruned.append(l + 1)

    if len(pruned) < k:
        candidates = sorted((l for l in pruneable if l not in pruned and l not in anchors),
                            key=lambda l: (-inout[l], -l))
        for l in candidates:
            if len(pruned) >= k:
                break
            if all(abs(l - q) >= 2 for q in pruned):
                pruned.append(l)

    if len(pruned) < k:
        raise BudgetInfeasible(
            f"interlace can supply only {len(pruned)} spaced removals for budget {k}")
    return tuple(pruned), frozenset(anchors), inout


def interlace_plan(table, k: int, budget_fraction: float) -> PrunePlan:
    """Triplet-based spaced pruning; see interlace_solution for the rules."""
    header = table.header
    pruned, _, inout = interlace_solution(table, k)
    return PrunePlan(method="interlace", budget_fraction=budget_fraction, k=k,
                     num_layers=header.num_layers, protected=header.protected_layers,
                     pruned=pruned, scores={l: inout[l] for l in header.pruneable})


def random_plan(pruneable, k: int, seed: int, num_layers: int) -> PrunePlan:
    """k distinct layers drawn uniformly without replacement, seeded: the first k of one order.

    ``pruneable`` is one or more distinct layers in [0, num_layers), checked before the draw.
    """
    if not is_int(seed):
        raise InvalidConfig(f"method random requires a seed (an integer), got {show(seed)}")
    check_int(LayerSetMismatch, "num_layers", num_layers, 1)
    pruneable = list(pruneable)
    if not pruneable:
        raise LayerSetMismatch("pruneable: no layer to draw from")
    for layer in pruneable:
        check_int(LayerSetMismatch, "pruneable", layer, 0, num_layers)
    check_distinct(LayerSetMismatch, "pruneable", pruneable)
    pruneable.sort()
    if k > len(pruneable):
        raise BudgetInfeasible(f"k = {k} exceeds pruneable count {len(pruneable)}")
    stream = SeededStream(seed)
    pruned = stream.sample_without_replacement(pruneable, k)
    protected = frozenset(range(num_layers)) - frozenset(pruneable)
    return PrunePlan(method="random", budget_fraction=k / len(pruneable), k=k,
                     num_layers=num_layers, protected=protected,
                     pruned=tuple(pruned), seed=seed)
