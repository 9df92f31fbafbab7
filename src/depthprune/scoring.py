"""Domain-aware redundancy scoring.

Pipeline: per-domain mean of per-sample in/out similarities, z-normalization
across the pruneable layer set, and an alpha-mixed ranking combining the
normalized non-math and math scores.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlphaOutOfRange, EmptyInput, LayerSetMismatch, check_fraction

EPSILON = 1e-8

DEFAULT_ALPHA = 0.7


@dataclass(frozen=True)
class DomainScoreTable:
    domain: str
    raw: dict            # layer -> mean similarity over the domain's samples
    sample_count: int
    mu: float = 0.0
    sigma: float = 0.0
    normalized: dict = None


@dataclass(frozen=True)
class MixedRanking:
    scores: dict         # layer -> combined score
    order: tuple         # layers sorted by score desc, ties to higher index


def rank_order(scores: dict) -> tuple:
    """Descending score order; equal scores put the deeper layer first."""
    return tuple(sorted(scores, key=lambda l: (-scores[l], -l)))


def aggregate_domain(table, domain: str) -> DomainScoreTable:
    """Mean per-sample similarity per pruneable layer of the header, subtasks merged flat."""
    names = [d.domain for d in table.header.domains]
    in_domain = table.domain == (names.index(domain) if domain in names else -1)
    if not in_domain.any():
        raise EmptyInput(f"no records for domain {domain!r}")
    # a mean over the rows adds each layer's sims in sample order, as a per-record loop would
    means = table.sim[in_domain].mean(axis=0)
    raw = {l: float(means[l]) for l in table.header.pruneable}
    return DomainScoreTable(domain=domain, raw=raw, sample_count=int(np.count_nonzero(in_domain)))


def znormalize(table: DomainScoreTable) -> DomainScoreTable:
    """Fill mu/sigma (population stats over the pruneable set) and normalized scores."""
    values = np.array([table.raw[l] for l in sorted(table.raw)], dtype=np.float64)
    mu = float(values.mean())
    # population stdev: stats over a fixed layer set.  Equal values have no spread,
    # though the rounding in their mean can make std() a few ulps above 0.
    sigma = float(values.std()) if values.max() > values.min() else 0.0
    if sigma == 0.0:
        normalized = {l: 0.0 for l in table.raw}
    else:
        normalized = {l: (table.raw[l] - mu) / (sigma + EPSILON) for l in table.raw}
    return replace(table, mu=mu, sigma=sigma, normalized=normalized)


def mixed_ranking(math_table: DomainScoreTable, nonmath_table: DomainScoreTable,
                  alpha: float) -> MixedRanking:
    """R_l = alpha * nonmath + (1 - alpha) * math over normalized scores."""
    check_fraction(AlphaOutOfRange, "alpha", alpha)
    if math_table.normalized is None or nonmath_table.normalized is None:
        raise LayerSetMismatch("both tables must be normalized before mixing")
    if set(math_table.normalized) != set(nonmath_table.normalized):
        raise LayerSetMismatch("math and nonmath tables cover different layer sets")
    scores = {l: alpha * nonmath_table.normalized[l] + (1.0 - alpha) * math_table.normalized[l]
              for l in math_table.normalized}
    return MixedRanking(scores=scores, order=rank_order(scores))


@dataclass(frozen=True)
class HeatmapMatrix:
    subtasks: tuple
    layers: tuple
    values: np.ndarray   # (num_subtasks, num_layers) mean sims

    def to_csv(self) -> str:
        lines = ["subtask," + ",".join(f"layer_{l}" for l in self.layers)]
        for i, tag in enumerate(self.subtasks):
            lines.append(tag + "," + ",".join(repr(float(v)) for v in self.values[i]))
        return "\n".join(lines) + "\n"


def heatmap_matrix(table) -> HeatmapMatrix:
    """Mean in/out similarity per (subtask, layer) over all samples.

    Rows follow each subtask's first appearance in the table, columns the
    layers in order.
    """
    codes = list(dict.fromkeys(table.subtask.tolist()))  # in first-appearance order
    # a mean over a subtask's rows adds each cell in sample order, as a per-record loop would
    values = np.array([table.sim[table.subtask == c].mean(axis=0) for c in codes])
    return HeatmapMatrix(subtasks=tuple(table.header.subtask_tags[c] for c in codes),
                         layers=tuple(range(table.header.num_layers)), values=values)
