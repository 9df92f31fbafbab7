"""Budget x method sweeps, output-fidelity metrics, and CSV reports."""

from dataclasses import dataclass, replace

import numpy as np

from .baselines import cka_rank, interlace_plan, random_plan
from .capture import capture_run
from .errors import (AlphaOutOfRange, BudgetOutOfRange, DepthPruneError, InconsistentDepth,
                     InvalidConfig, ModelMismatch, ZeroNormInput)
from .linalg import ZERO_NORM_THRESHOLD
from .model import apply_prune_plan, build_model
from .planner import METHODS, budget_k, make_plan
from .probes import DEFAULT_COUNTS, check_counts, default_probe_sets
from .rng import SeededStream
from .scoring import (DEFAULT_ALPHA, aggregate_domain, heatmap_matrix, mixed_ranking,
                      rank_order, znormalize)

KL_FLOOR = 1e-12

SWEEP_CSV_HEADER = "method,budget,domain,seed,top1_agreement,final_hidden_cosine,mean_kl,num_probes"

REGIME_RANKING_SENSITIVE = "ranking-sensitive"
REGIME_TRANSITION = "transition"
REGIME_STRUCTURE_DOMINATED = "structure-dominated"


@dataclass(frozen=True)
class FidelityReport:
    method: str
    budget_fraction: float
    domain: str
    top1_agreement: float
    final_hidden_cosine: float
    mean_kl: float
    num_probes: int
    seed: int


@dataclass(frozen=True)
class RegimeLabel:
    label: str


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_fraction(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


def classify_regime(p: float) -> RegimeLabel:
    """Fixed budget bands: <=15% ranking-sensitive, <=32% transition, above structure-dominated."""
    if not (0.0 <= p <= 1.0):
        raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {p}")
    if p <= 0.15:
        label = REGIME_RANKING_SENSITIVE
    elif p <= 0.32:
        label = REGIME_TRANSITION
    else:
        label = REGIME_STRUCTURE_DOMINATED
    return RegimeLabel(label=label)


def _floored_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    p = np.maximum(p, KL_FLOOR)
    return p / p.sum(axis=-1, keepdims=True)


def _shared_prefix(base, pruned):
    """Number of leading blocks ``pruned`` runs on exactly ``base``'s stream, or None.

    Blocks are compared by identity, not by layer id, because
    ``neutralize_block`` keeps the ids while replacing the weights.
    """
    if pruned.embedding is not base.embedding or pruned.positional is not base.positional:
        return None
    f = 0
    for b, p in zip(base.blocks, pruned.blocks):
        if b is not p:
            break
        f += 1
    return f


def fidelity(base, pruned, probes, method: str = "", budget_fraction: float = 0.0,
             seed: int = 0, base_run=None) -> FidelityReport:
    """Position-wise output agreement of pruned vs unpruned model on a probe set.

    ``base_run`` is ``base.residual_states(probes.token_matrix())`` when the
    caller already has it.  The pruned model resumes from the base stream
    after the block prefix the two models share.
    """
    cb, cp = base.config, pruned.config
    if (cb.vocab_size, cb.max_seq_len, cb.hidden_dim) != (cp.vocab_size, cp.max_seq_len, cp.hidden_dim):
        raise ModelMismatch("base and pruned models disagree on vocab/max_seq_len/hidden_dim")
    if probes.num_samples == 0:
        raise ModelMismatch("probe set is empty")
    tokens = probes.token_matrix()
    base_states, base_logits = base_run if base_run is not None else base.residual_states(tokens)
    f = _shared_prefix(base, pruned)
    if f is None:
        states, logits = pruned.residual_states(tokens)
    else:
        states, logits = pruned.residual_states(tokens, start=f, x0=base_states[f])
    positions = tokens.size
    hb, hp = base_states[-1], states[-1]
    n_base, n_pruned = np.linalg.norm(hb, axis=-1), np.linalg.norm(hp, axis=-1)
    if float(n_base.min()) < ZERO_NORM_THRESHOLD or float(n_pruned.min()) < ZERO_NORM_THRESHOLD:
        raise ZeroNormInput("a final hidden state has near-zero norm")
    cos = np.einsum("btd,btd->bt", hb, hp) / (n_base * n_pruned)
    pb = _floored_softmax(base_logits)
    pp = _floored_softmax(logits)
    agree = np.argmax(base_logits, axis=-1) == np.argmax(logits, axis=-1)
    return FidelityReport(
        method=method,
        budget_fraction=budget_fraction,
        domain=probes.domain,
        top1_agreement=int(np.sum(agree)) / positions,
        final_hidden_cosine=float(np.sum(cos)) / positions,
        mean_kl=float(np.sum(pb * np.log(pb / pp))) / positions,
        num_probes=probes.num_samples,
        seed=seed,
    )


def method_scores(method: str, header, table, alpha: float = DEFAULT_ALPHA, seed: int = None):
    """(scores, full prune order) of one method over the header's pruneable layers.

    ``ours-math`` and ``ours-nonmath`` are ``ours-mixed`` at alpha 0 and 1;
    ``random`` is a seeded permutation with every score 0.0.
    """
    pruneable = sorted(set(range(header.num_layers)) - header.protected_layers)
    if method == "random":
        stream = SeededStream(_random_seed(seed))
        return {l: 0.0 for l in pruneable}, tuple(
            stream.sample_without_replacement(pruneable, len(pruneable)))
    if method in ("ours-math", "ours-nonmath", "ours-mixed"):
        ranking = mixed_ranking(znormalize(aggregate_domain(table, "math", pruneable)),
                                znormalize(aggregate_domain(table, "nonmath", pruneable)),
                                {"ours-math": 0.0, "ours-nonmath": 1.0}.get(method, alpha))
        return ranking.scores, ranking.order
    if method == "cka":
        scores = cka_rank(table, pruneable).redundancy
        return scores, rank_order(scores)
    raise DepthPruneError(f"method {method!r} has no budget-free ranking" if method in METHODS
                          else f"unknown method {method!r}")


def _random_seed(seed):
    if seed is None:
        raise DepthPruneError("method random requires a seed")
    return seed


def plan_for_method(method: str, header, table, p: float, alpha: float = DEFAULT_ALPHA,
                    seed: int = None):
    """Build the PrunePlan for one method tag at budget p from log data."""
    protected = frozenset(header.protected_layers)
    num_layers = header.num_layers
    l_mid = sorted(set(range(num_layers)) - protected)
    k = budget_k(p, len(l_mid))
    if method == "interlace":
        return interlace_plan(table, l_mid, k, budget_fraction=p)
    if method == "random":
        return random_plan(l_mid, k, _random_seed(seed), num_layers=num_layers,
                           budget_fraction=p)
    scores, _ = method_scores(method, header, table, alpha)
    return make_plan(scores, p, num_layers, protected, method,
                     alpha=alpha if method == "ours-mixed" else None)


def sweep(config, methods, budgets, seeds, alpha: float = DEFAULT_ALPHA, probe_counts=None,
          probe_seed: int = 0):
    """Full evaluation grid.

    Returns (reports, plans, heatmap): one FidelityReport per
    (method, budget, domain, seed), one plan per (method, budget) with
    random plans taken at the first seed, and the candidate heatmap.  Every
    argument is checked before the model is built.
    """
    if not methods:
        raise DepthPruneError("no methods selected")
    if not budgets:
        raise DepthPruneError("no budgets selected")
    if not seeds:
        raise DepthPruneError("no seeds selected")
    for method in methods:
        if method not in METHODS:
            raise InvalidConfig(f"unknown method {method!r} (expected one of {METHODS})")
    for p in budgets:
        if not is_fraction(p):
            raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {p!r}")
    if not is_fraction(alpha):
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    for seed in seeds:
        if not is_int(seed):
            raise InvalidConfig(f"seed {seed!r} is not an integer")
    check_counts(probe_counts or DEFAULT_COUNTS)
    model = build_model(config)
    probe_sets = default_probe_sets(config, probe_seed, probe_counts)
    base_runs = {ps.domain: model.residual_states(ps.token_matrix()) for ps in probe_sets}
    header, table = capture_run(model, probe_sets, base_runs)
    heatmap = heatmap_matrix(table)

    reports = []
    grid_plans = {}
    cache = {}  # set of pruned layers -> {domain: FidelityReport}
    for method in methods:
        for p in budgets:
            for seed in seeds:
                plan = plan_for_method(method, header, table, p, alpha=alpha, seed=seed)
                if (method, p) not in grid_plans:
                    grid_plans[(method, p)] = plan
                key = frozenset(plan.pruned)  # the pruned model keeps the base block order
                if key not in cache:
                    pruned_model = apply_prune_plan(model, plan)
                    cache[key] = {
                        ps.domain: fidelity(model, pruned_model, ps, base_run=base_runs[ps.domain])
                        for ps in probe_sets}
                for ps in probe_sets:
                    reports.append(replace(cache[key][ps.domain], method=method,
                                           budget_fraction=p, seed=seed))
    plans = [grid_plans[k] for k in sorted(grid_plans, key=lambda mk: (mk[0], mk[1]))]
    return reports, plans, heatmap


def sweep_csv(reports) -> str:
    rows = []
    for r in reports:
        rows.append(",".join([
            r.method, repr(float(r.budget_fraction)), r.domain, str(r.seed),
            repr(float(r.top1_agreement)), repr(float(r.final_hidden_cosine)),
            repr(float(r.mean_kl)), str(r.num_probes),
        ]))
    rows.sort()
    return SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def removal_pattern_grid(plans) -> str:
    """0/1 grid CSV of pruned layers per (method, budget) plus a protected-layer flag row."""
    if not plans:
        raise InconsistentDepth("no plans given")
    depths = {plan.num_layers for plan in plans}
    if len(depths) != 1:
        raise InconsistentDepth(f"plans disagree on depth: {sorted(depths)}")
    num_layers = depths.pop()
    header = "method,budget," + ",".join(f"layer_{l}" for l in range(num_layers))
    protected = sorted(set().union(*(plan.protected for plan in plans)))
    lines = [header]
    flag = ["1" if l in protected else "0" for l in range(num_layers)]
    lines.append("protected,," + ",".join(flag))
    for plan in sorted(plans, key=lambda pl: (pl.method, pl.budget_fraction)):
        cells = ["1" if l in plan.pruned else "0" for l in range(num_layers)]
        lines.append(f"{plan.method},{repr(float(plan.budget_fraction))}," + ",".join(cells))
    return "\n".join(lines) + "\n"
