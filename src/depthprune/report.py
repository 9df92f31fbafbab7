"""Budget x method sweeps, output-fidelity metrics, and CSV reports."""

import sys
from dataclasses import dataclass, field, replace
from itertools import cycle

import numpy as np

from .baselines import cka_rank, interlace_plan, random_plan
from .capture import capture_run
from .errors import (AlphaOutOfRange, BudgetInfeasible, BudgetOutOfRange, EmptyInput,
                     InconsistentDepth, InvalidConfig, ModelMismatch, ZeroNormInput,
                     check_distinct, check_int, is_fraction)
from .linalg import ZERO_NORM_THRESHOLD
from .model import ToyModelConfig, apply_prune_plan, build_model, threaded
from .planner import DEFAULT_BUDGETS, METHODS, budget_k, make_plan
from .probes import DEFAULT_COUNTS, check_counts, default_probe_sets
from .scoring import (DEFAULT_ALPHA, aggregate_domain, heatmap_matrix, mixed_ranking,
                      rank_order, znormalize)

KL_FLOOR = 1e-12

SWEEP_CSV_HEADER = "method,budget,domain,seed,top1_agreement,final_hidden_cosine,mean_kl,num_probes"


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


@dataclass(frozen=True)
class RunConfig:
    """One run of the pipeline: its fields are the keys of a config file."""
    model: ToyModelConfig = ToyModelConfig()
    probe_counts: dict = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    probe_seed: int = 0
    methods: tuple = METHODS
    budgets: tuple = DEFAULT_BUDGETS
    alpha: float = DEFAULT_ALPHA
    seeds: tuple = (0,)
    out: str = "out"

    def __post_init__(self):
        """Raise a typed error for the first bad field, before anything is built."""
        check_counts(self.probe_counts)
        for key in ("methods", "budgets", "seeds"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise InvalidConfig(f"{key}: expected a list")
        for method in self.methods:
            if method not in METHODS:
                raise InvalidConfig(
                    f"methods: unknown method {method!r} (expected one of {METHODS})")
        if not is_fraction(self.alpha):
            raise AlphaOutOfRange(f"alpha must be in [0, 1], got {self.alpha!r}")
        for p in self.budgets:
            if not is_fraction(p):
                raise BudgetOutOfRange(f"budgets: budget fraction must be in [0, 1], got {p!r}")
        for seed in self.seeds:
            check_int(InvalidConfig, "seeds", seed)
        for key in ("methods", "budgets", "seeds"):
            check_distinct(InvalidConfig, key, getattr(self, key))
        check_int(InvalidConfig, "probe_seed", self.probe_seed)
        if not isinstance(self.out, str):
            raise InvalidConfig(f"out: {self.out!r} is not a path")


def classify_regime(p: float) -> RegimeLabel:
    """Fixed budget bands: <=15% ranking-sensitive, <=32% transition, above structure-dominated."""
    if not is_fraction(p):
        raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {p!r}")
    if p <= 0.15:
        label = "ranking-sensitive"
    elif p <= 0.32:
        label = "transition"
    else:
        label = "structure-dominated"
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


def fidelity(base, pruned, probes) -> FidelityReport:
    """Position-wise output agreement of pruned vs unpruned model on a probe set.

    A one-leaf :func:`_trie_leaves` walk over the streamed base model, which
    keeps only the base's state after the block prefix the two models share
    and its last state.  The report's method, budget and seed are left
    blank, as :func:`_compare` leaves them.
    """
    cb, cp = base.config, pruned.config
    if (cb.vocab_size, cb.max_seq_len, cb.hidden_dim) != (cp.vocab_size, cp.max_seq_len, cp.hidden_dim):
        raise ModelMismatch("base and pruned models disagree on vocab/max_seq_len/hidden_dim")
    if probes.num_samples == 0:
        raise EmptyInput("probe set is empty")
    tokens = probes.token_matrix()
    return _reports(base, base.stream(tokens), {0: pruned}, probes, tokens)[0]


def _compare(probes, hb, base_logits, last, logits) -> FidelityReport:
    """Agreement, cosine and KL of a pruned model's last state and logits on ``probes``.

    ``hb`` and ``base_logits`` are the unpruned model's last state and
    logits on the same probes.  The method, budget and seed are left blank
    for the caller to fill in with ``replace``.
    """
    n_base, n_pruned = np.linalg.norm(hb, axis=-1), np.linalg.norm(last, axis=-1)
    if float(n_base.min()) < ZERO_NORM_THRESHOLD or float(n_pruned.min()) < ZERO_NORM_THRESHOLD:
        raise ZeroNormInput("a final hidden state has near-zero norm")
    cos = np.einsum("btd,btd->bt", hb, last) / (n_base * n_pruned)
    pb = _floored_softmax(base_logits)
    pp = _floored_softmax(logits)
    agree = np.argmax(base_logits, axis=-1) == np.argmax(logits, axis=-1)
    return FidelityReport(
        method="",
        budget_fraction=0.0,
        domain=probes.domain,
        top1_agreement=int(np.sum(agree)) / agree.size,
        final_hidden_cosine=float(np.sum(cos)) / agree.size,
        mean_kl=float(np.sum(pb * np.log(pb / pp))) / agree.size,
        num_probes=probes.num_samples,
        seed=0,
    )


def _trie_leaves(base, base_states, pruned_models, tokens):
    """Yield (key, last state, logits): ``(None, ...)`` for ``base``, then each pruned model.

    ``base_states`` is any iterable of ``base``'s states on ``tokens`` in
    order, such as a list or a live ``base.stream(tokens)``; of them only the
    last and those a pruned model resumes from are kept.  The models' block
    sequences form a prefix trie whose base path is ``base_states``.  Leaves
    are visited in the lexicographic order of their layer ids, each resumed
    from the state after the blocks it shares with the leaf before it, so
    every trie node off the base path is evaluated once for all the models
    that share it.  Of a leaf's own states only those that a later leaf
    resumes from are kept.  Blocks are compared by identity, as in
    ``_shared_prefix``; a model that shares nothing with the leaf before it
    is streamed from its own embeddings.
    """
    leaves = sorted(pruned_models.items(), key=lambda kv: kv[1].layer_ids)
    models = [base] + [pruned for _, pruned in leaves]
    resume = [_shared_prefix(a, b) for a, b in zip(models, models[1:])]
    # kept[i]: positions on leaf i's path that a later leaf resumes from.  In
    # lexicographic order, leaf j reaches leaf i's state at position r only
    # if no leaf between them resumes below r; after the loop, ``later``
    # holds the base positions that some leaf resumes from.
    kept, later = [], set()
    for r in reversed(resume):
        kept.append(later)
        later = set() if r is None else {r} | {q for q in later if q <= r}
    kept.reverse()
    path = {}  # position -> state on the current path
    for q, last in enumerate(base_states):
        if q in later:
            path[q] = last
    yield None, last, base.head(last)
    for (key, pruned), c, keep in zip(leaves, resume, kept):
        for q in [q for q in path if c is None or q > c]:
            del path[q]
        # with c None, the leaf starts from its own embeddings
        for q, last in enumerate(pruned.stream(tokens, start=c or 0, x0=path.get(c)), c or 0):
            if q in keep:
                path[q] = last
        yield key, last, pruned.head(last)


def _reports(base, base_states, pruned_models, probes, tokens):
    """{key: FidelityReport} of every model in ``pruned_models``: one trie walk on ``probes``.

    ``tokens`` is ``probes.token_matrix()`` and ``base_states`` the base's
    states on them, as :func:`_trie_leaves` takes them.
    """
    leaves = _trie_leaves(base, base_states, pruned_models, tokens)
    _, hb, base_logits = next(leaves)
    return {key: _compare(probes, hb, base_logits, last, logits) for key, last, logits in leaves}


def _drain(states):
    """Yield the items of the list ``states`` in order, dropping each from it as it goes.

    A walk over it then holds only the states it keeps itself.
    """
    states.reverse()
    while states:
        yield states.pop()


def method_scores(method: str, header, table, alpha: float = DEFAULT_ALPHA, seed: int = None):
    """(scores, full prune order) of one method over the header's pruneable layers.

    ``ours-math`` and ``ours-nonmath`` are ``ours-mixed`` at alpha 0 and 1;
    ``random`` is ``random_plan``'s full order, every score 0.0: each random plan is its first K.
    """
    pruneable = header.pruneable
    if method == "random":
        order = random_plan(pruneable, len(pruneable), seed, num_layers=header.num_layers).pruned
        return {l: 0.0 for l in pruneable}, order
    if method in ("ours-math", "ours-nonmath", "ours-mixed"):
        ranking = mixed_ranking(znormalize(aggregate_domain(table, "math", pruneable)),
                                znormalize(aggregate_domain(table, "nonmath", pruneable)),
                                {"ours-math": 0.0, "ours-nonmath": 1.0}.get(method, alpha))
        return ranking.scores, ranking.order
    if method == "cka":
        scores = cka_rank(table, pruneable)
        return scores, rank_order(scores)
    raise InvalidConfig(f"method {method!r} has no budget-free ranking" if method in METHODS
                        else f"unknown method {method!r}")


def plan_for_method(method: str, header, table, p: float, alpha: float = DEFAULT_ALPHA,
                    seed: int = None):
    """Build the PrunePlan for one method tag at budget p from log data."""
    num_layers, pruneable = header.num_layers, header.pruneable
    k = budget_k(p, len(pruneable))
    if method == "interlace":
        return interlace_plan(table, pruneable, k, budget_fraction=p)
    if method == "random":
        return random_plan(pruneable, k, seed, num_layers=num_layers, budget_fraction=p)
    scores, _ = method_scores(method, header, table, alpha)
    return make_plan(scores, p, num_layers, header.protected_layers, method,
                     alpha=alpha if method == "ours-mixed" else None)


def sweep(config, methods, budgets, seeds, alpha: float = DEFAULT_ALPHA, probe_counts=None,
          probe_seed: int = 0):
    """Full evaluation grid.

    Returns (reports, plans, heatmap): one FidelityReport per
    (method, budget, domain, seed), one plan per (method, budget) with
    random plans taken at the first seed, and the candidate heatmap.  Every
    argument is checked before the model is built.  A (method, budget) whose
    plan raises ``BudgetInfeasible`` is left out of both, with one line on
    stderr.  Each domain's base forward, and then its fidelity walk, runs on
    its own thread; the walk drains the base states, so it ends up holding
    only the last and those a pruned model resumes from.
    """
    if not (methods and budgets and seeds):
        raise InvalidConfig("a sweep needs at least one method, one budget and one seed")
    RunConfig(model=config, probe_counts=DEFAULT_COUNTS if probe_counts is None else probe_counts,
              probe_seed=probe_seed, methods=methods, budgets=budgets, alpha=alpha,
              seeds=seeds)
    model = build_model(config)
    probe_sets = default_probe_sets(config, probe_seed, probe_counts)
    tokens = [ps.token_matrix() for ps in probe_sets]
    base_runs = threaded(lambda t: list(model.stream(t)), tokens)
    header, table = capture_run(model, probe_sets, base_runs)
    heatmap = heatmap_matrix(table)

    grid_plans = {}
    rows = []           # (method, p, seed, set of pruned layers)
    pruned_models = {}  # set of pruned layers -> pruned model; it keeps the base block order
    for method in methods:
        for p in budgets:
            # only random reads the seed; any other plan serves every seed
            try:
                plans = [plan_for_method(method, header, table, p, alpha=alpha, seed=seed)
                         for seed in (seeds if method == "random" else seeds[:1])]
            except BudgetInfeasible as exc:
                print(f"skipped {method} at budget {p!r}: {exc}", file=sys.stderr)
                continue
            grid_plans.setdefault((method, p), plans[0])
            for seed, plan in zip(seeds, cycle(plans)):
                key = frozenset(plan.pruned)
                if key not in pruned_models:
                    pruned_models[key] = apply_prune_plan(model, plan)
                rows.append((method, p, seed, key))
    if not rows:
        raise BudgetInfeasible("no (method, budget) of the sweep is feasible")

    results = threaded(  # per domain: pruned set -> report
        lambda i: _reports(model, _drain(base_runs[i]), pruned_models, probe_sets[i], tokens[i]),
        range(len(probe_sets)))
    reports = [replace(res[key], method=method, budget_fraction=p, seed=seed)
               for method, p, seed, key in rows for res in results]
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
