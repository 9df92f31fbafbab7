"""Output checks: an independent reference forward and the plan invariants.

`reference_forward` is written from the model definition (pre-norm blocks,
causal multi-head attention, tanh-GELU MLP, final layer norm before the
unembedding), not from `depthprune.model`.  It takes only the weights and
the probe tokens from the program.  Sampled `sweep.csv` rows, the heatmap
and the `score` table are recomputed with it within the tolerances below,
which leave room for a few ulps of drift from a reordered forward but not
for a wrong one.
"""

import math
import random

import numpy as np

from depthprune.baselines import random_plan
from depthprune.model import ToyModelConfig, build_model
from depthprune.probes import default_probe_sets

FIDELITY_ABS_TOL = 1e-9   # plus FIDELITY_REL_TOL * |reference|
FIDELITY_REL_TOL = 1e-7
SIM_ABS_TOL = 2e-6        # the log stores sims as float32; `score` prints 6 decimals
KL_FLOOR = 1e-12
CHECKED_SWEEP_ROWS = 4
SWEEP_HEADER = "method,budget,domain,seed,top1_agreement,final_hidden_cosine,mean_kl,num_probes"


def _norm(x):
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-6)


def reference_forward(model, tokens, skip=frozenset()):
    """Residual stream before the first block and after each kept block, and the logits."""
    heads = model.config.num_heads
    x = model.embedding[np.asarray(tokens)] + model.positional[:len(tokens)]
    t, d = x.shape
    causal = np.tril(np.ones((t, t), dtype=bool))
    states = [x]
    for layer, w in zip(model.layer_ids, model.blocks):
        if layer in skip:
            continue
        a = _norm(x)
        q, k, v = (np.stack(np.split(a @ m, heads, axis=1)) for m in (w.wq, w.wk, w.wv))
        s = np.where(causal, q @ k.transpose(0, 2, 1) / math.sqrt(d // heads), -np.inf)
        p = np.exp(s - s.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        x = x + np.concatenate(list(p @ v), axis=1) @ w.wo
        u = _norm(x) @ w.w_up
        g = 0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (u + 0.044715 * u * u * u)))
        x = x + g @ w.w_down
        states.append(x)
    return states, _norm(x) @ model.unembed


def _token_cosine_mean(a, b):
    cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return min(1.0, max(-1.0, float(cos.mean())))


def _floored_softmax(z):
    p = np.exp(z - z.max(-1, keepdims=True))
    p = np.maximum(p / p.sum(-1, keepdims=True), KL_FLOOR)
    return p / p.sum(-1, keepdims=True)


def budget_k(p, num_layers):
    return int(math.floor(p * (num_layers - 2) + 1e-9))


def close(value, reference, abs_tol=FIDELITY_ABS_TOL, rel_tol=FIDELITY_REL_TOL):
    return abs(value - reference) <= abs_tol + rel_tol * abs(reference)


class Reference:
    """Reference results for one workload config, computed lazily and cached."""

    def __init__(self, config):
        self.cfg = ToyModelConfig(**config["model"])
        self.model = build_model(self.cfg)
        self.probe_sets = default_probe_sets(self.cfg, config["probe_seed"],
                                             config["probe_counts"])
        self._runs = {}

    def samples(self, domain):
        ps = next(ps for ps in self.probe_sets if ps.domain == domain)
        return list(ps.all_samples())

    def runs(self, domain, skip=frozenset()):
        key = (domain, frozenset(skip))
        if key not in self._runs:
            self._runs[key] = [reference_forward(self.model, tokens, key[1])
                               for _, tokens in self.samples(domain)]
        return self._runs[key]

    def fidelity(self, domain, skip):
        agree = positions = 0
        cos = kl = 0.0
        for (hb, lb), (hp, lp) in zip(self.runs(domain), self.runs(domain, skip)):
            agree += int(np.sum(lb.argmax(1) == lp.argmax(1)))
            positions += lb.shape[0]
            fb, fp = hb[-1], hp[-1]
            cos += float(np.sum(np.sum(fb * fp, 1) / (np.linalg.norm(fb, axis=1)
                                                       * np.linalg.norm(fp, axis=1))))
            pb, pp = _floored_softmax(lb), _floored_softmax(lp)
            kl += float(np.sum(pb * np.log(pb / pp)))
        return agree / positions, cos / positions, kl / positions

    def sims(self):
        """{(subtask, layer): [sim per sample]} over every probe sample."""
        out = {}
        for ps in self.probe_sets:
            for (tag, _), (states, _) in zip(ps.all_samples(), self.runs(ps.domain)):
                for layer in range(self.cfg.num_layers):
                    out.setdefault((tag, layer), []).append(
                        _token_cosine_mean(states[layer], states[layer + 1]))
        return out


def check_plan(method, budget, pruned, num_layers):
    """The invariants of acceptance tests 06-07 for one plan; returns problems."""
    problems = []
    k = budget_k(budget, num_layers)
    if len(pruned) != k:
        problems.append(f"{method}@{budget}: prunes {len(pruned)} layers, expected {k}")
    if len(set(pruned)) != len(pruned):
        problems.append(f"{method}@{budget}: repeats a layer in {pruned}")
    if {0, num_layers - 1} & set(pruned):
        problems.append(f"{method}@{budget}: prunes an endpoint in {pruned}")
    if any(not 0 <= l < num_layers for l in pruned):
        problems.append(f"{method}@{budget}: layer outside [0, {num_layers}) in {pruned}")
    gaps = [b - a for a, b in zip(sorted(pruned), sorted(pruned)[1:])]
    if method == "interlace" and any(g < 2 for g in gaps):
        problems.append(f"interlace@{budget}: adjacent pruned layers in {pruned}")
    return problems


def parse_removal_grid(text, num_layers):
    """(problems, {(method, budget): pruned tuple}) from removal_grid.csv."""
    lines = text.splitlines()
    expected = "method,budget," + ",".join(f"layer_{l}" for l in range(num_layers))
    if not lines or lines[0] != expected:
        return ["removal_grid.csv: unexpected header"], {}
    problems, plans = [], {}
    for line in lines[1:]:
        method, budget, *cells = line.split(",")
        if len(cells) != num_layers or set(cells) - {"0", "1"}:
            problems.append(f"removal_grid.csv: malformed row {line!r}")
            continue
        ones = tuple(l for l, c in enumerate(cells) if c == "1")
        if method == "protected":
            if ones != (0, num_layers - 1):
                problems.append(f"removal_grid.csv: protected row flags {ones}")
        else:
            plans[(method, float(budget))] = ones
    return problems, plans


def check_heatmap(text, ref, name):
    lines = text.splitlines()
    layers = ref.cfg.num_layers
    if not lines or lines[0] != "subtask," + ",".join(f"layer_{l}" for l in range(layers)):
        return [f"{name}: unexpected header"]
    sims = ref.sims()
    tags = [tag for ps in ref.probe_sets for tag, _ in ps.subtasks]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != tags:
        return [f"{name}: subtask rows {[r[0] for r in rows]} != {tags}"]
    problems = []
    for tag, *values in rows:
        for layer, value in enumerate(values):
            want = float(np.mean(sims[(tag, layer)]))
            if not close(float(value), want, SIM_ABS_TOL, 0.0):
                problems.append(f"{name}: {tag} layer {layer}: {value} != reference {want!r}")
    return problems


def check_sweep(files, config, ref, seed):
    """Problems in one sweep's sweep.csv, removal_grid.csv and heatmap.csv."""
    num_layers = config["model"]["num_layers"]
    problems, plans = parse_removal_grid(files["removal_grid.csv"], num_layers)
    grid = {(m, float(p)) for m in config["methods"] for p in config["budgets"]}
    if set(plans) != grid:
        problems.append(f"removal_grid.csv: rows {sorted(plans)} != {sorted(grid)}")
    for (method, budget), pruned in sorted(plans.items()):
        problems += check_plan(method, budget, pruned, num_layers)
    problems += check_heatmap(files["heatmap.csv"], ref, "heatmap.csv")

    lines = files["sweep.csv"].splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return problems + ["sweep.csv: unexpected header"]
    rows = [line.split(",") for line in lines[1:]]
    keys = {(r[0], float(r[1]), r[2], int(r[3])) for r in rows}
    want = {(m, float(p), d, s) for m, p in grid for d in ("math", "nonmath")
            for s in config["seeds"]}
    if len(rows) != len(want) or keys != want:
        return problems + [f"sweep.csv: {len(rows)} rows do not cover the grid"]
    for row in random.Random(seed).sample(rows, min(CHECKED_SWEEP_ROWS, len(rows))):
        method, budget, domain, plan_seed = row[0], float(row[1]), row[2], int(row[3])
        if method == "random":
            pruneable = range(1, num_layers - 1)
            pruned = random_plan(pruneable, budget_k(budget, num_layers), plan_seed,
                                 num_layers=num_layers).pruned
            problems += check_plan(method, budget, pruned, num_layers)
        else:
            pruned = plans.get((method, budget), ())
        got = [float(v) for v in row[4:7]]
        if int(row[7]) != len(ref.samples(domain)):
            problems.append(f"sweep.csv: {row[:4]} num_probes {row[7]}")
        for name, value, reference in zip(("top1_agreement", "final_hidden_cosine", "mean_kl"),
                                          got, ref.fidelity(domain, frozenset(pruned))):
            if not close(value, reference):
                problems.append(f"sweep.csv: {row[:4]} {name} {value!r} != reference {reference!r}")
    return problems


def check_cli_output(command, argv, stdout, config, ref):
    """Problems in one CLI command's standard output."""
    num_layers = config["model"]["num_layers"]
    pruneable = list(range(1, num_layers - 1))
    lines = stdout.splitlines()
    if command == "capture":
        total = sum(ps.num_samples for ps in ref.probe_sets) * num_layers
        return [] if lines[:1] == [f"wrote {total} records to {argv[-1]}"] else [
            f"capture: unexpected output {lines[:1]}"]
    if command == "heatmap":
        return check_heatmap(stdout, ref, "heatmap")
    if command == "rank":
        layers = sorted(int(line.split("\t")[0]) for line in lines)
        return [] if layers == pruneable else [f"rank {argv}: layers {layers}"]
    if command == "plan":
        method, budget = argv[argv.index("--method") + 1], float(argv[argv.index("--budget") + 1])
        pruned_line = [line for line in lines if line.startswith("pruned: ")]
        if not pruned_line:
            return [f"plan {method}@{budget}: no pruned line"]
        text = pruned_line[0][len("pruned: "):]
        pruned = tuple(int(l) for l in text.split(",")) if text else ()
        return check_plan(method, budget, pruned, num_layers)
    if command == "score":
        sims = ref.sims()
        problems, domain = [], None
        for line in lines:
            if line.startswith("domain="):
                domain = line.split()[0][len("domain="):]
                n = int(line.split()[1][len("n="):])
                if n != len(ref.samples(domain)):
                    problems.append(f"score: {domain} n={n}")
                tags = [tag for ps in ref.probe_sets if ps.domain == domain
                        for tag, _ in ps.subtasks]
                continue
            fields = line.split()
            layer, raw = int(fields[1]), float(fields[2][len("raw="):])
            want = float(np.mean([s for tag in tags for s in sims[(tag, layer)]]))
            if not close(raw, want, SIM_ABS_TOL, 0.0):
                problems.append(f"score: {domain} layer {layer} raw {raw} != reference {want!r}")
        return problems
    return [f"no check for command {command!r}"]
