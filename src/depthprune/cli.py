"""Command-line entry point for the depth-pruning pipeline.

Subcommands: capture, score, rank, plan, prune-eval, sweep, heatmap.
Flags override config-file values.  Exit codes: 0 success, 1 validation
error, 2 runtime error.
"""

import argparse
import json
import os
import sys

from . import __version__
from .actlog import read_log_path, write_log_path
from .baselines import cka_rank
from .capture import capture_run
from .errors import DepthPruneError, InvalidConfig
from .model import ToyModelConfig, apply_prune_plan, build_model
from .planner import DEFAULT_BUDGETS, METHODS, budget_k, parse_plan, serialize_plan
from .probes import DEFAULT_COUNTS, DOMAINS, default_probe_sets
from .report import (classify_regime, fidelity, heatmap_matrix, plan_for_method,
                     removal_pattern_grid, sweep, sweep_csv)
from .rng import SeededStream
from .scoring import DEFAULT_ALPHA, aggregate_domain, rank_order, znormalize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DepthPruneError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path}: invalid JSON ({exc.msg})") from exc
    known = {"model", "probe_counts", "probe_seed", "methods", "budgets",
             "alpha", "seeds", "out"}
    unknown = set(raw) - known
    if unknown:
        raise InvalidConfig(f"config: unknown key {sorted(unknown)[0]!r}")
    model_raw = raw.get("model", {})
    model_fields = {"num_layers", "hidden_dim", "num_heads", "vocab_size",
                    "max_seq_len", "seed"}
    bad = set(model_raw) - model_fields
    if bad:
        raise InvalidConfig(f"config model: unknown field {sorted(bad)[0]!r}")
    cfg = {
        "model": ToyModelConfig(**model_raw),
        "probe_counts": raw.get("probe_counts", dict(DEFAULT_COUNTS)),
        "probe_seed": raw.get("probe_seed", 0),
        "methods": raw.get("methods", list(METHODS)),
        "budgets": raw.get("budgets", list(DEFAULT_BUDGETS)),
        "alpha": raw.get("alpha", DEFAULT_ALPHA),
        "seeds": raw.get("seeds", [0]),
        "out": raw.get("out", "out"),
    }
    cfg["model"].validate()
    if not (0.0 <= cfg["alpha"] <= 1.0):
        raise InvalidConfig(f"config alpha: {cfg['alpha']} outside [0, 1]")
    for d in cfg["probe_counts"]:
        if d not in DOMAINS:
            raise InvalidConfig(f"config probe_counts: unknown domain {d!r}")
    return cfg


def _capture_records(cfg):
    model = build_model(cfg["model"])
    probe_sets = default_probe_sets(cfg["model"], cfg["probe_seed"], cfg["probe_counts"])
    header, records = capture_run(model, probe_sets)
    return model, probe_sets, header, records


def cmd_capture(args):
    cfg = _load_config(args.config)
    out = args.out or os.path.join(cfg["out"], "activations.log")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    _, _, header, records = _capture_records(cfg)
    count = write_log_path(header, records, out)
    print(f"wrote {count} records to {out}")
    return 0


def cmd_score(args):
    header, records = read_log_path(args.log)
    pruneable = sorted(set(range(header.num_layers)) - header.protected_layers)
    for domain in DOMAINS:
        table = znormalize(aggregate_domain(records, domain, pruneable))
        print(f"domain={domain} n={table.sample_count} mu={table.mu:.6f} sigma={table.sigma:.6f}")
        for layer in pruneable:
            print(f"  layer {layer:3d}  raw={table.raw[layer]:+.6f}  "
                  f"norm={table.normalized[layer]:+.6f}")
    return 0


def _ranking_scores(header, records, method, alpha, seed):
    """Full prune-order scores for rank printing (not budget-truncated)."""
    pruneable = sorted(set(range(header.num_layers)) - header.protected_layers)
    if method in ("ours-math", "ours-nonmath", "ours-mixed"):
        math_t = znormalize(aggregate_domain(records, "math", pruneable))
        nonmath_t = znormalize(aggregate_domain(records, "nonmath", pruneable))
        a = {"ours-math": 0.0, "ours-nonmath": 1.0}.get(method, alpha)
        scores = {l: a * nonmath_t.normalized[l] + (1 - a) * math_t.normalized[l]
                  for l in pruneable}
        return scores, rank_order(scores)
    if method == "cka":
        table = cka_rank(records, pruneable)
        return dict(table.redundancy), rank_order(table.redundancy)
    if method == "random":
        if seed is None:
            raise DepthPruneError("method random requires --seed for reproducibility")
        order = tuple(SeededStream(seed).sample_without_replacement(pruneable, len(pruneable)))
        return {l: 0.0 for l in pruneable}, order
    raise DepthPruneError(f"method {method!r} has no standalone ranking; use plan with --budget")


def cmd_rank(args):
    header, records = read_log_path(args.log)
    if args.method not in METHODS:
        raise DepthPruneError(f"unknown method {args.method!r} (expected one of {METHODS})")
    if args.method == "interlace":
        if args.budget is None:
            raise DepthPruneError("method interlace requires --budget (its structure depends on K)")
        plan = plan_for_method(args.method, header, records, args.budget,
                               alpha=args.alpha, seed=args.seed)
        for layer in plan.pruned:
            print(f"{layer}\t{plan.scores[layer]:+.6f}")
        if args.out:
            _write_plan(plan, args.out)
        return 0
    scores, order = _ranking_scores(header, records, args.method, args.alpha, args.seed)
    for layer in order:
        print(f"{layer}\t{scores[layer]:+.6f}")
    if args.budget is not None:
        plan = plan_for_method(args.method, header, records, args.budget,
                               alpha=args.alpha, seed=args.seed)
        if args.out:
            _write_plan(plan, args.out)
        else:
            print("pruned: " + ",".join(str(l) for l in plan.pruned))
    return 0


def _write_plan(plan, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_plan(plan))
    print(f"wrote plan to {path}")


def cmd_plan(args):
    header, records = read_log_path(args.log)
    if args.method not in METHODS:
        raise DepthPruneError(f"unknown method {args.method!r} (expected one of {METHODS})")
    plan = plan_for_method(args.method, header, records, args.budget,
                           alpha=args.alpha, seed=args.seed)
    regime = classify_regime(args.budget)
    print(f"method={plan.method} budget={plan.budget_fraction} k={plan.k} regime={regime.label}")
    print("pruned: " + ",".join(str(l) for l in plan.pruned))
    if args.out:
        _write_plan(plan, args.out)
    return 0


def cmd_prune_eval(args):
    cfg = _load_config(args.config)
    try:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = parse_plan(fh.read())
    except OSError as exc:
        raise DepthPruneError(f"cannot read plan {args.plan}: {exc}") from exc
    model = build_model(cfg["model"])
    pruned = apply_prune_plan(model, plan)
    probe_sets = default_probe_sets(cfg["model"], cfg["probe_seed"], cfg["probe_counts"])
    print("method,budget,domain,top1_agreement,final_hidden_cosine,mean_kl,num_probes")
    for ps in probe_sets:
        rep = fidelity(model, pruned, ps, method=plan.method,
                       budget_fraction=plan.budget_fraction)
        print(",".join([rep.method, repr(float(rep.budget_fraction)), rep.domain,
                        repr(rep.top1_agreement), repr(rep.final_hidden_cosine),
                        repr(rep.mean_kl), str(rep.num_probes)]))
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    out_dir = args.out or cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    alpha = args.alpha if args.alpha is not None else cfg["alpha"]
    reports, plans, heatmap = sweep(cfg["model"], cfg["methods"], cfg["budgets"],
                                    seeds, alpha=alpha, probe_counts=cfg["probe_counts"],
                                    probe_seed=cfg["probe_seed"])
    outputs = {
        "sweep.csv": sweep_csv(reports),
        "removal_grid.csv": removal_pattern_grid(plans),
        "heatmap.csv": heatmap.to_csv(),
    }
    for name, text in outputs.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def cmd_heatmap(args):
    _, records = read_log_path(args.log)
    text = heatmap_matrix(records).to_csv()
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = _Parser(prog="depthprune",
                     description="Layer-redundancy analysis and structured depth pruning")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("capture", cmd_capture,
        **{"--config": dict(required=True), "--out": dict(default=None)})
    add("score", cmd_score, **{"--log": dict(required=True)})
    add("rank", cmd_rank, **{
        "--log": dict(required=True), "--method": dict(required=True),
        "--alpha": dict(type=float, default=DEFAULT_ALPHA),
        "--budget": dict(type=float, default=None),
        "--seed": dict(type=int, default=None), "--out": dict(default=None)})
    add("plan", cmd_plan, **{
        "--log": dict(required=True), "--method": dict(required=True),
        "--budget": dict(type=float, required=True),
        "--alpha": dict(type=float, default=DEFAULT_ALPHA),
        "--seed": dict(type=int, default=None), "--out": dict(default=None)})
    add("prune-eval", cmd_prune_eval,
        **{"--config": dict(required=True), "--plan": dict(required=True)})
    add("sweep", cmd_sweep, **{
        "--config": dict(required=True), "--out": dict(default=None),
        "--alpha": dict(type=float, default=None),
        "--seed": dict(type=int, default=None)})
    add("heatmap", cmd_heatmap,
        **{"--log": dict(required=True), "--out": dict(default=None)})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DepthPruneError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # unexpected runtime failure
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
