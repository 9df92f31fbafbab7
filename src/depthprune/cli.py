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
from .baselines import cka_rank  # noqa: F401  (bench/tracer.py wraps it in this module)
from .capture import capture_run
from .errors import (AlphaOutOfRange, BudgetOutOfRange, DepthPruneError, InvalidConfig,
                     PlanModelMismatch, SchemaViolation, SinkFailure)
from .model import ToyModelConfig, apply_prune_plan, build_model, is_int
from .planner import DEFAULT_BUDGETS, METHODS, parse_plan, serialize_plan
from .probes import DEFAULT_COUNTS, DOMAINS, check_counts, default_probe_sets
from .report import (classify_regime, fidelity, heatmap_matrix, is_fraction, method_scores,
                     plan_for_method, removal_pattern_grid, sweep, sweep_csv)
from .scoring import DEFAULT_ALPHA, aggregate_domain, znormalize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _require(ok, message):
    if not ok:
        raise InvalidConfig(f"config: {message}")


def _load_config(path):
    """Read and fully validate a run config, before anything is built or computed."""
    try:
        raw = json.loads(_read_text(path, "config", InvalidConfig))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path}: invalid JSON ({exc.msg})") from exc
    _require(isinstance(raw, dict), "is not a JSON object")
    cfg = {"model": {}, "probe_counts": dict(DEFAULT_COUNTS), "probe_seed": 0,
           "methods": list(METHODS), "budgets": list(DEFAULT_BUDGETS), "alpha": DEFAULT_ALPHA,
           "seeds": [0], "out": "out"}
    for key in sorted(raw):
        _require(key in cfg, f"unknown key {key!r}")
    cfg.update(raw)
    _require(isinstance(cfg["model"], dict), "model: expected an object")
    model_fields = {"num_layers", "hidden_dim", "num_heads", "vocab_size",
                    "max_seq_len", "seed"}
    for name in sorted(cfg["model"]):
        _require(name in model_fields, f"model: unknown field {name!r}")
    cfg["model"] = ToyModelConfig(**cfg["model"])
    cfg["model"].validate()
    _require(is_fraction(cfg["alpha"]), f"alpha: {cfg['alpha']!r} outside [0, 1]")
    for key in ("methods", "budgets", "seeds"):
        _require(isinstance(cfg[key], list), f"{key}: expected a list")
    for method in cfg["methods"]:
        _require(method in METHODS,
                 f"methods: unknown method {method!r} (expected one of {METHODS})")
    for p in cfg["budgets"]:
        _require(is_fraction(p), f"budgets: {p!r} outside [0, 1]")
    for seed in cfg["seeds"] + [cfg["probe_seed"]]:
        _require(is_int(seed), f"seeds: {seed!r} is not an integer")
    _require(isinstance(cfg["out"], str), f"out: {cfg['out']!r} is not a path")
    check_counts(cfg["probe_counts"])
    return cfg


def cmd_capture(args):
    cfg = _load_config(args.config)
    out = args.out or os.path.join(cfg["out"], "activations.log")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    model = build_model(cfg["model"])
    probe_sets = default_probe_sets(cfg["model"], cfg["probe_seed"], cfg["probe_counts"])
    header, table = capture_run(model, probe_sets)
    count = write_log_path(header, table, out)
    print(f"wrote {count} records to {out}")
    print(f"clamped {table.clamped} of {count} sims to [-1, 1]", file=sys.stderr)
    return 0


def cmd_score(args):
    header, table = read_log_path(args.log)
    pruneable = sorted(set(range(header.num_layers)) - header.protected_layers)
    for domain in DOMAINS:
        scores = znormalize(aggregate_domain(table, domain, pruneable))
        print(f"domain={domain} n={scores.sample_count} "
              f"mu={scores.mu:.6f} sigma={scores.sigma:.6f}")
        for layer in pruneable:
            print(f"  layer {layer:3d}  raw={scores.raw[layer]:+.6f}  "
                  f"norm={scores.normalized[layer]:+.6f}")
    return 0


def _check_method(args, budget=None):
    """Reject a bad --method, --budget, --alpha or missing --seed before the log is read."""
    if args.method not in METHODS:
        raise InvalidConfig(f"unknown method {args.method!r} (expected one of {METHODS})")
    if args.method == "interlace" and budget is None:
        raise InvalidConfig("method interlace ranks only under a budget: use plan --budget")
    if not 0.0 <= args.alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {args.alpha}")
    if budget is not None and not 0.0 <= budget <= 1.0:
        raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {budget}")
    if args.method == "random" and args.seed is None:
        raise InvalidConfig("method random requires --seed for reproducibility")


def cmd_rank(args):
    _check_method(args)
    header, table = read_log_path(args.log)
    scores, order = method_scores(args.method, header, table, args.alpha, args.seed)
    for layer in order:
        print(f"{layer}\t{scores[layer]:+.6f}")
    return 0


def _read_text(path, what, malformed):
    """The UTF-8 text of a file; text that does not decode raises ``malformed``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SinkFailure(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise malformed(
            f"{what} {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write_text(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_plan(args):
    _check_method(args, args.budget)
    header, table = read_log_path(args.log)
    plan = plan_for_method(args.method, header, table, args.budget,
                           alpha=args.alpha, seed=args.seed)
    regime = classify_regime(args.budget)
    print(f"method={plan.method} budget={plan.budget_fraction} k={plan.k} regime={regime.label}")
    print("pruned: " + ",".join(str(l) for l in plan.pruned))
    if args.out:
        _write_text(args.out, serialize_plan(plan))
        print(f"wrote plan to {args.out}")
    return 0


def cmd_prune_eval(args):
    cfg = _load_config(args.config)
    plan = parse_plan(_read_text(args.plan, "plan", SchemaViolation))
    if plan.num_layers != cfg["model"].num_layers:
        raise PlanModelMismatch(
            f"plan num_layers {plan.num_layers} != model num_layers {cfg['model'].num_layers}")
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
    reports, plans, heatmap = sweep(cfg["model"], cfg["methods"], cfg["budgets"], cfg["seeds"],
                                    alpha=cfg["alpha"], probe_counts=cfg["probe_counts"],
                                    probe_seed=cfg["probe_seed"])
    outputs = {
        "sweep.csv": sweep_csv(reports),
        "removal_grid.csv": removal_pattern_grid(plans),
        "heatmap.csv": heatmap.to_csv(),
    }
    for name, text in outputs.items():
        path = os.path.join(out_dir, name)
        _write_text(path, text)
        print(f"wrote {path}")
    return 0


def cmd_heatmap(args):
    _, table = read_log_path(args.log)
    sys.stdout.write(heatmap_matrix(table).to_csv())
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
        "--seed": dict(type=int, default=None)})
    add("plan", cmd_plan, **{
        "--log": dict(required=True), "--method": dict(required=True),
        "--budget": dict(type=float, required=True),
        "--alpha": dict(type=float, default=DEFAULT_ALPHA),
        "--seed": dict(type=int, default=None), "--out": dict(default=None)})
    add("prune-eval", cmd_prune_eval,
        **{"--config": dict(required=True), "--plan": dict(required=True)})
    add("sweep", cmd_sweep,
        **{"--config": dict(required=True), "--out": dict(default=None)})
    add("heatmap", cmd_heatmap, **{"--log": dict(required=True)})
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
