"""Command-line entry point for the depth-pruning pipeline.

Subcommands: capture, score, rank, plan, prune-eval, sweep, heatmap.
Flags override config-file values.  Exit codes: 0 success, 1 validation
error, 2 runtime error.
"""

import argparse
import functools
import os
import re
import sys
from dataclasses import fields

from . import __version__
from .actlog import read_log_path, read_path, write_log_path, write_path
from .baselines import cka_rank  # noqa: F401  (bench/tracer.py wraps it in this module)
from .capture import capture_run, print_clamped
from .errors import DepthPruneError, InvalidConfig, PlanModelMismatch, SchemaViolation, load_json
from .model import ToyModelConfig, apply_prune_plan, build_model
from .planner import parse_plan, serialize_plan
from .probes import default_probe_sets
from .report import (RunConfig, classify_regime, fidelity, heatmap_matrix, method_scores,
                     plan_for_method, removal_pattern_grid, sweep, sweep_csv)
from .scoring import DEFAULT_ALPHA, aggregate_domain, znormalize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path):
    """Read and fully validate a run config, before anything is built or computed."""
    text = read_path(path, "config", InvalidConfig, lambda fh: fh.read())
    raw = load_json(text, InvalidConfig, f"config {path}: invalid JSON")
    try:
        if not isinstance(raw, dict):
            raise InvalidConfig("is not a JSON object")
        model = raw.get("model", {})
        if not isinstance(model, dict):
            raise InvalidConfig("model: expected an object")
        for names, cls, what in ((raw, RunConfig, "key"), (model, ToyModelConfig, "model field")):
            unknown = sorted(set(names) - {f.name for f in fields(cls)})
            if unknown:
                raise InvalidConfig(f"unknown {what} {unknown[0]!r}")
        return RunConfig(**{**raw, "model": ToyModelConfig(**model)})
    except DepthPruneError as exc:  # every config fault is an InvalidConfig
        raise InvalidConfig(f"config {path}: {exc}") from exc


def cmd_capture(args):
    run = _load_config(args.config)
    out = args.out or os.path.join(run.out, "activations.log")
    model = build_model(run.model)
    probe_sets = default_probe_sets(run.model, run.probe_seed, run.probe_counts)
    clamped, table = capture_run(model, probe_sets)
    write_log_path(table, path=out)
    print(f"wrote {len(table)} records to {out}")
    print_clamped(clamped, table)
    return 0


def cmd_score(args):
    table = read_log_path(args.log)
    # every domain of the header is scored before any line is printed, so a failure prints nothing
    for scores in [znormalize(aggregate_domain(table, d.domain)) for d in table.header.domains]:
        print(f"domain={scores.domain} n={scores.sample_count} "
              f"mu={scores.mu:.6f} sigma={scores.sigma:.6f}")
        for layer in scores.raw:
            print(f"  layer {layer:3d}  raw={scores.raw[layer]:+.6f}  "
                  f"norm={scores.normalized[layer]:+.6f}")
    return 0


def _check_flags(args, budget=None):
    """Reject a bad --method, --budget, --alpha or missing --seed before the log is read."""
    if args.method == "interlace" and budget is None:
        raise InvalidConfig("method interlace ranks only under a budget: use plan --budget")
    RunConfig(methods=(args.method,), budgets=() if budget is None else (budget,),
              alpha=args.alpha, seeds=() if args.seed is None else (args.seed,))
    if args.method == "random" and args.seed is None:
        raise InvalidConfig("method random requires --seed for reproducibility")


def cmd_rank(args):
    _check_flags(args)
    table = read_log_path(args.log)
    scores, order = method_scores(args.method, table, args.alpha, args.seed)
    for layer in order:
        print(f"{layer}\t{scores[layer]:+.6f}")
    return 0


def cmd_plan(args):
    _check_flags(args, args.budget)
    table = read_log_path(args.log)
    plan = plan_for_method(args.method, table, args.budget, alpha=args.alpha, seed=args.seed)
    regime = classify_regime(args.budget)
    if args.out:  # a failed write prints nothing; a plan that cannot be serialized opens no file
        text = serialize_plan(plan)
        write_path(args.out, "plan", lambda fh: fh.write(text))
    print(f"method={plan.method} budget={plan.budget_fraction} k={plan.k} regime={regime}")
    print("pruned: " + ",".join(str(l) for l in plan.pruned))
    if args.out:
        print(f"wrote plan to {args.out}")
    return 0


def cmd_prune_eval(args):
    run = _load_config(args.config)
    plan = parse_plan(read_path(args.plan, "plan", SchemaViolation, lambda fh: fh.read()))
    if plan.num_layers != run.model.num_layers:
        raise PlanModelMismatch(
            f"plan num_layers {plan.num_layers} != model num_layers {run.model.num_layers}")
    model = build_model(run.model)
    pruned = apply_prune_plan(model, plan)
    probe_sets = default_probe_sets(run.model, run.probe_seed, run.probe_counts)
    print("method,budget,domain,top1_agreement,final_hidden_cosine,mean_kl,num_probes")
    for ps in probe_sets:
        rep = fidelity(model, pruned, ps)
        print(",".join([plan.method, repr(float(plan.budget_fraction)), rep.domain,
                        repr(rep.top1_agreement), repr(rep.final_hidden_cosine),
                        repr(rep.mean_kl), str(rep.num_probes)]))
    return 0


def cmd_sweep(args):
    run = _load_config(args.config)
    out_dir = args.out or run.out
    rows, plans, heatmap = sweep(run)
    outputs = {
        "sweep.csv": sweep_csv(rows),
        "removal_grid.csv": removal_pattern_grid(plans),
        "heatmap.csv": heatmap.to_csv(),
    }
    for name, text in outputs.items():
        path = os.path.join(out_dir, name)
        write_path(path, "sweep output", lambda fh: fh.write(text))
        print(f"wrote {path}")
    return 0


def cmd_heatmap(args):
    table = read_log_path(args.log)
    sys.stdout.write(heatmap_matrix(table).to_csv())
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process from constants and shared by every ``main``.

    Parsing leaves it unchanged, so no call's flags carry into the next; a
    caller must not add to it.
    """
    parser = _Parser(prog="depthprune",
                     description="Layer-redundancy analysis and structured depth pruning")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        # no flag looks like a number, so a flag's value may be any negative float
        # (-1e-05, -inf), not only argparse's -N and -N.N
        p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
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
    args = build_parser().parse_args(argv)
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
