"""depthprune benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload sweep-readme --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from its
src/.  The workload runs in a fresh child process (BLAS threads fixed at 1)
through `depthprune.cli.main`, a closed loop with one client.  With
--trace 0 set-up is also timed in separate fresh processes and the
end-to-end metrics are printed; with --trace 1 the per-layer metrics of an
outside-in trace are printed.  Each metric line gives its unit and sample
count; the last line is one JSON object with the metrics declared in
BENCHMARK.json.  Exits nonzero, printing no result, if the run cannot be
made at all.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import SPECS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(ROOT, "bench_out")
SETUP_REPEATS = 7
TIME_LIMIT_S = 170       # the whole run, set-up children included
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, pct):
    """Nearest-rank percentile: (value, number of samples strictly beyond its rank)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    return env


def run_child(argv, deadline):
    """Run a child to completion; returns its stdout, raising on failure or timeout."""
    proc = subprocess.run([sys.executable, CHILD] + argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited with {proc.returncode}")
    return proc.stdout


def end_to_end(result, setups, workload):
    """(metrics for the JSON line, human-readable lines) of an untraced run."""
    bodies = result["body_s"]
    ops = result["op_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(bodies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [
        f"setup_s        {metrics['setup_s']:.4f} s   median of n={len(setups)} fresh processes",
        f"run_s          {metrics['run_s']:.4f} s   median of n={len(bodies)} bodies",
        f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB  n=1 process (ru_maxrss)",
        f"failed_ratio   {result['failed'] / result['attempted']:.4f} 1   "
        f"{result['failed']} of n={result['attempted']} operations",
    ]
    if workload == "cli-session":
        captures = [s for cmd, s in ops if cmd == "capture"]
        analysis = [1e3 * s for cmd, s in ops if cmd != "capture"]
        p90, beyond = percentile(analysis, 90)
        lines += [
            f"capture_cmd_s  {statistics.median(captures):.4f} s   "
            f"median of n={len(captures)} capture commands",
            f"cmd_p50_ms     {statistics.median(analysis):.3f} ms  "
            f"median of n={len(analysis)} analysis commands",
            f"cmd_p90_ms     {p90:.3f} ms  p90 of n={len(analysis)}, {beyond} beyond it",
        ]
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "depthprune", "__init__.py")):
        print(f"no depthprune sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            json.loads(run_child(common + ["--setup"], deadline))["setup_s"]
            for _ in range(SETUP_REPEATS)]
        run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--work", work], deadline)
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"BLAS threads {result['blas_threads']}")
    if args.trace:
        metrics = result["per_layer"]
        for name, unit in units.items():
            print(f"{name:40s} {metrics[name]:.6g} {unit}")
        if result["missing_targets"]:
            print("not traced (not found): " + ", ".join(result["missing_targets"]))
    else:
        metrics, lines = end_to_end(result, setups, args.workload)
        print("\n".join(lines))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
