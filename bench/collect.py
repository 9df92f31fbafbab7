"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/collect.py --seeds 1 2 3 4 5 --workloads cli-session
    python3 bench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 11 \\
        --label "parent 33f2d3c" --out bench/results/BENCH_1.json

For every workload and seed it runs bench/run.py once untraced and prints,
per end-to-end metric, the median of the seeds and the distance between the
first and third quartiles as a share of the median (`statistics.quantiles`
with n=4).  With --trace-seed it adds one traced run per workload.  With
--out it writes every value to a JSON results file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(values):
    """(median, (q3 - q1) / median) of a list of values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {"label": args.label, "run_seconds": args.seconds,
               "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                           "platform": platform.platform()},
               "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "failed": sum(r["failed"] for _, r in runs),
                 "attempted": sum(r["attempted"] for _, r in runs),
                 "report": runs[0][0], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            median, share = spread(values)
            entry["end_to_end"][name] = {"values": values, "median": median,
                                         "iqr_share": share, "bound": bound}
            print(f"{workload:18s} {name:12s} median {median:10.4f}  spread {share:6.2%}  "
                  f"bound {bound:.0%}  {'ok' if share < bound / 3 else 'WIDE'}")
        if args.trace_seed is not None:
            report, traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_report"] = report
        print(f"{workload:18s} failed {entry['failed']} of {entry['attempted']} operations")
        results["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
