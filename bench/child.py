"""One benchmark process: runs a workload through `depthprune.cli.main` in-process.

    python3 bench/child.py --setup --workload W --seed N
        Times one set-up (import depthprune, build_model, default_probe_sets)
        and prints it as JSON.
    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 --work DIR
        Repeats the workload body in a closed loop with one client for S
        seconds, checks the outputs and writes DIR/result.json.  With
        --trace 1 the first quarter of the time runs untraced (the base of
        the tracing overhead) and the rest traced; spans go to DIR/spans.jsonl.

The parent sets the BLAS thread count in this process's environment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import namedtuple

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
MIN_BODIES = 2          # so that every run compares two bodies' outputs byte for byte
KERNEL_REPS = 200
KERNEL_SEQ_LEN = 32
MAX_PROBLEMS = 20


def import_program():
    """Import depthprune from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import depthprune
    if not os.path.abspath(depthprune.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"depthprune was imported from {depthprune.__file__}, not {SRC}")


def setup(workload, seed):
    start = time.perf_counter()
    import_program()
    from depthprune.model import ToyModelConfig, build_model
    from depthprune.probes import default_probe_sets
    config = workloads.make_config(workload, seed, "")
    cfg = ToyModelConfig(**config["model"])
    build_model(cfg)
    default_probe_sets(cfg, config["probe_seed"], config["probe_counts"])
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_op(main, argv):
    """(latency s, exit status, stdout) of one CLI command."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # an operation that raises counts as failed, the run goes on
        status = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status, buf.getvalue()


def digest(status, stdout, paths):
    h = hashlib.sha256(repr(status).encode() + stdout.encode())
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


Body = namedtuple("Body", "wall traced results")
OpResult = namedtuple("OpResult", "latency status stdout digest")


class Session:
    """Runs bodies, keeping each operation's latency, exit status, stdout and output digest."""

    def __init__(self, ops, out_dir, tracer=None):
        from depthprune.cli import main
        self.main = main
        self.ops = ops
        self.out_dir = out_dir
        self.tracer = tracer
        self.requests = 0
        self.bodies = []

    def body(self, traced):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        tracer = self.tracer if traced else None
        results = []
        start = time.perf_counter()
        for op in self.ops:
            if tracer:
                tracer.request = self.requests
                tracer.begin(f"cli.{op.command}")
            results.append(run_op(self.main, op.argv))
            if tracer:
                tracer.end()
            self.requests += 1
        wall = time.perf_counter() - start
        self.bodies.append(Body(wall, traced, [OpResult(*r, digest(r[1], r[2], op.outputs))
                                               for r, op in zip(results, self.ops)]))

    def run_until(self, deadline, traced, minimum):
        done = 0
        while done < minimum or time.perf_counter() < deadline:
            self.body(traced)
            done += 1


def failed_operations(bodies, check_problems):
    """(failed (body, op) pairs, problems) of a run.

    An operation fails on a nonzero exit or an exception, on output that
    differs from the first body's, or on output that fails a check.  Checks
    run on the last body's output, so a check failure counts in every body
    whose output is byte-identical to the last one's.
    """
    first, last = bodies[0].results, bodies[-1].results
    failed, problems = set(), []
    for b, body in enumerate(bodies):
        for i, r in enumerate(body.results):
            if r.status != 0:
                problems.append(f"body {b} operation {i}: exit status {r.status!r}")
            elif r.digest != first[i].digest:
                problems.append(f"body {b} operation {i}: output differs from body 0")
            elif not (i in check_problems and r.digest == last[i].digest):
                continue
            failed.add((b, i))
    for i in sorted(check_problems):
        problems += check_problems[i]
    return failed, problems


def check_outputs(seed, config, ops, last):
    """{op index: problems} for the last body's outputs."""
    import checks
    ref = checks.Reference(config)
    problems = {}
    for i, (op, r) in enumerate(zip(ops, last)):
        if r.status != 0:
            continue
        try:
            if op.command == "sweep":
                files = {}
                for path in op.outputs:
                    with open(path, encoding="utf-8") as fh:
                        files[os.path.basename(path)] = fh.read()
                found = checks.check_sweep(files, config, ref, seed)
            else:
                found = checks.check_cli_output(op.command, op.argv, r.stdout, config, ref)
        except Exception as exc:  # output the checker cannot parse fails the operation
            found = [f"{op.command}: output check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
    return problems


def block_forward_us(config):
    """Median forward time of a one-block model minus that of a zero-block model, T=32."""
    from depthprune.model import Model, ToyModelConfig, build_model
    cfg = ToyModelConfig(**config["model"])
    m = build_model(cfg)
    tokens = [i % cfg.vocab_size for i in range(KERNEL_SEQ_LEN)]
    models = [Model(cfg, m.embedding, m.positional, m.blocks[:n], m.unembed) for n in (0, 1)]
    times = ([], [])
    for _ in range(KERNEL_REPS):
        for n, model in enumerate(models):
            start = time.perf_counter()
            model.logits(tokens)
            times[n].append(time.perf_counter() - start)
    return 1e6 * (statistics.median(times[1]) - statistics.median(times[0]))


def run(args):
    start = time.perf_counter()
    import_program()
    os.makedirs(args.work, exist_ok=True)
    out_dir = os.path.join(args.work, "out")
    config = workloads.make_config(args.workload, args.seed, out_dir)
    config_path = os.path.join(args.work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    ops = workloads.operations(args.workload, config_path, config)
    result = {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    session = Session(ops, out_dir, tracer)
    if args.trace:
        session.run_until(start + args.seconds / 4, traced=False, minimum=1)
        kernel_us = block_forward_us(config)
        result["missing_targets"] = tracer.install()
        try:
            session.run_until(start + args.seconds, traced=True, minimum=1)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.work, "spans.jsonl"))
    else:
        session.run_until(start + args.seconds, traced=False, minimum=MIN_BODIES)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bodies = session.bodies
    failed, problems = failed_operations(
        bodies, check_outputs(args.seed, config, ops, bodies[-1].results))
    shutil.rmtree(out_dir, ignore_errors=True)
    untraced = [b for b in bodies if not b.traced]
    result.update({
        "attempted": len(bodies) * len(ops),
        "failed": len(failed),
        "problems": problems[:MAX_PROBLEMS],
        "body_s": [b.wall for b in untraced],
        "op_s": [[op.command, r.latency] for b in untraced for op, r in zip(ops, b.results)],
    })
    if args.trace:
        traced = [b.wall for b in bodies if b.traced]
        result["per_layer"] = tracing.layer_metrics(tracer, traced,
                                                    statistics.median(result["body_s"]))
        result["per_layer"]["model.block_forward_us"] = kernel_us
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    args = parser.parse_args()
    if args.setup:
        setup(args.workload, args.seed)
    else:
        run(args)


if __name__ == "__main__":
    main()
