"""Outside-in tracing: spans around the program's public functions.

Nothing in `src/` is changed.  `install` replaces each traced function in
the namespace it is looked up from (a `from .x import f` binds its own
name, so every such binding is patched) and `Model.forward_with_hooks` on
the class.  Spans are kept in memory as (name, start, end, parent, request)
and written out when the run ends; a request is one CLI command.
"""

import json
import os
import statistics
import time
from collections import Counter

import depthprune.capture
import depthprune.cli
import depthprune.model
import depthprune.report
from workloads import ALL_METHODS

COMMANDS = ("capture", "score", "rank", "plan", "heatmap", "sweep")

# span name -> the (module, attribute) bindings it wraps
TARGETS = {
    "model.build_model": [(depthprune.cli, "build_model"), (depthprune.report, "build_model")],
    "probes.default_probe_sets": [(depthprune.cli, "default_probe_sets"),
                                  (depthprune.report, "default_probe_sets")],
    "model.forward": [(depthprune.model.Model, "forward_with_hooks")],
    "model.apply_prune_plan": [(depthprune.cli, "apply_prune_plan"),
                               (depthprune.report, "apply_prune_plan")],
    "capture.capture_run": [(depthprune.cli, "capture_run"), (depthprune.report, "capture_run")],
    "linalg.token_cosine_mean": [(depthprune.capture, "token_cosine_mean")],
    "linalg.mean_pool": [(depthprune.capture, "mean_pool")],
    "actlog.write": [(depthprune.cli, "write_log_path")],
    "actlog.read": [(depthprune.cli, "read_log_path")],
    "scoring.aggregate_domain": [(depthprune.cli, "aggregate_domain"),
                                 (depthprune.report, "aggregate_domain")],
    "scoring.znormalize": [(depthprune.cli, "znormalize"), (depthprune.report, "znormalize")],
    "scoring.heatmap_matrix": [(depthprune.cli, "heatmap_matrix"),
                               (depthprune.report, "heatmap_matrix")],
    "baselines.cka_rank": [(depthprune.cli, "cka_rank"), (depthprune.report, "cka_rank")],
    "baselines.interlace_plan": [(depthprune.report, "interlace_plan")],
    "baselines.random_plan": [(depthprune.report, "random_plan")],
    "report.plan_for_method": [(depthprune.cli, "plan_for_method"),
                               (depthprune.report, "plan_for_method")],
    "report.fidelity": [(depthprune.cli, "fidelity"), (depthprune.report, "fidelity")],
    "report.sweep": [(depthprune.cli, "sweep")],
}


def forward_flops(seq_len, depth, d, vocab):
    """Matmul FLOPs of one forward, computed from the shapes (elementwise work excluded)."""
    per_block = 24 * seq_len * d * d + 4 * seq_len * seq_len * d
    return depth * per_block + 2 * seq_len * d * vocab


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span and counter recorder; `install` wraps the program, `uninstall` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, start, end, parent index, request]
        self.stack = []
        self.request = None
        self.counters = Counter()
        self.keys = {}         # unique-ratio name -> set of input hashes
        self._saved = []

    def begin(self, name):
        self.stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None,
                           self.stack[-2] if len(self.stack) > 1 else None, self.request])

    def end(self):
        self.spans[self.stack.pop()][2] = self.clock()

    def note_unique(self, name, key):
        self.keys.setdefault(name, set()).add(hash(key))

    def _observe(self, name, args, kwargs, result):
        """Counters measured where the work happens."""
        if name == "model.forward":
            model, tokens = args[0], args[1]
            cfg = model.config
            self.counters["model.forward.blocks"] += len(model.blocks)
            self.counters["model.forward.flops"] += forward_flops(
                len(tokens), len(model.blocks), cfg.hidden_dim, cfg.vocab_size)
            self.note_unique("model.forward",
                             (self.request, cfg, tuple(model.layer_ids), tuple(tokens)))
        elif name == "report.fidelity":
            base, pruned = _arg(args, kwargs, 0, "base"), _arg(args, kwargs, 1, "pruned")
            domain = _arg(args, kwargs, 2, "probes").domain
            self.note_unique("report.fidelity",
                             (self.request, base.config, tuple(pruned.layer_ids), domain))
        elif name == "probes.default_probe_sets":
            self.counters["probes.samples"] += sum(ps.num_samples for ps in result)
        elif name == "capture.capture_run":
            self.counters["capture.records"] += len(result[1])
        elif name == "actlog.write":
            self.counters["actlog.bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = name
            if name == "report.plan_for_method":
                span = f"{name}.{_arg(args, kwargs, 0, 'method')}"
            tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; returns the names of targets not found."""
        missing = []
        for name, bindings in TARGETS.items():
            for owner, attr in bindings:
                fn = getattr(owner, attr, None)
                if fn is None:
                    missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
        return missing

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - union_length(children[i])
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer, traced_body_s, untraced_run_s):
    """Per-layer metrics, per body, from the traced bodies' spans and wall times."""
    bodies = len(traced_body_s)
    total, self_s, calls = Counter(), Counter(), Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        total[span[0]] += span[2] - span[1]
        self_s[span[0]] += own
        calls[span[0]] += 1
    top_level = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
    c = tracer.counters

    def per_body(value):
        return value / bodies

    def ms_per_call(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    def unique_ratio(name):
        return len(tracer.keys.get(name, ())) / calls[name] if calls[name] else 0.0

    m = {
        "probes.default_probe_sets.s": per_body(total["probes.default_probe_sets"]),
        "probes.samples": per_body(c["probes.samples"]),
        "model.build_model.s": per_body(total["model.build_model"]),
        "model.forward.calls": per_body(calls["model.forward"]),
        "model.forward.blocks": per_body(c["model.forward.blocks"]),
        "model.forward.self_s": per_body(self_s["model.forward"]),
        "model.forward.ms_per_call": (1e3 * self_s["model.forward"] / calls["model.forward"]
                                      if calls["model.forward"] else 0.0),
        "model.forward.unique_ratio": unique_ratio("model.forward"),
        "model.forward.gflop_s": (c["model.forward.flops"] / self_s["model.forward"] / 1e9
                                  if self_s["model.forward"] else 0.0),
        "model.apply_prune_plan.calls": per_body(calls["model.apply_prune_plan"]),
        "model.apply_prune_plan.s": per_body(total["model.apply_prune_plan"]),
        "capture.capture_run.self_s": per_body(self_s["capture.capture_run"]),
        "capture.records": per_body(c["capture.records"]),
        "linalg.token_cosine_mean.calls": per_body(calls["linalg.token_cosine_mean"]),
        "linalg.token_cosine_mean.s": per_body(total["linalg.token_cosine_mean"]),
        "linalg.mean_pool.s": per_body(total["linalg.mean_pool"]),
        "actlog.write.s": per_body(total["actlog.write"]),
        "actlog.bytes": per_body(c["actlog.bytes"]),
        "actlog.read.s": per_body(total["actlog.read"]),
        "actlog.read.calls": per_body(calls["actlog.read"]),
        "scoring.aggregate_domain.s": per_body(total["scoring.aggregate_domain"]),
        "scoring.znormalize.s": per_body(total["scoring.znormalize"]),
        "scoring.heatmap_matrix.s": per_body(total["scoring.heatmap_matrix"]),
        "baselines.cka_rank.s": per_body(total["baselines.cka_rank"]),
        "baselines.interlace_plan.s": per_body(total["baselines.interlace_plan"]),
        "baselines.random_plan.s": per_body(total["baselines.random_plan"]),
    }
    for method in ALL_METHODS:
        m[f"report.plan_for_method.{method}.ms"] = ms_per_call(f"report.plan_for_method.{method}")
    m.update({
        "report.fidelity.calls": per_body(calls["report.fidelity"]),
        "report.fidelity.self_s": per_body(self_s["report.fidelity"]),
        "report.fidelity.unique_ratio": unique_ratio("report.fidelity"),
        "report.sweep.self_s": per_body(self_s["report.sweep"]),
    })
    for command in COMMANDS:
        m[f"cli.{command}.ms"] = ms_per_call(f"cli.{command}")
    m["trace.overhead_ratio"] = statistics.median(traced_body_s) / untraced_run_s - 1.0
    m["trace.top_level_coverage"] = top_level / sum(traced_body_s)
    return m
