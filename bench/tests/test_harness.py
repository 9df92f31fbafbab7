"""Tests of the benchmark harness's own logic (run: python -m pytest bench/tests)."""

import json
import os

import numpy as np
import pytest

import checks
import child
import run
import tracer
from depthprune.cli import main as cli_main
from depthprune.model import ToyModelConfig, apply_prune_plan, build_model
from depthprune.planner import PrunePlan

SMALL = {"model": {"num_layers": 6, "hidden_dim": 16, "num_heads": 2, "seed": 3},
         "probe_counts": {"math": 1, "nonmath": 1}, "probe_seed": 5,
         "methods": ["ours-mixed", "cka", "interlace", "random"],
         "budgets": [0.1, 0.25, 0.4], "alpha": 0.7, "seeds": [4, 9]}


def declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_self_time_subtracts_union_of_children():
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 3.0, 6.0, 0, 0],     # overlaps a: the union 1..6 is covered once
             ["c", 2.0, 3.0, 1, 0],
             ["d", 8.0, 9.0, 0, 0]]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_tracer_nests_spans_under_their_caller():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    t.request = 7
    t.begin("outer")
    t.begin("inner")
    t.end()
    t.end()
    t.begin("next")
    t.end()
    assert t.spans == [["outer", 0.0, 3.0, None, 7], ["inner", 1.0, 2.0, 0, 7],
                       ["next", 4.0, 5.0, None, 7]]
    assert tracer.self_times(t.spans) == [2.0, 1.0, 1.0]


def test_percentile_is_nearest_rank_with_count_beyond():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(values, 50) == (50, 50)
    assert run.percentile([3.0], 90) == (3.0, 0)
    assert run.percentile(list(range(1, 11)), 90) == (9, 1)


def test_printed_end_to_end_names_equal_declared():
    result = {"body_s": [1.0, 2.0], "op_s": [["sweep", 1.0]], "peak_rss_mb": 50.0,
              "failed": 0, "attempted": 2}
    metrics, lines = run.end_to_end(result, [0.2, 0.3], "sweep-readme")
    assert sorted(metrics) == sorted(declared("end_to_end"))
    assert sorted(run.declared_metrics(0)) == sorted(declared("end_to_end"))


def test_printed_per_layer_names_equal_declared():
    metrics = tracer.layer_metrics(tracer.Tracer(), [1.0], 1.0)
    metrics["model.block_forward_us"] = 1.0
    assert sorted(metrics) == sorted(declared("per_layer"))


def test_benchmark_workloads_are_the_harness_workloads():
    assert sorted(declared("workloads")) == sorted(run.SPECS)


def test_reference_forward_matches_the_model():
    model = build_model(ToyModelConfig(**SMALL["model"]))
    tokens = [5, 1, 63, 2, 9, 9, 0]
    states, logits = checks.reference_forward(model, tokens)
    trace = model.forward_with_hooks(tokens)
    assert np.allclose(logits, trace.logits, rtol=0, atol=1e-12)
    assert all(np.allclose(s, h, rtol=0, atol=1e-12) for s, h in zip(states[1:], trace.h_out))
    plan = PrunePlan(method="cka", budget_fraction=0.5, k=2, num_layers=6,
                     protected=frozenset({0, 5}), pruned=(2, 3))
    _, pruned_logits = checks.reference_forward(model, tokens, skip={2, 3})
    assert np.allclose(pruned_logits, apply_prune_plan(model, plan).logits(tokens),
                       rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    config = dict(SMALL, out=str(work))
    path = work / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(path)]) == 0
    files = {name: (work / name).read_text()
             for name in ("sweep.csv", "removal_grid.csv", "heatmap.csv")}
    return config, files, checks.Reference(config)


def test_checker_accepts_the_programs_sweep(small_sweep, monkeypatch):
    config, files, ref = small_sweep
    monkeypatch.setattr(checks, "CHECKED_SWEEP_ROWS", 10 ** 6)
    assert checks.check_sweep(files, config, ref, seed=0) == []


def test_checker_rejects_a_perturbed_sweep_row(small_sweep, monkeypatch):
    config, files, ref = small_sweep
    monkeypatch.setattr(checks, "CHECKED_SWEEP_ROWS", 10 ** 6)
    lines = files["sweep.csv"].splitlines()
    row = lines[5].split(",")
    row[6] = repr(float(row[6]) * (1 + 1e-5) + 1e-8)      # mean_kl
    lines[5] = ",".join(row)
    problems = checks.check_sweep(dict(files, **{"sweep.csv": "\n".join(lines) + "\n"}),
                                  config, ref, seed=0)
    assert len(problems) == 1 and "mean_kl" in problems[0]


def test_checker_rejects_a_plan_that_prunes_an_endpoint(small_sweep):
    config, files, ref = small_sweep
    lines = files["removal_grid.csv"].splitlines()
    method, budget, *cells = lines[2].split(",")
    cells[0] = "1"
    lines[2] = ",".join([method, budget] + cells)
    problems = checks.check_sweep(dict(files, **{"removal_grid.csv": "\n".join(lines) + "\n"}),
                                  config, ref, seed=0)
    assert any("endpoint" in p for p in problems)
    assert checks.check_plan("cka", 0.25, (0, 4), 12)
    argv = ["plan", "--method", "cka", "--budget", "0.4"]
    assert checks.check_cli_output("plan", argv, "pruned: 5\n", config, ref)
    assert checks.check_cli_output("plan", argv, "pruned: 2\n", config, ref) == []


def test_failed_operations_counts_exits_drift_and_check_failures():
    def body(*digests, status=0):
        return child.Body(1.0, False, [child.OpResult(0.1, status, "", d) for d in digests])

    bodies = [body("a", "x"), body("a", "x"), body("a", "y"), body("a", "x", status=2)]
    failed, problems = child.failed_operations(bodies, {})
    assert failed == {(2, 1), (3, 0), (3, 1)}
    assert len(problems) == 3
    failed, problems = child.failed_operations(bodies[:3], {0: ["wrong heatmap"]})
    assert failed == {(0, 0), (1, 0), (2, 0), (2, 1)}
    assert problems[-1] == "wrong heatmap"
