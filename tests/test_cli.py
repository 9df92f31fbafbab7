import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from depthprune import cli, report
from depthprune.actlog import (_COLUMNS, ActivationTable, DomainInfo, LogHeader, _header_to_json,
                               read_log_path, write_log_path)
from depthprune.capture import capture_run
from depthprune.cli import main
from depthprune.errors import BudgetInfeasible, SchemaViolation
from depthprune.model import ToyModelConfig, build_model, default_protected, neutralize_block
from depthprune.planner import METHODS, PrunePlan, budget_k, serialize_plan
from depthprune.probes import MATH_SUBTASKS, NONMATH_SUBTASKS, default_probe_sets

CONFIG = {
    "model": {"num_layers": 8, "hidden_dim": 32, "num_heads": 4},
    "probe_counts": {"math": 2, "nonmath": 2},
    "probe_seed": 0,
    "methods": ["ours-mixed", "random"],
    "budgets": [0.25],
    "seeds": [0],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    log = root / "activations.log"
    assert main(["capture", "--config", str(config), "--out", str(log)]) == 0
    return root


def test_capture_deterministic_bytes(workdir):
    other = workdir / "again.log"
    assert main(["capture", "--config", str(workdir / "config.json"),
                 "--out", str(other)]) == 0
    assert other.read_bytes() == (workdir / "activations.log").read_bytes()


def test_score_prints_both_domains(workdir, capsys):
    assert main(["score", "--log", str(workdir / "activations.log")]) == 0
    out = capsys.readouterr().out
    assert "domain=math" in out and "domain=nonmath" in out


def test_rank_alpha_zero_equals_math(workdir, capsys):
    log = str(workdir / "activations.log")
    assert main(["rank", "--log", log, "--method", "ours-math"]) == 0
    math_out = capsys.readouterr().out
    assert main(["rank", "--log", log, "--method", "ours-mixed", "--alpha", "0.0"]) == 0
    assert capsys.readouterr().out == math_out


def test_rank_random_requires_seed(workdir, capsys):
    assert main(["rank", "--log", str(workdir / "activations.log"),
                 "--method", "random"]) == 1
    assert "seed" in capsys.readouterr().err


def test_rank_interlace_requires_budget(workdir, capsys):
    assert main(["rank", "--log", str(workdir / "activations.log"),
                 "--method", "interlace"]) == 1
    assert "budget" in capsys.readouterr().err


def test_rank_unknown_method(workdir, capsys):
    assert main(["rank", "--log", str(workdir / "activations.log"),
                 "--method", "bogus"]) == 1


def test_plan_then_prune_eval(workdir, capsys):
    log = str(workdir / "activations.log")
    plan_path = workdir / "plan.json"
    assert main(["plan", "--log", log, "--method", "ours-mixed",
                 "--budget", "0.25", "--out", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert "method=ours-mixed" in out and "regime=transition" in out
    assert plan_path.exists()
    assert main(["prune-eval", "--config", str(workdir / "config.json"),
                 "--plan", str(plan_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("method,budget,domain")
    assert len(lines) == 3  # header + one row per domain
    # the labels come from the plan file
    assert all(line.startswith("ours-mixed,0.25,") for line in lines[1:])


def test_prune_eval_of_a_written_plan_prints_the_sweeps_rows(workdir, tmp_path, capsys):
    # prune-eval's one-leaf fidelity walk and the sweep's shared trie walk agree, through the
    # plan file of every method: its rows are the sweep's for that cell, less the seed column
    budgets, seeds = ("0.1", "0.25", "0.4"), ("0", "3")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, methods=list(METHODS),
                                      budgets=[float(b) for b in budgets],
                                      seeds=[int(s) for s in seeds])))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sweep_rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    log, plan = str(workdir / "activations.log"), str(tmp_path / "plan.json")
    for method in METHODS:
        for budget in budgets:
            for seed in seeds:
                assert main(["plan", "--log", log, "--method", method, "--budget", budget,
                             "--seed", seed, "--out", plan]) == 0
                capsys.readouterr()
                assert main(["prune-eval", "--config", str(config), "--plan", plan]) == 0
                lines = capsys.readouterr().out.splitlines()
                want = [",".join(row[:3] + row[4:]) for row in sweep_rows[1:]
                        if row[:2] == [method, budget] and row[3] == seed]
                assert len(want) == 2 and lines[1:] == want, (method, budget, seed)


def test_sweep_writes_three_files_idempotently(workdir, capsys):
    config = str(workdir / "config.json")
    out1, out2 = workdir / "out1", workdir / "out2"
    assert main(["sweep", "--config", config, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", config, "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("sweep.csv", "removal_grid.csv", "heatmap.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_heatmap_equals_the_heatmap_of_its_log(workdir, tmp_path, capsys):
    # sweep averages the sims it captured, heatmap the ones its log holds: both are float32
    assert main(["sweep", "--config", str(workdir / "config.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["heatmap", "--log", str(workdir / "activations.log")]) == 0
    assert capsys.readouterr().out == (tmp_path / "heatmap.csv").read_text()


def test_sweep_skips_an_infeasible_cell(tmp_path, capsys):
    # on the default 12-layer model interlace spaces only 4 removals, so
    # budget 0.5 (5 of 10 layers) cannot be met; the other three cells can
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"probe_counts": {"math": 1, "nonmath": 1},
                                  "methods": ["ours-mixed", "interlace"],
                                  "budgets": [0.25, 0.5], "seeds": [0]}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert re.fullmatch(r"clamped \d+ of \d+ sims to \[-1, 1\]", err[0])
    assert err[1].startswith("skipped interlace at budget 0.5: ")
    cells = {tuple(line.split(",")[:2])
             for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]}
    assert cells == {("ours-mixed", "0.25"), ("ours-mixed", "0.5"), ("interlace", "0.25")}
    grid = [line.split(",")[:2] for line in (tmp_path / "removal_grid.csv").read_text()
            .splitlines()[2:]]
    assert grid == [["interlace", "0.25"], ["ours-mixed", "0.25"], ["ours-mixed", "0.5"]]


def test_sweep_reports_clamped_sims_on_stderr(workdir, tmp_path, capsys, monkeypatch):
    # the count is capture's, printed in capture's words
    def clamps_five(*args):
        return 5, capture_run(*args)[1]

    monkeypatch.setattr(report, "capture_run", clamps_five)
    config = str(workdir / "config.json")
    assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
    records = len(read_log_path(workdir / "activations.log"))
    assert capsys.readouterr().err == f"clamped 5 of {records} sims to [-1, 1]\n"


def test_heatmap_of_a_log_whose_tag_breaks_a_csv_cell_exits_one(workdir, tmp_path, capsys):
    # a tag of "Math,CoT\nx" would split its row over two lines and add a column
    lines = (workdir / "activations.log").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["domains"][0]["subtasks"][0] = "Math,CoT\nx"
    log = tmp_path / "comma-tag.log"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert main(["heatmap", "--log", str(log)]) == 1
    assert capsys.readouterr() == ("", "SchemaViolation: domains: subtasks: 'Math,CoT\\nx' "
                                       "holds a comma, a quote or a line break\n")


def test_heatmap_stdout(workdir, capsys):
    assert main(["heatmap", "--log", str(workdir / "activations.log")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("subtask,layer_0")
    assert len(out.strip().split("\n")) == 10


def test_invalid_config_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {}, "bogus_key": 1}))
    assert main(["capture", "--config", str(bad), "--out", str(tmp_path / "x.log")]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_invalid_config_bad_alpha(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": 1.5}))
    assert main(["capture", "--config", str(bad), "--out", str(tmp_path / "x.log")]) == 1
    assert "alpha" in capsys.readouterr().err


def test_missing_log_is_runtime_error(tmp_path, capsys):
    assert main(["score", "--log", str(tmp_path / "nope.log")]) == 2


def test_argparse_error_exits_one(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--log", str(workdir / "activations.log")])  # missing --method
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("bad,field", [
    ({"seeds": ["x"]}, "seeds"),
    ({"seeds": [1.5]}, "seeds"),
    ({"probe_seed": "0"}, "probe_seed: '0' is not an integer"),
    ({"methods": ["ours-mixed", "bogus"]}, "bogus"),
    ({"budgets": [1.5]}, "budgets"),
    ({"budgets": [-0.1]}, "budgets"),
    ({"budgets": ["0.1"]}, "budgets"),
    ({"alpha": "0.7"}, "alpha"),
    ({"probe_counts": {"math": 0, "nonmath": 2}}, "probe_counts"),
    ({"probe_counts": {"math": 2.5, "nonmath": 2}}, "probe_counts"),
    ({"probe_counts": {"math": {"Math-CoT": -1}, "nonmath": 2}}, "probe_counts"),
    ({"probe_counts": {"math": {"Bogus": 1}, "nonmath": 2}}, "Bogus"),
    ({"probe_counts": {"math": 2}}, "probe_counts"),
    ({"model": {"num_layers": "12"}}, "num_layers"),
    ({"probe_counts": {"math": {}, "nonmath": 2}}, "probe_counts"),
    ({"model": {"num_heads": True}}, "num_heads"),
    # a map that names only some subtasks would capture a header of empty subtasks
    ({"probe_counts": {"math": {"Math-CoT": 1}, "nonmath": 1}},
     "probe_counts math: missing subtask 'Math-Direct'"),
    # weights no numpy array can hold: refused before any allocation, not a late ValueError
    ({"model": {"vocab_size": 10 ** 30}}, "vocab_size=1000000000000000000000000000000"),
    ({"model": {"hidden_dim": 2 ** 40}}, "hidden_dim=1099511627776"),
])
@pytest.mark.parametrize("command", ["capture", "sweep"])
def test_invalid_config_fails_before_building_a_model(tmp_path, capsys, monkeypatch,
                                                      bad, field, command):
    def no_model(config):
        raise AssertionError("a model was built from an invalid config")

    monkeypatch.setattr(cli, "build_model", no_model)
    monkeypatch.setattr(report, "build_model", no_model)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CONFIG, **bad}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig:") and field in err


@pytest.mark.parametrize("command", ["capture", "sweep"])
def test_a_config_that_is_not_json_exits_one(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {}')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"InvalidConfig: config {path}: invalid JSON (Expecting ',' delimiter)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on integer digits")
@pytest.mark.parametrize("command", ["capture", "sweep"])
def test_a_config_with_an_over_long_integer_exits_one(tmp_path, capsys, command):
    # json refuses an integer literal past Python's digit limit with a plain ValueError
    path = tmp_path / "long.json"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text(json.dumps(CONFIG).replace('"probe_seed": 0', f'"probe_seed": {digits}'))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert re.match(rf"InvalidConfig: config {re.escape(str(path))}: invalid JSON \(.*limit",
                    capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["methods", "budgets", "seeds"])
def test_sweep_rejects_an_empty_grid_before_building_a_model(tmp_path, capsys, monkeypatch,
                                                             key):
    # capture accepts these lists; a sweep has no cell without one of each
    def no_model(config):
        raise AssertionError("a model was built for an empty sweep")

    monkeypatch.setattr(report, "build_model", no_model)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({**CONFIG, key: []}))
    assert main(["capture", "--config", str(path), "--out", str(tmp_path / "a.log")]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "InvalidConfig: a sweep needs at least one method, one budget and one seed\n")
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_repeated_entry_before_building_a_model(tmp_path, capsys, monkeypatch):
    # this grid would write each of its rows 8 times
    def no_model(config):
        raise AssertionError("a model was built for a sweep with a repeated entry")

    monkeypatch.setattr(report, "build_model", no_model)
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({**CONFIG, "methods": ["cka", "cka"], "budgets": [0.25, 0.25],
                                "seeds": [0, 0]}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"InvalidConfig: config {path}: methods: 'cka' is listed twice\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["rank", "--method", "bogus"], "bogus"),
    (["rank", "--method", "random"], "seed"),
    (["rank", "--method", "interlace"], "budget"),
    (["plan", "--method", "cka", "--budget", "-0.5"], "budget"),
    (["rank", "--method", "ours-mixed", "--alpha", "2"], "alpha"),
    (["plan", "--method", "bogus", "--budget", "0.25"], "bogus"),
    (["plan", "--method", "cka", "--budget", "1.5"], "budget"),
    (["plan", "--method", "random", "--budget", "0.25"], "seed"),
])
def test_rank_and_plan_check_flags_before_reading_the_log(tmp_path, capsys, argv, message):
    # the log does not exist: reading it first would exit 2
    assert main(argv + ["--log", str(tmp_path / "missing.log")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,error", [
    (["plan", "--method", "cka", "--budget", "-1e-05"], "BudgetOutOfRange"),
    (["plan", "--method", "cka", "--budget", "-5e-1"], "BudgetOutOfRange"),
    (["plan", "--method", "cka", "--budget", "-1E3"], "BudgetOutOfRange"),
    (["plan", "--method", "cka", "--budget", "-inf"], "BudgetOutOfRange"),
    (["plan", "--method", "cka", "--budget", "-NaN"], "BudgetOutOfRange"),
    (["rank", "--method", "ours-mixed", "--alpha", "-1e+16"], "AlphaOutOfRange"),
    (["rank", "--method", "ours-mixed", "--alpha", "-Infinity"], "AlphaOutOfRange"),
])
def test_negative_floats_in_any_form_reach_the_range_checks(tmp_path, capsys, argv, error):
    # argparse on its own takes only -N and -N.N as a flag's value
    assert main(argv + ["--log", str(tmp_path / "missing.log")]) == 1
    assert capsys.readouterr().err.startswith(f"{error}: ")


@pytest.mark.parametrize("argv", [
    ["rank", "--method", "cka", "--budget", "0.25"],
    ["rank", "--method", "cka", "--out", "plan.json"],
    ["sweep", "--alpha", "0.5"],
    ["sweep", "--seed", "1"],
    ["heatmap", "--out", "heatmap.csv"],
])
def test_removed_flags_are_unrecognized(workdir, capsys, argv):
    option = "--config" if argv[0] == "sweep" else "--log"
    source = "config.json" if argv[0] == "sweep" else "activations.log"
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [option, str(workdir / source)] + argv[1:])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,what", [
    (["capture", "--config", "{missing}"], "config"),
    (["sweep", "--config", "{missing}"], "config"),
    (["prune-eval", "--config", "{missing}", "--plan", "{missing}"], "config"),
    (["prune-eval", "--config", "{config}", "--plan", "{missing}"], "plan"),
])
def test_unreadable_config_or_plan_exits_two(workdir, tmp_path, capsys, argv, what):
    paths = {"missing": tmp_path / "missing.json", "config": workdir / "config.json"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"SinkFailure: cannot read {what} {tmp_path / 'missing.json'}: ")


@pytest.mark.parametrize("key,value", [
    ("budget_fraction", "0.25"),
    ("num_layers", "8"),
    ("protected", 5),
    ("protected", [0, "7"]),
    ("pruned", "3"),
    ("scores", [1, 2]),
    ("pruned", [3.0]),
    ("k", True),
    ("alpha", "x"),
    ("scores", {"2": -1.5, "02": 3.0, "1_0": 0.75}),
    ("alpha", 5.0),
    ("alpha", -0.1),
    ("budget_fraction", 5.0),
    ("budget_fraction", -0.1),
])
def test_wrong_plan_types_exit_one(workdir, tmp_path, capsys, key, value):
    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--log", str(workdir / "activations.log"), "--method", "ours-mixed",
                 "--budget", "0.25", "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    plan[key] = value
    plan_path.write_text(json.dumps(plan))
    capsys.readouterr()
    assert main(["prune-eval", "--config", str(workdir / "config.json"),
                 "--plan", str(plan_path)]) == 1
    assert capsys.readouterr().err.startswith(f"SchemaViolation: plan: {key}: ")


@pytest.mark.parametrize("argv,what,target", [
    (["capture", "--config", "{config}", "--out", "{dir}"], "log", "{dir}"),
    (["plan", "--log", "{log}", "--method", "cka", "--budget", "0.25", "--out", "{dir}"],
     "plan", "{dir}"),
    # a file where the output directory must go
    (["sweep", "--config", "{config}", "--out", "{log}"], "sweep output", "{log}/sweep.csv"),
], ids=["capture", "plan", "sweep"])
def test_unwritable_output_exits_two(workdir, tmp_path, capsys, argv, what, target):
    paths = {"config": workdir / "config.json", "log": workdir / "activations.log",
             "dir": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    *before, last = err.splitlines()
    assert last.startswith(f"SinkFailure: cannot write {what} {target.format(**paths)}: ")
    # a sweep has captured, and reported its clamped sims, before it writes
    assert len(before) == (argv[0] == "sweep")
    assert all(re.fullmatch(r"clamped \d+ of \d+ sims to \[-1, 1\]", line) for line in before)
    assert out == ""  # nothing is printed before the output is written


def test_capture_reports_clamped_sims_on_stderr(workdir, capsys):
    log = workdir / "clamped.log"
    assert main(["capture", "--config", str(workdir / "config.json"), "--out", str(log)]) == 0
    out, err = capsys.readouterr()
    records = len(read_log_path(log))
    assert out.splitlines()[0] == f"wrote {records} records to {log}"
    assert re.fullmatch(rf"clamped \d+ of {records} sims to \[-1, 1\]\n", err)


@pytest.mark.parametrize("path,value", [
    (["model_id"], 7),
    (["num_layers"], "12"),
    (["num_layers"], 12.0),
    (["hidden_dim"], True),
    (["protected_layers"], ["0"]),
    (["protected_layers"], 0),
    (["domains"], 5),
    (["domains", 0, "subtasks"], [1]),
    (["domains", 0, "subtasks"], "Math-CoT"),
    (["domains", 0, "sample_count"], "2"),
    (["domains", 0, "domain"], None),
])
def test_wrong_header_types_exit_one(workdir, tmp_path, capsys, path, value):
    lines = (workdir / "activations.log").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    target = header
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    log = tmp_path / "edited.log"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert main(["score", "--log", str(log)]) == 1
    assert capsys.readouterr().err.startswith(f"SchemaViolation: line 1: {path[-1]}: ")


@pytest.mark.parametrize("argv", [
    ["score"], ["heatmap"], ["rank", "--method", "ours-mixed"], ["rank", "--method", "cka"],
    ["plan", "--method", "ours-mixed", "--budget", "0.25"],
    ["plan", "--method", "interlace", "--budget", "0.25"],
    ["plan", "--method", "random", "--budget", "0.25", "--seed", "0"],
])
def test_a_log_with_every_layer_protected_exits_one(workdir, tmp_path, capsys, argv):
    lines = (workdir / "activations.log").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["protected_layers"] = list(range(header["num_layers"]))
    log = tmp_path / "all-protected.log"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert main(argv + ["--log", str(log)]) == 1
    assert capsys.readouterr() == ("", "SchemaViolation: protected_layers: all 8 layers are "
                                       "protected, so no layer is pruneable\n")


@pytest.mark.parametrize("argv", [
    ["rank", "--method", "cka"], ["plan", "--method", "cka", "--budget", "0.25"],
])
def test_cka_on_a_log_that_leaves_layer_0_pruneable_exits_one(workdir, tmp_path, capsys, argv):
    # every subtask is present, but cka scores layer l by CKA(l - 1, l) and layer 0 has no l - 1
    lines = (workdir / "activations.log").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["protected_layers"] = [7]
    log = tmp_path / "layer-0-pruneable.log"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert main(argv + ["--log", str(log)]) == 1
    assert capsys.readouterr() == ("", "LayerSetMismatch: layer 0 is pruneable, but cka scores "
                                       "layer l by CKA(l - 1, l): it needs layer 0 protected\n")
    assert main(["rank", "--method", "ours-mixed", "--log", str(log)]) == 0
    assert "0" in [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("argv", [
    ["score"], ["heatmap"], ["rank", "--method", "cka"],
    ["plan", "--method", "interlace", "--budget", "0.25"],
])
def test_a_header_declaring_more_layers_than_the_log_holds_exits_one(workdir, tmp_path, capsys,
                                                                     argv):
    # the columns' lengths give the header away before any layer set of its size is built
    lines = (workdir / "activations.log").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["num_layers"] = 2_000_000
    log = tmp_path / "edited.log"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert main(argv + ["--log", str(log)]) == 1
    n = sum(d["sample_count"] for d in header["domains"])
    assert capsys.readouterr() == ("", f"SchemaViolation: line 3: sim: {8 * n} values, "
                                       f"expected {2_000_000 * n} for {n} samples\n")


@pytest.mark.parametrize("argv,error", [
    (["capture", "--config", "{bad}"], "InvalidConfig: config {bad} "),
    (["sweep", "--config", "{bad}"], "InvalidConfig: config {bad} "),
    (["prune-eval", "--config", "{config}", "--plan", "{bad}"], "SchemaViolation: plan {bad} "),
    (["score", "--log", "{bad}"], "SchemaViolation: log {bad} "),
])
def test_non_utf8_input_exits_one(workdir, tmp_path, capsys, argv, error):
    paths = {"bad": tmp_path / "bad.txt", "config": workdir / "config.json"}
    paths["bad"].write_bytes(b"\xff" + json.dumps(CONFIG).encode())
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith(error.format(**paths) + "is not UTF-8 text")


def test_prune_eval_checks_plan_depth_before_building_a_model(workdir, tmp_path, capsys,
                                                              monkeypatch):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(serialize_plan(PrunePlan(
        method="cka", budget_fraction=0.25, k=3, num_layers=14,
        protected=default_protected(14), pruned=(3, 5, 7))))
    built = []
    monkeypatch.setattr(cli, "build_model", lambda config: built.append(config))
    assert main(["prune-eval", "--config", str(workdir / "config.json"),
                 "--plan", str(plan_path)]) == 1
    assert capsys.readouterr().err == (
        "PlanModelMismatch: plan num_layers 14 != model num_layers 8\n")
    assert built == []


def outcome(call, capsys):
    """(result or exit status, stdout, stderr) of ``call()``, a parser's exit included."""
    try:
        result = call()
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


# every subcommand with its defaults left out, a negative flag value in exponent form, a
# missing required flag, an unknown flag and --version; capture and sweep write ./out
SHARED_PARSER_ARGVS = [
    ["capture", "--config", "config.json"],
    ["score", "--log", "out/activations.log"],
    ["rank", "--log", "out/activations.log", "--method", "ours-mixed"],
    ["plan", "--log", "out/activations.log", "--method", "cka", "--budget", "0.25",
     "--out", "plan.json"],
    ["plan", "--log", "out/activations.log", "--method", "cka", "--budget", "0.25"],
    ["prune-eval", "--config", "config.json", "--plan", "plan.json"],
    ["sweep", "--config", "config.json"],
    ["heatmap", "--log", "out/activations.log"],
    ["rank", "--log", "out/activations.log", "--method", "ours-mixed", "--alpha", "-1e-05"],
    ["rank", "--log", "out/activations.log"],
    ["score", "--log", "out/activations.log", "--bogus"],
    ["--version"],
]


def test_one_parser_serves_every_call_alike(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert cli.build_parser() is cli.build_parser()
    outcomes = []
    for argv in SHARED_PARSER_ARGVS * 2:  # so each call follows calls of the other commands
        outcomes.append(outcome(lambda: main(argv), capsys))
        fresh = cli.build_parser.__wrapped__()
        assert (outcome(lambda: cli.build_parser().parse_args(argv), capsys)
                == outcome(lambda: fresh.parse_args(argv), capsys))
    first = outcomes[:len(SHARED_PARSER_ARGVS)]
    assert outcomes[len(first):] == first
    assert [status for status, _, _ in first] == [0] * 8 + [1, 1, 1, 0]
    assert first[8][2].startswith("AlphaOutOfRange: ")
    assert "the following arguments are required: --method" in first[9][2]
    assert "unrecognized arguments: --bogus" in first[10][2]


def test_a_flag_of_one_call_does_not_carry_into_the_next(workdir, tmp_path, capsys):
    log = str(workdir / "activations.log")
    plan_path = tmp_path / "p.json"
    plan = ["plan", "--log", log, "--method", "cka", "--budget", "0.25"]
    assert main(plan + ["--out", str(plan_path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote plan to {plan_path}\n")
    plan_path.unlink()
    assert main(plan) == 0
    assert "wrote plan" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    rank = ["rank", "--log", log, "--method", "random"]
    assert main(rank + ["--seed", "3"]) == 0
    capsys.readouterr()
    assert main(rank) == 1
    assert capsys.readouterr().err.startswith("InvalidConfig: method random requires --seed")


# ---- the header is the only layer source ---------------------------------

@pytest.fixture(scope="module")
def inner_protected_log(tmp_path_factory):
    """(path, table) of a 12-layer log whose header protects {0, 5, 11}.

    Block 5 is an identity, so every score ranks it first: a ranker that
    took its layers from anywhere but the header would pick it.
    """
    cfg = ToyModelConfig()
    model = neutralize_block(build_model(cfg), 5)
    _, table = capture_run(model, default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1}))
    header = replace(table.header, protected_layers=frozenset({0, 5, 11}))
    table = replace(table, header=header)
    path = tmp_path_factory.mktemp("inner") / "inner.log"
    write_log_path(table, path=str(path))
    return path, table


def test_every_method_ranks_and_plans_exactly_the_header_pruneable_layers(inner_protected_log):
    _, table = inner_protected_log
    pruneable = table.header.pruneable
    assert pruneable == (1, 2, 3, 4, 6, 7, 8, 9, 10)
    for method in METHODS:
        if method != "interlace":  # it ranks only under a budget
            scores, order = report.method_scores(method, table, seed=0)
            assert tuple(scores) == pruneable and sorted(order) == list(pruneable), method
        for p in (0.1, 0.25, 1.0):
            try:
                plan = report.plan_for_method(method, table, p, seed=0)
            except BudgetInfeasible:
                assert method == "interlace" and p == 1.0
                continue
            assert (plan.num_layers, plan.protected) == (12, frozenset({0, 5, 11})), method
            assert plan.k == budget_k(p, 9) and set(plan.pruned) <= set(pruneable), method
            assert plan.scores is None or tuple(plan.scores) == pruneable, method


@pytest.mark.parametrize("argv", [
    ["score"], *(["rank", "--method", m, "--seed", "0"] for m in METHODS if m != "interlace"),
    *(["plan", "--method", m, "--budget", b, "--seed", "0"] for m in METHODS
      for b in ("0.25", "0.4")),
])
def test_rank_and_plan_never_print_a_protected_layer(inner_protected_log, capsys, argv):
    path, _ = inner_protected_log
    assert main(argv + ["--log", str(path)]) == 0
    out = capsys.readouterr().out
    if argv[0] == "score":
        layers = [int(line.split()[1]) for line in out.splitlines() if line.startswith("  layer")]
    elif argv[0] == "rank":
        layers = [int(line.split("\t")[0]) for line in out.splitlines()]
    else:
        pruned = next(line for line in out.splitlines() if line.startswith("pruned: "))
        layers = [int(l) for l in pruned.removeprefix("pruned: ").split(",")]
    assert layers and set(layers) <= {1, 2, 3, 4, 6, 7, 8, 9, 10}


# ---- a log holds at least one sample --------------------------------------

def test_a_log_of_no_samples_is_refused(workdir, tmp_path, capsys):
    # 0 samples agree with any num_layers, so such a header would cost each command its layers
    header = LogHeader(model_id="empty", num_layers=200_000, hidden_dim=2,
                       protected_layers=frozenset({0, 199_999}),
                       domains=(DomainInfo("math", MATH_SUBTASKS, 0),
                                DomainInfo("nonmath", NONMATH_SUBTASKS, 0)))
    with pytest.raises(SchemaViolation, match="^no samples: a log holds at least one$"):
        ActivationTable(header=header, subtask=np.empty(0, dtype=np.int64),
                        sim=np.empty((0, 200_000)),
                        pooled_out=np.empty((0, 200_000, 2), dtype=np.float32))
    # nor is the workdir's table, put under that header
    table = read_log_path(str(workdir / "activations.log"))
    with pytest.raises(SchemaViolation, match=r"^sim \(\d+, 8\) and pooled_out \(\d+, 8, \d+\): "
                                              r"not the shapes of \d+ samples$"):
        replace(table, header=header)
    # the log that the writer refuses, written by hand
    log = tmp_path / "empty.log"
    log.write_text(_header_to_json(header) + "\n"
                   + "".join(json.dumps({name: ""}) + "\n" for name, _ in _COLUMNS))
    with pytest.raises(SchemaViolation, match="^no samples: a log holds at least one$"):
        read_log_path(str(log))
    assert main(["rank", "--log", str(log), "--method", "random", "--seed", "0"]) == 1
    assert capsys.readouterr() == ("", "SchemaViolation: no samples: a log holds at least one\n")


@pytest.mark.parametrize("keep", [slice(None, 1), slice(1, None)], ids=["math", "nonmath"])
def test_score_on_a_log_of_one_domain_scores_that_domain(tmp_path, capsys, keep):
    # score reads its domains from the header: a one-domain capture prints the same block
    # for its domain as the capture of both
    cfg = ToyModelConfig(num_layers=4, hidden_dim=8, num_heads=2)
    probe_sets = default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1})
    blocks = []
    for name, sets in (("both", probe_sets), ("one", probe_sets[keep])):
        log = tmp_path / f"{name}.log"
        write_log_path(capture_run(build_model(cfg), sets)[1], path=str(log))
        assert main(["score", "--log", str(log)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        blocks.append(re.split(r"\n(?=domain=)", out.rstrip("\n")))
    both, one = blocks
    assert [b.split()[0] for b in both] == ["domain=math", "domain=nonmath"]
    assert one == both[keep]


def test_score_on_a_log_with_an_empty_domain_prints_nothing(tmp_path, capsys):
    # every declared domain is scored before the first line is printed, as rank and plan do
    cfg = ToyModelConfig(num_layers=4, hidden_dim=8, num_heads=2)
    _, table = capture_run(build_model(cfg),
                           default_probe_sets(cfg, 0, {"math": 1, "nonmath": 1})[:1])
    header = replace(table.header, domains=table.header.domains
                     + (DomainInfo("nonmath", NONMATH_SUBTASKS, 0),))
    log = tmp_path / "empty-nonmath.log"
    write_log_path(replace(table, header=header), path=str(log))
    assert main(["score", "--log", str(log)]) == 1
    assert capsys.readouterr() == ("", "EmptyInput: no records for domain 'nonmath'\n")
