import json
import re
import sys

import pytest

from depthprune import cli, report
from depthprune.actlog import read_log_path
from depthprune.cli import main
from depthprune.model import default_protected
from depthprune.planner import PrunePlan, serialize_plan

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


def test_sweep_writes_three_files_idempotently(workdir, capsys):
    config = str(workdir / "config.json")
    out1, out2 = workdir / "out1", workdir / "out2"
    assert main(["sweep", "--config", config, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", config, "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("sweep.csv", "removal_grid.csv", "heatmap.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_skips_an_infeasible_cell(tmp_path, capsys):
    # on the default 12-layer model interlace spaces only 4 removals, so
    # budget 0.5 (5 of 10 layers) cannot be met; the other three cells can
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"probe_counts": {"math": 1, "nonmath": 1},
                                  "methods": ["ours-mixed", "interlace"],
                                  "budgets": [0.25, 0.5], "seeds": [0]}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("skipped interlace at budget 0.5: ")
    cells = {tuple(line.split(",")[:2])
             for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]}
    assert cells == {("ours-mixed", "0.25"), ("ours-mixed", "0.5"), ("interlace", "0.25")}
    grid = [line.split(",")[:2] for line in (tmp_path / "removal_grid.csv").read_text()
            .splitlines()[2:]]
    assert grid == [["interlace", "0.25"], ["ours-mixed", "0.25"], ["ours-mixed", "0.5"]]


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
    assert err.startswith(f"SinkFailure: cannot write {what} {target.format(**paths)}: ")
    assert out == ""  # nothing is printed before the output is written


def test_capture_reports_clamped_sims_on_stderr(workdir, capsys):
    log = workdir / "clamped.log"
    assert main(["capture", "--config", str(workdir / "config.json"), "--out", str(log)]) == 0
    out, err = capsys.readouterr()
    records = len(read_log_path(log)[1])
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
