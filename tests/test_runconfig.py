"""RunConfig's checks against the three check chains it replaced.

Before ``RunConfig``, configs were checked by ``cli._load_config`` (a chain
of ``_require`` calls), the ``rank``/``plan`` flags by ``cli._check_method``
and the library sweep by its own inline checks.  Those chains are copied
below as the reference.  The three places where ``RunConfig`` differs on
purpose:

- the library sweep now checks ``probe_seed`` (not reachable from a config,
  whose ``probe_seed`` the old ``_load_config`` checked too);
- a config with an empty ``methods``, ``budgets`` or ``seeds`` list makes
  ``sweep`` exit with ``InvalidConfig``, where the old sweep raised a bare
  ``DepthPruneError`` (both exit 1);
- a config whose ``methods``, ``budgets`` or ``seeds`` list repeats an entry
  exits with ``InvalidConfig`` for every command, where the old chains
  accepted it and ``sweep`` wrote each repeated row again.
"""

import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depthprune import cli, report
from depthprune.errors import (AlphaOutOfRange, BudgetOutOfRange, DepthPruneError,
                               InvalidConfig, is_fraction, is_int)
from depthprune.model import ToyModelConfig
from depthprune.planner import DEFAULT_BUDGETS, METHODS
from depthprune.probes import DEFAULT_COUNTS, check_counts
from depthprune.scoring import DEFAULT_ALPHA

# ---- the reference: the check chains RunConfig replaced -------------------


def _require(ok, message):
    if not ok:
        raise InvalidConfig(f"config: {message}")


def reference_load_config(raw):
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


def reference_sweep_checks(methods, budgets, seeds, alpha, probe_counts):
    if not methods:
        raise DepthPruneError("no methods selected")
    if not budgets:
        raise DepthPruneError("no budgets selected")
    if not seeds:
        raise DepthPruneError("no seeds selected")
    for method in methods:
        if method not in METHODS:
            raise InvalidConfig(f"unknown method {method!r} (expected one of {METHODS})")
    for p in budgets:
        if not is_fraction(p):
            raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {p!r}")
    if not is_fraction(alpha):
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    for seed in seeds:
        if not is_int(seed):
            raise InvalidConfig(f"seed {seed!r} is not an integer")
    check_counts(probe_counts or DEFAULT_COUNTS)


def reference_check_method(method, budget, alpha, seed):
    if method not in METHODS:
        raise InvalidConfig(f"unknown method {method!r} (expected one of {METHODS})")
    if method == "interlace" and budget is None:
        raise InvalidConfig("method interlace ranks only under a budget: use plan --budget")
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    if budget is not None and not 0.0 <= budget <= 1.0:
        raise BudgetOutOfRange(f"budget fraction must be in [0, 1], got {budget}")
    if method == "random" and seed is None:
        raise InvalidConfig("method random requires --seed for reproducibility")


# ---- outcomes: (exit code, error class name) ------------------------------

BUILT = (0, "built")  # every check passed and a model was about to be built
LOG_READ = (2, "SinkFailure")  # every flag passed and the (missing) log was read


def _outcome(check, passed):
    try:
        check()
    except Exception as exc:  # the CLI maps any other exception to exit 2
        return getattr(exc, "exit_code", 2), type(exc).__name__
    return passed


class _Built(Exception):
    pass


def _refuse(config):
    raise _Built()


def _main_outcome(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    name = err.getvalue().split(":", 1)[0]
    return BUILT if name == "_Built" else (code, name)


# ---- drawn inputs -----------------------------------------------------------

ABSENT = object()
NAN = float("nan")

# key -> (valid values, bad values); a drawn config takes each key absent,
# valid or bad
CONFIG_VALUES = {
    "model": ([{}, {"num_layers": 6, "hidden_dim": 16, "num_heads": 2}, {"seed": 3}],
              [[], {"bogus": 1}, {"num_layers": 2}, {"num_layers": "12"},
               {"hidden_dim": 30, "num_heads": 4}, {"num_heads": True}]),
    "probe_counts": ([{"math": 1, "nonmath": 1},
                      {"math": {"Math-CoT": 1, "Math-Direct": 2, "Math-Rephrase": 1,
                                "Math-Formalize": 1, "Math-Verify": 1}, "nonmath": 2}],
                     [{"math": 0, "nonmath": 1}, {"math": 1}, [], {"math": 1.5, "nonmath": 1},
                      {"math": {}, "nonmath": 1}, {"math": {"Bogus": 1}, "nonmath": 1},
                      {"math": {"Math-CoT": 1}, "nonmath": 1}]),
    "probe_seed": ([0, 7, -3], ["0", 1.5, None, True]),
    "methods": ([[], ["random"], ["interlace"], list(METHODS), ["cka", "cka"]],
                [["bogus"], "cka", [1], None, ["ours-mixed", None]]),
    "budgets": ([[], [0.0], [0.25, 1], [1], [0]],
                [[1.5], [-0.1], ["0.1"], [True], 0.25, None, [NAN]]),
    "alpha": ([0, 0.5, 1, 0.0], [1.5, "0.7", True, None, -0.1, NAN, [0.5]]),
    "seeds": ([[], [0], [1, 2], [-5]], [["x"], [1.5], [True], 0, None]),
    "out": (["out", "o/dir"], [3, None, [], True]),
}


@st.composite
def configs(draw):
    raw = {}
    for key, (valid, bad) in CONFIG_VALUES.items():
        # mostly absent or valid, so that the checks after the first stay reachable
        kind = draw(st.sampled_from(["absent", "absent", "valid", "valid", "bad"]))
        if kind != "absent":
            raw[key] = draw(st.sampled_from(valid if kind == "valid" else bad))
    if draw(st.integers(0, 19)) == 0:
        raw["bogus_key"] = 1
    return raw if draw(st.integers(0, 19)) else [raw]


fractions = st.one_of(st.sampled_from([0.0, 0.25, 0.7, 1.0, -0.5, 1.5, NAN, math.inf]),
                      st.floats())


def _check_config(root, raw, command):
    path = root / "differential.json"
    path.write_text(json.dumps(raw))

    def reference():
        cfg = reference_load_config(raw)
        if command == "sweep":
            reference_sweep_checks(cfg["methods"], cfg["budgets"], cfg["seeds"], cfg["alpha"],
                                   cfg["probe_counts"])

    expected = _outcome(reference, BUILT)
    with mock.patch.object(cli, "build_model", _refuse), \
            mock.patch.object(report, "build_model", _refuse):
        got = _main_outcome([command, "--config", str(path), "--out", str(root / "out")])
    grids = [raw.get(key) for key in ("methods", "budgets", "seeds")] if isinstance(raw, dict) else []
    empty_grid = command == "sweep" and [] in grids
    repeat = any(isinstance(g, list) and any(v in g[:i] for i, v in enumerate(g)) for g in grids)
    if (empty_grid and expected == (1, "DepthPruneError")) or repeat:
        assert got == (1, "InvalidConfig")  # the gaps fixed on this path
    else:
        assert got == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs(), command=st.sampled_from(["capture", "sweep"]))
def test_config_checks_match_the_replaced_chains(tmp_path_factory, raw, command):
    _check_config(tmp_path_factory.getbasetemp(), raw, command)


# capture ranks nothing, so it keeps accepting these lists
@pytest.mark.parametrize("raw", [
    {"seeds": []}, {"budgets": []}, {"methods": []},
    {"methods": ["interlace"], "budgets": []}, {"methods": ["random"], "seeds": []}])
@pytest.mark.parametrize("command", ["capture", "sweep"])
def test_empty_lists_match_the_replaced_chains(tmp_path, raw, command):
    _check_config(tmp_path, raw, command)


# the replaced chains accepted these; every command refuses them now
@pytest.mark.parametrize("raw", [
    {"methods": ["cka", "cka"]}, {"budgets": [0.25, 1, 0.25]}, {"seeds": [3, 3]}])
@pytest.mark.parametrize("command", ["capture", "sweep"])
def test_repeated_entries_are_refused(tmp_path, raw, command):
    _check_config(tmp_path, raw, command)


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(METHODS + ("bogus",)), budget=st.none() | fractions,
       alpha=fractions, seed=st.none() | st.integers(-2**40, 2**40))
def test_flag_checks_match_the_replaced_chain(tmp_path_factory, method, budget, alpha, seed):
    # "--flag=value": argparse would take a value like -1e+16 for an option
    argv = ["rank" if budget is None else "plan", "--method", method, f"--alpha={alpha!r}",
            "--log", str(tmp_path_factory.getbasetemp() / "missing.log")]
    if budget is not None:
        argv.append(f"--budget={budget!r}")
    if seed is not None:
        argv += ["--seed", str(seed)]
    expected = _outcome(lambda: reference_check_method(method, budget, alpha, seed), LOG_READ)
    assert _main_outcome(argv) == expected
