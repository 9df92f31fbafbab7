"""The benchmark's workloads: program inputs derived from the workload seed.

Each workload is a list of CLI operations (one `depthprune.cli.main(argv)`
call each) that together form one *body*.  A run repeats the body in a
closed loop with one client until its time is up.  The seed fixes the
probe seed, the model seed and the plan seeds written into the config, so
the same seed always gives the same inputs and the same outputs.
"""

import os
import random
from collections import namedtuple

BUDGETS = (0.10, 0.25, 0.40)
ALL_METHODS = ("ours-math", "ours-nonmath", "ours-mixed", "cka", "interlace", "random")
RANKABLE = ("ours-math", "ours-nonmath", "ours-mixed", "cka", "random")

# name -> (model shape, probes per subtask, methods, number of plan seeds).
# Why each workload exists is recorded in BENCHMARK.json.
SPECS = {
    "sweep-readme": (
        {"num_layers": 12, "hidden_dim": 64, "num_heads": 4}, 1,
        ("ours-mixed", "cka", "interlace", "random"), 3),
    "sweep-deep-random": (
        {"num_layers": 24, "hidden_dim": 128, "num_heads": 8}, 1, ("random",), 3),
    "cli-session": (
        {"num_layers": 12, "hidden_dim": 64, "num_heads": 4}, 5, ALL_METHODS, 1),
}

# The model seed and the probe seed are both taken from range(INPUT_SEEDS).
# On the 12-layer workloads, interlace raises BudgetInfeasible at budget 0.40
# on about 2% of inputs, which fails the whole sweep.  Input seeds 0-54 were
# checked at the seed commit, and interlace fills every budget on them; 55 is
# the first that fails.
INPUT_SEEDS = 55

Op = namedtuple("Op", "command argv outputs")


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """The depthprune JSON config of a workload; every seed in it comes from `seed`."""
    shape, per_subtask, methods, n_plan_seeds = SPECS[workload]
    input_seed = seed % INPUT_SEEDS
    plan_seeds = sorted(random.Random(seed).sample(range(1 << 16), n_plan_seeds))
    return {
        "model": dict(shape, seed=input_seed),
        "probe_counts": {"math": per_subtask, "nonmath": per_subtask},
        "probe_seed": input_seed,
        "methods": list(methods),
        "budgets": list(BUDGETS),
        "alpha": 0.7,
        "seeds": plan_seeds,
        "out": out_dir,
    }


def operations(workload: str, config_path: str, config: dict) -> list:
    """The ordered CLI operations of one body."""
    out = config["out"]
    if workload.startswith("sweep"):
        names = ("sweep.csv", "removal_grid.csv", "heatmap.csv")
        return [Op("sweep", ["sweep", "--config", config_path, "--out", out],
                   [os.path.join(out, n) for n in names])]
    log = os.path.join(out, "activations.log")
    seed = str(config["seeds"][0])
    ops = [Op("capture", ["capture", "--config", config_path, "--out", log], [log]),
           Op("score", ["score", "--log", log], []),
           Op("heatmap", ["heatmap", "--log", log], [])]
    for method in RANKABLE:
        extra = ["--seed", seed] if method == "random" else []
        ops.append(Op("rank", ["rank", "--log", log, "--method", method] + extra, []))
    for method in ALL_METHODS:
        for budget in BUDGETS:
            argv = ["plan", "--log", log, "--method", method, "--budget", repr(budget),
                    "--alpha", repr(config["alpha"]), "--seed", seed]
            ops.append(Op("plan", argv, []))
    return ops
