import io
import signal
from dataclasses import replace

import numpy as np
import pytest

from depthprune.actlog import ActivationTable, DomainInfo, LogHeader, write_log
from depthprune.capture import capture_run
from depthprune.model import ToyModelConfig, build_model
from depthprune.probes import (MATH_SUBTASKS, NONMATH_SUBTASKS,
                               default_probe_sets)

SMALL_COUNTS = {"math": 10, "nonmath": 10}

# The slowest test takes about 4 s under CI's warning flags; one that runs past this many
# seconds fails instead of hanging the suite.  The faulthandler options in pyproject.toml are
# the backstop for a hang that outlives the alarm, such as a Hypothesis shrink after it.
TEST_TIME_LIMIT_S = 30


@pytest.fixture(autouse=True)
def time_limit(request):
    """Raise ``TimeoutError``, naming the test, once it has run for ``TEST_TIME_LIMIT_S``."""
    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def small_config():
    return ToyModelConfig()


@pytest.fixture(scope="session")
def small_model(small_config):
    return build_model(small_config)


@pytest.fixture(scope="session")
def small_probes(small_config):
    return default_probe_sets(small_config, seed=0, counts=SMALL_COUNTS)


@pytest.fixture(scope="session")
def small_capture(small_model, small_probes):
    return capture_run(small_model, small_probes)


def grid_table(header, subtasks, sims, pooled=None):
    """The ActivationTable of samples of ``subtasks`` (one tag each), sims (n, num_layers)
    and pooled outputs (n, num_layers, hidden_dim), zeros by default."""
    shape = (len(subtasks), header.num_layers, header.hidden_dim)
    return ActivationTable(
        header=header,
        subtask=np.array([header.subtask_tags.index(tag) for tag in subtasks], dtype=np.int64),
        sim=np.asarray(sims, dtype=np.float64),
        pooled_out=np.asarray(np.zeros(shape) if pooled is None else pooled, dtype=np.float32),
    )


def log_bytes(table):
    """The UTF-8 bytes of the activation log that ``write_log`` writes for ``table``."""
    buf = io.StringIO()
    write_log(table, buf)
    return buf.getvalue().encode("utf-8")


def select_samples(table, index):
    """The samples of ``table`` that ``index`` (a mask or an order) picks, in that order,
    under its header with each domain's ``sample_count`` recounted."""
    held = np.bincount(table.domain[index], minlength=len(table.header.domains)).tolist()
    header = replace(table.header, domains=tuple(
        replace(d, sample_count=count) for d, count in zip(table.header.domains, held)))
    return replace(table, header=header, subtask=table.subtask[index], sim=table.sim[index],
                   pooled_out=table.pooled_out[index])


def make_synthetic_records(num_layers, hidden_dim=8, samples_per_subtask=2,
                           seed=0, sims=None):
    """(header, table) of valid records covering all 9 subtasks at every layer.

    sims, when given, maps layer -> similarity used for every record at
    that layer; otherwise sims are drawn uniformly from [0, 1).
    """
    rng = np.random.default_rng(seed)
    domains = (
        DomainInfo("math", MATH_SUBTASKS, 5 * samples_per_subtask),
        DomainInfo("nonmath", NONMATH_SUBTASKS, 4 * samples_per_subtask),
    )
    header = LogHeader(model_id="synthetic", num_layers=num_layers,
                       hidden_dim=hidden_dim,
                       protected_layers=frozenset({0, num_layers - 1}),
                       domains=domains)
    subtasks, sim_rows, pooled = [], [], []
    for subtask in MATH_SUBTASKS + NONMATH_SUBTASKS:
        for _ in range(samples_per_subtask):
            subtasks.append(subtask)
            for layer in range(num_layers):
                if sims is not None:
                    sim_rows.append(float(sims[layer]))
                else:
                    sim_rows.append(float(rng.uniform(0.0, 1.0)))
                # the unused draw keeps pooled_out on the random stream the
                # expectations of the tests using this fixture were set with
                rng.standard_normal(hidden_dim)
                pooled.append(rng.standard_normal(hidden_dim).astype(np.float32))
    n = len(subtasks)
    return header, grid_table(header, subtasks, np.reshape(sim_rows, (n, num_layers)),
                              np.reshape(pooled, (n, num_layers, hidden_dim)))
