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


def table_from_rows(header, rows):
    """An ActivationTable of (sample_id, layer, domain, subtask, sim, pooled_out) rows."""
    names = [d.domain for d in header.domains]
    tags = header.subtask_tags
    pooled = np.array([r[5] for r in rows], dtype=np.float32)
    return ActivationTable(
        header=header,
        sample_id=np.array([r[0] for r in rows], dtype=np.int64),
        layer=np.array([r[1] for r in rows], dtype=np.int64),
        domain=np.array([names.index(r[2]) for r in rows], dtype=np.int64),
        subtask=np.array([tags.index(r[3]) for r in rows], dtype=np.int64),
        sim=np.array([r[4] for r in rows], dtype=np.float64),
        pooled_out=pooled.reshape(len(rows), -1 if rows else header.hidden_dim),
    )


def log_bytes(header, table):
    """The UTF-8 bytes of the activation log that ``write_log`` writes for ``table``."""
    buf = io.StringIO()
    write_log(header, table, buf)
    return buf.getvalue().encode("utf-8")


def select_rows(table, mask):
    """The rows of ``table`` where ``mask`` holds, in order."""
    return replace(table, sample_id=table.sample_id[mask], layer=table.layer[mask],
                   domain=table.domain[mask], subtask=table.subtask[mask],
                   sim=table.sim[mask], pooled_out=table.pooled_out[mask])


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
    rows = []
    sample_id = 0
    for domain, subtasks in (("math", MATH_SUBTASKS), ("nonmath", NONMATH_SUBTASKS)):
        for subtask in subtasks:
            for _ in range(samples_per_subtask):
                for layer in range(num_layers):
                    if sims is not None:
                        sim = float(sims[layer])
                    else:
                        sim = float(rng.uniform(0.0, 1.0))
                    # the unused draw keeps pooled_out on the random stream the
                    # expectations of the tests using this fixture were set with
                    rng.standard_normal(hidden_dim)
                    pooled_out = rng.standard_normal(hidden_dim).astype(np.float32)
                    rows.append((sample_id, layer, domain, subtask, sim, pooled_out))
                sample_id += 1
    return header, table_from_rows(header, rows)
