"""Differential tests: the activation-table reductions against per-record loops.

The references walk the records one at a time, the way the rankers did
before activations were held as a samples × layers grid.  The table
reductions add the grid's rows in sample order, so every comparison here is
exact, on synthetic tables, on shuffled sample orders and on captured data
read back from the log.
"""

import io
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import depthprune.baselines as baselines
from conftest import log_bytes, make_synthetic_records, select_samples
from depthprune.actlog import read_log
from depthprune.baselines import cka_rank, feature_matrices, interlace_plan
from depthprune.capture import capture_run
from depthprune.model import ToyModelConfig, build_model
from depthprune.probes import default_probe_sets
from depthprune.scoring import aggregate_domain, heatmap_matrix

Record = namedtuple("Record", "sample_id layer domain subtask sim pooled_out")


def records_of(table):
    """One record per cell (sample, layer) of the table, sample-major."""
    names = [d.domain for d in table.header.domains]
    tags = table.header.subtask_tags
    return [Record(s, l, names[table.domain[s]], tags[table.subtask[s]], float(table.sim[s, l]),
                   table.pooled_out[s, l]) for s, l in np.ndindex(table.sim.shape)]


def ref_aggregate(records, domain, pruneable):
    sums = {l: 0.0 for l in pruneable}
    counts = {l: 0 for l in pruneable}
    sample_ids = set()
    for rec in records:
        if rec.domain != domain:
            continue
        sample_ids.add(rec.sample_id)
        if rec.layer in sums:
            sums[rec.layer] += rec.sim
            counts[rec.layer] += 1
    return {l: sums[l] / counts[l] for l in pruneable}, len(sample_ids)


def ref_heatmap(records):
    subtasks = []
    for rec in records:
        if rec.subtask not in subtasks:
            subtasks.append(rec.subtask)
    layers = tuple(sorted({rec.layer for rec in records}))
    sums = np.zeros((len(subtasks), len(layers)))
    counts = np.zeros_like(sums)
    for rec in records:
        i, j = subtasks.index(rec.subtask), layers.index(rec.layer)
        sums[i, j] += rec.sim
        counts[i, j] += 1
    return tuple(subtasks), layers, sums / counts


def ref_features(records, tags):
    """One row per tag, in the order given: the mean pooled output of its records."""
    sums, counts = {}, {}
    for rec in records:
        key = (rec.layer, rec.subtask)
        if key not in sums:
            sums[key] = np.zeros(rec.pooled_out.shape[0])
            counts[key] = 0
        sums[key] += np.asarray(rec.pooled_out, dtype=np.float64)
        counts[key] += 1
    return {layer: np.vstack([sums[(layer, tag)] / counts[(layer, tag)] for tag in tags])
            for layer in sorted({rec.layer for rec in records})}


def ref_inout(records):
    sums, counts = {}, {}
    for rec in records:
        sums[rec.layer] = sums.get(rec.layer, 0.0) + rec.sim
        counts[rec.layer] = counts.get(rec.layer, 0) + 1
    return {l: sums[l] / counts[l] for l in sums}


def shuffled(table, seed):
    return select_samples(table, np.random.default_rng(seed).permutation(len(table.subtask)))


def synthetic_tables():
    for seed in range(4):
        _, table = make_synthetic_records(num_layers=6 + seed, hidden_dim=5,
                                          samples_per_subtask=1 + seed, seed=seed)
        yield f"synthetic-{seed}", table
        yield f"synthetic-{seed}-shuffled", shuffled(table, seed)
    # pooled outputs spread over many magnitudes, so float64 sums depend on their order
    scale = 2.0 ** np.random.default_rng(0).integers(-40, 40, size=table.pooled_out.shape)
    yield "synthetic-wide", replace(table, pooled_out=(table.pooled_out * scale).astype(np.float32))


@pytest.fixture(scope="module")
def captured_tables():
    cfg = ToyModelConfig(seed=4)
    model = build_model(cfg)
    probe_sets = default_probe_sets(cfg, 4, {"math": 3, "nonmath": 3})
    _, table = capture_run(model, probe_sets)
    logged = read_log(io.StringIO(log_bytes(table).decode()))
    return [("captured", table), ("captured-log", logged),
            ("captured-shuffled", shuffled(table, 9))]


def all_tables(captured_tables):
    return list(synthetic_tables()) + captured_tables


def test_aggregate_domain_matches_loop(captured_tables):
    for name, table in all_tables(captured_tables):
        records = records_of(table)
        pruneable = table.header.pruneable
        for domain in ("math", "nonmath"):
            got = aggregate_domain(table, domain)
            assert (got.raw, got.sample_count) == ref_aggregate(records, domain, pruneable), name


def test_heatmap_matrix_matches_loop(captured_tables):
    for name, table in all_tables(captured_tables):
        subtasks, layers, values = ref_heatmap(records_of(table))
        got = heatmap_matrix(table)
        assert (got.subtasks, got.layers) == (subtasks, layers), name
        np.testing.assert_array_equal(got.values, values, err_msg=name)


def test_feature_matrices_match_loop(captured_tables):
    for name, table in all_tables(captured_tables):
        expected = ref_features(records_of(table), table.header.subtask_tags)
        got = feature_matrices(table)
        assert list(got) == list(expected), name
        for layer in expected:
            np.testing.assert_array_equal(got[layer], expected[layer], err_msg=name)


def test_inout_redundancy_matches_loop(captured_tables):
    for name, table in all_tables(captured_tables):
        assert baselines._inout_redundancy(table) == ref_inout(records_of(table)), name


def with_loop_inputs(monkeypatch):
    """Route the rankers' feature and in/out inputs through the loop references."""
    monkeypatch.setattr(baselines, "feature_matrices",
                        lambda t: ref_features(records_of(t), t.header.subtask_tags))
    monkeypatch.setattr(baselines, "_inout_redundancy", lambda t: ref_inout(records_of(t)))


def interlace_plans(table):
    """Interlace plans of one and of a third of the table's pruneable layers."""
    n_mid = len(table.header.pruneable)
    return [interlace_plan(table, k, k / n_mid) for k in (1, n_mid // 3)]


def test_cka_rank_and_interlace_plan_match_loop(captured_tables, monkeypatch):
    cases = all_tables(captured_tables)
    results = [(cka_rank(table), interlace_plans(table)) for _, table in cases]
    with_loop_inputs(monkeypatch)
    for (name, table), (cka, plans) in zip(cases, results):
        assert cka == cka_rank(table), name
        assert plans == interlace_plans(table), name
