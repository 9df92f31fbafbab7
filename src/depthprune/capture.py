"""Run probe suites through a model and collect an activation table."""

import numpy as np

from .actlog import ActivationTable, DomainInfo, LogHeader
from .linalg import mean_pool, token_cosine_mean
from .model import CHUNK, default_protected


def layer_stats(states):
    """(sims (B, depth), pooled outputs (B, depth, d) float32) of depth + 1 states (B, T, d).

    ``states`` is any iterable of them in order, such as an array
    (depth + 1, B, T, d) or a :meth:`Model.stream`.  Each block is reduced as
    its output arrives, so at most two states are held at once.  Sims are
    unclamped.
    """
    sims, pooled = [], []
    states = iter(states)
    h_in = next(states)
    for h_out in states:
        sims.append(token_cosine_mean(h_in, h_out))
        pooled.append(mean_pool(h_out).astype(np.float32))
        h_in = h_out
    return np.stack(sims, axis=-1), np.stack(pooled, axis=1)


def capture_run(model, probe_sets, runs=None):
    """One table row per (sample, retained layer); returns (header, table).

    Samples are numbered sequentially across probe sets in the given order.
    ``runs`` holds one iterable of the model's states per probe set, such as
    a list of them already computed by the caller.  By default each domain's
    token matrix is streamed through the model ``depthprune.model.CHUNK``
    samples at a time, and each chunk's sims and pooled outputs are reduced
    as its states pass, so at most two chunk states are held whatever the
    probe count; rows are independent, so the table is bit-identical to one
    whole-domain stream.  A ``runs`` that is a mapping, or that holds a
    different number of runs than there are probe sets, raises
    ``ValueError`` before any block is reduced.  Sims are clamped into
    [-1, 1]; ``table.clamped`` counts how many needed it.
    """
    if runs is not None:
        if hasattr(runs, "keys"):  # a mapping would be iterated as its keys
            raise ValueError("runs: expected one iterable of states per probe set, got a mapping")
        runs = list(runs)
        if len(runs) != len(probe_sets):
            raise ValueError(f"runs: {len(runs)} runs for {len(probe_sets)} probe sets")
    cfg = model.config
    header = LogHeader(
        model_id=(f"toy-L{cfg.num_layers}-d{cfg.hidden_dim}-h{cfg.num_heads}"
                  f"-v{cfg.vocab_size}-s{cfg.seed}"),
        num_layers=cfg.num_layers,
        hidden_dim=cfg.hidden_dim,
        protected_layers=default_protected(cfg.num_layers),
        domains=tuple(DomainInfo(ps.domain, tuple(tag for tag, _ in ps.subtasks), ps.num_samples)
                      for ps in probe_sets),
    )
    if runs is None:  # an empty domain still reaches stream, which refuses it
        runs = (model.stream(tokens[lo:lo + CHUNK])
                for tokens in (ps.token_matrix() for ps in probe_sets)
                for lo in range(0, max(len(tokens), 1), CHUNK))
    tags, domain, subtask = header.subtask_tags, [], []
    for di, ps in enumerate(probe_sets):
        for tag, _ in ps.all_samples():
            domain.append(di)
            subtask.append(tags.index(tag))
    stats = [layer_stats(states) for states in runs]
    n, depth = len(domain), model.depth
    sim = np.concatenate([s for s, _ in stats] or [np.empty((0, depth))]).reshape(-1)
    pooled = np.concatenate([p for _, p in stats] or [np.empty((0, depth, cfg.hidden_dim))])
    return header, ActivationTable(
        header=header,
        sample_id=np.repeat(np.arange(n, dtype=np.int64), depth),
        layer=np.tile(np.asarray(model.layer_ids, dtype=np.int64), n),
        domain=np.repeat(np.asarray(domain, dtype=np.int64), depth),
        subtask=np.repeat(np.asarray(subtask, dtype=np.int64), depth),
        sim=np.clip(sim, -1.0, 1.0),
        pooled_out=pooled.reshape(n * depth, cfg.hidden_dim).astype(np.float32, copy=False),
        clamped=int(np.count_nonzero(np.abs(sim) > 1.0)),
    )
