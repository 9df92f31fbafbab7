"""Run probe suites through a model and collect an activation table."""

import numpy as np

from .actlog import ActivationTable, DomainInfo, LogHeader
from .linalg import mean_pool, token_cosine_mean


def model_id_for(config) -> str:
    return (f"toy-L{config.num_layers}-d{config.hidden_dim}-h{config.num_heads}"
            f"-v{config.vocab_size}-s{config.seed}")


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
    a list of them already computed by the caller; by default each domain's
    whole token matrix is streamed through the model (:meth:`Model.stream`
    bounds each block's temporaries by ``depthprune.model.CHUNK`` samples),
    holding two of its states at a time.  Sims are clamped into [-1, 1];
    ``table.clamped`` counts how many needed it.
    """
    cfg = model.config
    header = LogHeader(
        model_id=model_id_for(cfg),
        num_layers=cfg.num_layers,
        hidden_dim=cfg.hidden_dim,
        protected_layers=model.protected_layers,
        domains=tuple(DomainInfo(ps.domain, tuple(tag for tag, _ in ps.subtasks), ps.num_samples)
                      for ps in probe_sets),
    )
    if runs is None:
        runs = (model.stream(ps.token_matrix()) for ps in probe_sets)
    tags, stats, domain, subtask = header.subtask_tags, [], [], []
    for di, (ps, states) in enumerate(zip(probe_sets, runs, strict=True)):
        for tag, _ in ps.all_samples():
            domain.append(di)
            subtask.append(tags.index(tag))
        stats.append(layer_stats(states))
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
