"""Run probe suites through a model and collect an activation table."""

import numpy as np

from .actlog import ActivationTable, DomainInfo, LogHeader
from .linalg import mean_pool, token_cosine_mean


def model_id_for(config) -> str:
    return (f"toy-L{config.num_layers}-d{config.hidden_dim}-h{config.num_heads}"
            f"-v{config.vocab_size}-s{config.seed}")


def layer_stats(states):
    """(sims (B, depth), pooled outputs (B, depth, d) float32) of depth + 1 states (B, T, d).

    ``states`` is an array (depth + 1, B, T, d) or a list of its entries.
    Sims are unclamped.  Each call reduces one block's states, so no
    temporary is larger than that.
    """
    sims = [token_cosine_mean(h_in, h_out) for h_in, h_out in zip(states[:-1], states[1:])]
    pooled = [mean_pool(h_out).astype(np.float32) for h_out in states[1:]]
    return np.stack(sims, axis=-1), np.stack(pooled, axis=1)


def capture_run(model, probe_sets, runs=None):
    """One table row per (sample, retained layer); returns (header, table).

    Samples are numbered sequentially across probe sets in the given order.
    ``runs``, when given, maps each domain to
    ``model.residual_states(ps.token_matrix())`` already computed by the
    caller; otherwise each sample is forwarded on its own through
    ``model.forward_with_hooks``, which keeps peak memory at one sample's
    states.  Sims are clamped into [-1, 1]; ``table.clamped`` counts how
    many needed it.
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
    tags, stats, domain, subtask = header.subtask_tags, [], [], []
    for di, ps in enumerate(probe_sets):
        for tag, tokens in ps.all_samples():
            if runs is None:
                trace = model.forward_with_hooks(tokens)
                stats.append(layer_stats([h[None] for h in trace.h_in + trace.h_out[-1:]]))
            domain.append(di)
            subtask.append(tags.index(tag))
        if runs is not None:
            stats.append(layer_stats(runs[ps.domain][0]))
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
