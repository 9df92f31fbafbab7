"""Run probe suites through a model and collect an activation table."""

import numpy as np

from .actlog import ActivationTable, DomainInfo, LogHeader
from .errors import EmptyInput, PlanModelMismatch
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
    """One table cell per (sample, layer), over every layer; returns (clamped, table).

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
    [-1, 1], ``clamped`` counting how many needed it, and rounded to
    float32 as the log stores them, so a table ranks as its log does.  No
    probe sets, or a probe set with no samples, raises ``EmptyInput``, and a
    pruned model ``PlanModelMismatch``, before any block runs.
    """
    cfg = model.config
    if not probe_sets:
        raise EmptyInput("no probe sets: a capture needs at least one")
    if model.depth != cfg.num_layers:
        raise PlanModelMismatch(f"capture needs all {cfg.num_layers} layers, not {model.depth}")
    for ps in probe_sets:
        if ps.num_samples == 0:
            raise EmptyInput(f"probe set {ps.domain!r} is empty")
    if runs is not None:
        if hasattr(runs, "keys"):  # a mapping would be iterated as its keys
            raise ValueError("runs: expected one iterable of states per probe set, got a mapping")
        runs = list(runs)
        if len(runs) != len(probe_sets):
            raise ValueError(f"runs: {len(runs)} runs for {len(probe_sets)} probe sets")
    header = LogHeader(
        model_id=(f"toy-L{cfg.num_layers}-d{cfg.hidden_dim}-h{cfg.num_heads}"
                  f"-v{cfg.vocab_size}-t{cfg.max_seq_len}-s{cfg.seed}"),
        num_layers=cfg.num_layers,
        hidden_dim=cfg.hidden_dim,
        protected_layers=default_protected(cfg.num_layers),
        domains=tuple(DomainInfo(ps.domain, tuple(tag for tag, _ in ps.subtasks), ps.num_samples)
                      for ps in probe_sets),
    )
    if runs is None:
        runs = (model.stream(tokens[lo:lo + CHUNK])
                for tokens in (ps.token_matrix() for ps in probe_sets)
                for lo in range(0, len(tokens), CHUNK))
    tags = header.subtask_tags
    subtask = [tags.index(tag) for ps in probe_sets for tag, _ in ps.all_samples()]
    stats = [layer_stats(states) for states in runs]
    sim = np.concatenate([s for s, _ in stats])
    return int(np.count_nonzero(np.abs(sim) > 1.0)), ActivationTable(
        header=header,
        subtask=np.asarray(subtask, dtype=np.int64),
        sim=np.clip(sim, -1.0, 1.0).astype(np.float32).astype(np.float64),
        pooled_out=np.concatenate([p for _, p in stats]),
    )
