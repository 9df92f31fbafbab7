"""Run probe suites through a model and emit activation records."""

import numpy as np

from .actlog import ActivationRecord, DomainInfo, LogHeader
from .linalg import mean_pool, token_cosine_mean


def model_id_for(config) -> str:
    return (f"toy-L{config.num_layers}-d{config.hidden_dim}-h{config.num_heads}"
            f"-v{config.vocab_size}-s{config.seed}")


def capture_run(model, probe_sets, runs=None):
    """Capture one ActivationRecord per (sample, retained layer).

    Samples are numbered sequentially across probe sets in the given order,
    so records are deterministic in (sample_id, layer).  ``runs``, when
    given, maps each domain to ``model.residual_states(ps.token_matrix())``
    already computed by the caller; otherwise each sample is forwarded on
    its own through ``model.forward_with_hooks``, which keeps peak memory at
    one sample's states.
    """
    cfg = model.config
    domains = tuple(
        DomainInfo(ps.domain, tuple(tag for tag, _ in ps.subtasks), ps.num_samples)
        for ps in probe_sets
    )
    header = LogHeader(
        model_id=model_id_for(cfg),
        num_layers=cfg.num_layers,
        hidden_dim=cfg.hidden_dim,
        protected_layers=model.protected_layers,
        domains=domains,
    )
    records = []
    sample_id = 0
    for ps in probe_sets:
        states = runs[ps.domain][0] if runs is not None else None
        for b, (subtask, tokens) in enumerate(ps.all_samples()):
            if states is None:
                trace = model.forward_with_hooks(tokens)
                h = trace.h_in + trace.h_out[-1:]
            else:
                h = states[:, b]
            pooled = [np.asarray(mean_pool(s), dtype=np.float32) for s in h]
            for l, lid in enumerate(model.layer_ids):
                sim = token_cosine_mean(h[l], h[l + 1])
                sim = min(1.0, max(-1.0, sim))
                records.append(ActivationRecord(
                    sample_id=sample_id,
                    layer=lid,
                    domain=ps.domain,
                    subtask=subtask,
                    sim=sim,
                    pooled_in=pooled[l],
                    pooled_out=pooled[l + 1],
                ))
            sample_id += 1
    return header, records
