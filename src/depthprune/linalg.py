"""Minimal dense linear-algebra kernel.

All accumulation happens in float64 regardless of input dtype; stored
activations may be float32 but high-dimensional dot products cancel badly
at 32 bits.
"""

import numpy as np

from .errors import EmptyInput, ZeroNormInput

ZERO_NORM_THRESHOLD = 1e-12


def mean_pool(m) -> np.ndarray:
    """Mean over rows; (n, d) -> (d,), or batched (..., n, d) -> (..., d)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"mean_pool expects a matrix, got ndim={m.ndim}")
    if m.shape[-2] == 0:
        raise EmptyInput("cannot mean-pool a matrix with zero rows")
    return m.mean(axis=-2)


def center_rows(m) -> np.ndarray:
    """Subtract the column mean from every row; output columns have mean 0."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"center_rows expects a matrix, got ndim={m.ndim}")
    if m.shape[0] == 0:
        raise EmptyInput("cannot center a matrix with zero rows")
    return m - m.mean(axis=0, keepdims=True)


def token_cosine_mean(h_in, h_out):
    """Mean over rows t of cosine(h_in[t], h_out[t]) for two (T, d) matrices.

    Batched (..., T, d) inputs give an array of shape (...) instead of a float.
    """
    h_in = np.asarray(h_in, dtype=np.float64)
    h_out = np.asarray(h_out, dtype=np.float64)
    if h_in.shape != h_out.shape or h_in.ndim < 2:
        raise ValueError(f"shape mismatch: {h_in.shape} vs {h_out.shape}")
    n_in = np.linalg.norm(h_in, axis=-1)
    n_out = np.linalg.norm(h_out, axis=-1)
    if float(n_in.min()) < ZERO_NORM_THRESHOLD or float(n_out.min()) < ZERO_NORM_THRESHOLD:
        raise ZeroNormInput("a token activation has near-zero norm")
    dots = np.einsum("...td,...td->...t", h_in, h_out)
    means = np.mean(dots / (n_in * n_out), axis=-1)
    return float(means) if h_in.ndim == 2 else means
