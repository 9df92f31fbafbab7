import numpy as np
import pytest
from hypothesis import given, strategies as st

from depthprune.errors import EmptyInput, ZeroNormInput
from depthprune.linalg import center_rows, mean_pool, token_cosine_mean

finite_vec = st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=16)


def cosine(u, v):
    """Cosine of two vectors, as the token-mean cosine of two one-row matrices."""
    return token_cosine_mean([u], [v])


def test_cosine_identity():
    assert cosine([1, 2, 2], [1, 2, 2]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine([1, 0], [0, 1]) == 0.0


def test_cosine_hand_oracle():
    # dot = 2 + 2 + 4 = 8, norms both 3
    assert cosine([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, abs=1e-12)


def test_cosine_zero_norm_raises():
    with pytest.raises(ZeroNormInput):
        cosine([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ZeroNormInput):
        cosine([1.0, 1.0], [1e-13, 0.0])


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine([1, 2], [1, 2, 3])


@given(finite_vec, st.floats(min_value=0.01, max_value=50))
def test_cosine_positive_scale_invariant(values, c):
    u = np.array(values)
    if np.linalg.norm(u) < 1e-6:
        return
    v = np.arange(1.0, len(values) + 1.0)
    assert cosine(u, c * v) == pytest.approx(cosine(u, v), abs=1e-12)


def test_mean_pool_single_row():
    np.testing.assert_allclose(mean_pool([[3.0, 4.0]]), [3.0, 4.0])


def test_mean_pool_arithmetic():
    np.testing.assert_allclose(mean_pool([[0, 2], [2, 0]]), [1.0, 1.0])


def test_mean_pool_constant_rows():
    r = np.array([2.5, -1.0, 7.0])
    np.testing.assert_allclose(mean_pool(np.tile(r, (5, 1))), r)


def test_mean_pool_empty():
    with pytest.raises(EmptyInput):
        mean_pool(np.empty((0, 3)))


def test_center_rows_arithmetic():
    np.testing.assert_allclose(center_rows([[1.0], [3.0]]), [[-1.0], [1.0]])


def test_center_rows_zero_matrix():
    np.testing.assert_allclose(center_rows(np.zeros((3, 2))), np.zeros((3, 2)))


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_center_then_pool_is_zero(rows, cols, seed):
    m = np.random.default_rng(seed).uniform(-10, 10, size=(rows, cols))
    np.testing.assert_allclose(mean_pool(center_rows(m)), np.zeros(cols), atol=1e-10)
    # shape preserved, columns mean-zero
    centered = center_rows(m)
    assert centered.shape == m.shape
    np.testing.assert_allclose(centered.mean(axis=0), 0.0, atol=1e-10)


def test_token_cosine_mean_matches_rowwise_cosine():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((7, 5))
    rowwise = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    expected = np.mean(rowwise)
    assert token_cosine_mean(a, b) == pytest.approx(expected, abs=1e-12)
