import numpy as np
import pytest

from depthprune.rng import SeededStream, mix_seed


def test_same_seed_same_stream():
    a = SeededStream(42).uniforms(100)
    b = SeededStream(42).uniforms(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(SeededStream(1).raw(10), SeededStream(2).raw(10))


def test_uniform_range_and_moments():
    u = SeededStream(7).uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_gaussian_moments():
    z = SeededStream(9).gaussians(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_gaussian_odd_count():
    assert SeededStream(5).gaussians(7).shape == (7,)


def test_start_position_skips_raw_draws():
    np.testing.assert_array_equal(SeededStream(4, start=10).raw(5), SeededStream(4).raw(15)[10:])
    s = SeededStream(4)
    s.raw(6)
    np.testing.assert_array_equal(SeededStream(4, start=6).gaussians(9), s.gaussians(9))


@pytest.mark.parametrize("n", [0, 1, 7, 8])
def test_gaussians_into_a_given_array(n):
    out = np.full(n, np.nan)
    assert SeededStream(2).gaussians(n, out=out) is out
    np.testing.assert_array_equal(out, SeededStream(2).gaussians(n))


def test_gaussians_reject_an_output_of_another_size():
    with pytest.raises(ValueError, match="out shape"):
        SeededStream(2).gaussians(4, out=np.empty(5))


@pytest.mark.parametrize("draw", [
    lambda: SeededStream(1).gaussians(-3),
    lambda: SeededStream(1).gaussians(-1),
    lambda: SeededStream(1).uniforms(-1),
    lambda: SeededStream(1).raw(-1),
    lambda: SeededStream(1, start=-1),
])
def test_negative_count_or_start_rejected(draw):
    with pytest.raises(ValueError, match="must be >= 0"):
        draw()


def test_stream_position_advances():
    s = SeededStream(3)
    first = s.uniforms(10)
    second = s.uniforms(10)
    assert not np.array_equal(first, second)


def test_sample_without_replacement_distinct():
    s = SeededStream(11)
    out = s.sample_without_replacement(range(20), 10)
    assert len(set(out)) == 10
    assert set(out) <= set(range(20))


def test_mix_seed_order_sensitive():
    assert mix_seed(1, 2) != mix_seed(2, 1)
