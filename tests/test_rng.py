import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from depthprune import probes
from depthprune.model import ToyModelConfig
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
    z = SeededStream(9).gaussians(np.empty(200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_gaussian_odd_count():
    assert SeededStream(5).gaussians(np.empty(7)).shape == (7,)


def test_start_position_skips_raw_draws():
    np.testing.assert_array_equal(SeededStream(4, start=10).raw(5), SeededStream(4).raw(15)[10:])
    s = SeededStream(4)
    s.raw(6)
    np.testing.assert_array_equal(SeededStream(4, start=6).gaussians(np.empty(9)),
                                  s.gaussians(np.empty(9)))


@pytest.mark.parametrize("n", [0, 1, 7, 8])
def test_gaussians_into_a_given_array(n):
    out = np.full(n, np.nan)
    assert SeededStream(2).gaussians(out) is out
    np.testing.assert_array_equal(out, SeededStream(2).gaussians(np.empty(n)))


def test_gaussians_reject_an_output_that_is_not_1d():
    # a 2-D array would be filled by row, so only a 1-D one is taken, and none is written to
    for shape in [(), (2, 3), (4, 1)]:
        out = np.full(shape, np.nan)
        with pytest.raises(ValueError, match=r"^out must be 1-D \(got shape "):
            SeededStream(2).gaussians(out)
        assert np.isnan(out).all()


@pytest.mark.parametrize("draw", [
    lambda: SeededStream.raw_count(-3),
    lambda: SeededStream.raw_count(-1),
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


# the reference: the stream as computed with numpy uint64 arithmetic alone
GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)
MASK64 = 0xFFFFFFFFFFFFFFFF


def numpy_mix64(z):
    """mix64 of a uint64 scalar, or of an array in the array's own buffer."""
    z ^= z >> np.uint64(30)
    z *= MIX1
    z ^= z >> np.uint64(27)
    z *= MIX2
    z ^= z >> np.uint64(31)
    return z


def numpy_mix_seed(*parts):
    state = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            state = numpy_mix64(state + np.uint64(p & MASK64) * GAMMA)
    return int(state)


@given(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=5))
@example([])
@example([-1])
@example([2 ** 64])
@example([2 ** 64 - 1, -2 ** 63, 2 ** 63])
@example([12345, -6789, 2 ** 65 + 2 ** 64 + 11, 0, -1])
def test_mix_seed_equals_numpy_mix_seed(parts):
    assert mix_seed(*parts) == numpy_mix_seed(*parts)


class UnbufferedStream:
    """The stream with one numpy ``raw(1)`` per scalar draw."""

    def __init__(self, seed, start=0):
        self._seed = np.uint64(seed & MASK64)
        self._pos = start

    def raw(self, n):
        z = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        z *= GAMMA
        z += self._seed
        return numpy_mix64(z)

    def uniforms(self, n):
        z = self.raw(n)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def gaussians(self, n):
        out = np.empty(n)
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r, theta = u[:m], u[m:]
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        np.cos(theta, out=out[:m])
        out[:m] *= r
        np.sin(theta[:n - m], out=out[m:])
        out[m:] *= r[:n - m]
        return out

    def randint_below(self, bound):
        limit = (2 ** 64 // bound) * bound
        while True:
            x = int(self.raw(1)[0])
            if x < limit:
                return x % bound

    def sample_without_replacement(self, items, k):
        pool = list(items)
        out = []
        for i in range(k):
            j = i + self.randint_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


@pytest.mark.parametrize("seed", range(6))
def test_scalar_draws_equal_unbuffered_draws(seed):
    # scalar draws are computed from their position; interleaved bulk draws must
    # go on from the same position, across rejected draws
    # (a bound just above 2 ** 63 rejects about half of all raw draws)
    ops = np.random.default_rng(seed)
    start = int(ops.integers(0, 100))
    got, want = SeededStream(seed, start), UnbufferedStream(seed, start)
    for _ in range(300):
        op = int(ops.integers(5))
        if op == 0:
            bound = int(ops.choice([1, 2, 7, 64, 2 ** 32 + 1, 2 ** 63 + 1]))
            assert got.randint_below(bound) == want.randint_below(bound)
        elif op == 1:
            n, k = int(ops.integers(1, 40)), int(ops.integers(0, 5))
            k = min(k, n)
            assert got.sample_without_replacement(range(n), k) == \
                want.sample_without_replacement(range(n), k)
        elif op == 2:
            n = int(ops.integers(0, 80))
            np.testing.assert_array_equal(got.raw(n), want.raw(n))
        elif op == 3:
            n = int(ops.integers(0, 9))
            np.testing.assert_array_equal(got.gaussians(np.empty(n)), want.gaussians(n))
        else:
            n = int(ops.integers(0, 9))
            np.testing.assert_array_equal(got.uniforms(n), want.uniforms(n))


def test_probe_tokens_equal_unbuffered_draws(monkeypatch):
    cfg = ToyModelConfig(vocab_size=16)
    counts = {"math": 6, "nonmath": 6}
    got = [ps.token_matrix() for ps in probes.default_probe_sets(cfg, 3, counts)]
    monkeypatch.setattr(probes, "SeededStream", UnbufferedStream)
    for ps, tokens in zip(probes.default_probe_sets(cfg, 3, counts), got):
        np.testing.assert_array_equal(ps.token_matrix(), tokens)
