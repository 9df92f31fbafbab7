"""Deterministic counter-based random stream.

The generator is splitmix64 used in counter mode: draw i of a stream
seeded with s is mix64(s + (i + 1) * 0x9E3779B97F4A7C15), where mix64 is
the standard xor-shift/multiply finalizer.  Counter mode makes bulk
generation vectorizable while keeping the scheme reproducible from its
published constants, independent of any platform RNG.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def mix_seed(*parts: int) -> int:
    """Fold several integers into one 64-bit stream seed."""
    state = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            state = _mix64(state + np.uint64(p & _MASK64) * _GAMMA)
    return int(state)


class SeededStream:
    """Stateful view over the counter-based stream for one seed."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._pos = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GAMMA)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform in [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normal values via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        u1, u2 = u[:m], u[m:]
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], no log(0)
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:n]

    def randint_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (2 ** 64 // bound) * bound
        while True:
            x = int(self.raw(1)[0])
            if x < limit:
                return x % bound

    def sample_without_replacement(self, items, k: int) -> list:
        """Draw k distinct items, in draw order (partial Fisher-Yates)."""
        pool = list(items)
        if k > len(pool):
            raise ValueError("k exceeds population size")
        out = []
        for i in range(k):
            j = i + self.randint_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out
