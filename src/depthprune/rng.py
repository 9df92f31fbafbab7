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
_AHEAD = 64  # raw draws that ``randint_below`` reads ahead at a time


def _mix64(z):
    """mix64 of a uint64 scalar, or of an array in the array's own buffer."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _check_count(name: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0 (got {n})")


def mix_seed(*parts: int) -> int:
    """Fold several integers into one 64-bit stream seed."""
    state = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            state = _mix64(state + np.uint64(p & _MASK64) * _GAMMA)
    return int(state)


class SeededStream:
    """Stateful view over the counter-based stream for one seed.

    ``start`` is the number of raw draws to skip: ``SeededStream(s, start=n)``
    yields what ``SeededStream(s)`` yields after its first ``n`` raw draws,
    so disjoint parts of one stream can be drawn independently.
    """

    def __init__(self, seed: int, start: int = 0):
        _check_count("start", start)
        self._seed = np.uint64(seed & _MASK64)
        self._pos = start
        # scalar draws read ahead: raw draws at positions _ahead_pos, _ahead_pos + 1, ...
        self._ahead, self._ahead_pos = [], start

    def _draws(self, pos: int, n: int) -> np.ndarray:
        """Raw draws pos, pos + 1, ..., pos + n - 1 of the stream."""
        z = np.arange(pos + 1, pos + n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self._seed
        return _mix64(z)

    def raw(self, n: int) -> np.ndarray:
        _check_count("count", n)
        z = self._draws(self._pos, n)
        self._pos += n
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values uniform in [0, 1)."""
        z = self.raw(n)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    @staticmethod
    def raw_count(n: int) -> int:
        """Raw draws that ``gaussians(n)`` uses: two per Box-Muller pair."""
        return 2 * ((n + 1) // 2)

    def gaussians(self, n: int, out: np.ndarray = None) -> np.ndarray:
        """n standard normal values via Box-Muller on consecutive uniform pairs.

        The first ``ceil(n/2)`` uniforms give the radii and the next ones the
        angles; the cosine halves come first, then the sine halves, cut to n.
        The values are written into ``out`` (a float64 array of shape (n,))
        when given, else into a new array, which is returned.
        """
        _check_count("count", n)
        if out is None:
            out = np.empty(n)
        elif out.shape != (n,):
            raise ValueError(f"out shape {out.shape} != {(n,)}")
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r, theta = u[:m], u[m:]
        np.negative(r, out=r)  # sqrt(-2 log(1 - u1)): 1 - u1 in (0, 1], no log(0)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        np.cos(theta, out=out[:m])
        out[:m] *= r
        np.sin(theta[:n - m], out=out[m:])
        out[m:] *= r[:n - m]
        return out

    def randint_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (2 ** 64 // bound) * bound
        while True:
            # draws are addressed by position, so the block read ahead is only a cache
            i = self._pos - self._ahead_pos
            if not 0 <= i < len(self._ahead):
                self._ahead = self._draws(self._pos, _AHEAD).tolist()
                self._ahead_pos, i = self._pos, 0
            x = self._ahead[i]
            self._pos += 1
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
