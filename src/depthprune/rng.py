"""Deterministic counter-based random stream.

The generator is splitmix64 used in counter mode: draw i of a stream
seeded with s is mix64(s + (i + 1) * 0x9E3779B97F4A7C15), where mix64 is
the standard xor-shift/multiply finalizer.  Counter mode makes bulk
generation vectorizable (numpy) and a scalar draw a function of its
position alone (Python ints), while keeping the scheme reproducible from
its published constants, independent of any platform RNG.
"""

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z):
    """mix64 of a uint64 array, in the array's own buffer."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _mix64_int(z: int) -> int:
    """mix64 of a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * _MIX1 & _MASK64
    z = (z ^ z >> 27) * _MIX2 & _MASK64
    return z ^ z >> 31


def _check_count(name: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0 (got {n})")


def mix_seed(*parts: int) -> int:
    """Fold several integers into one 64-bit stream seed."""
    state = 0
    for p in parts:
        state = _mix64_int((state + p * _GAMMA) & _MASK64)
    return state


class SeededStream:
    """Stateful view over the counter-based stream for one seed.

    ``start`` is the number of raw draws to skip: ``SeededStream(s, start=n)``
    yields what ``SeededStream(s)`` yields after its first ``n`` raw draws,
    so disjoint parts of one stream can be drawn independently.
    """

    def __init__(self, seed: int, start: int = 0):
        _check_count("start", start)
        self._seed = seed & _MASK64
        self._pos = start

    def raw(self, n: int) -> np.ndarray:
        _check_count("count", n)
        z = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._seed)
        return _mix64(z)

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
            self._pos += 1
            x = _mix64_int((self._seed + self._pos * _GAMMA) & _MASK64)
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
