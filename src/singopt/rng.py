"""Deterministic 64-bit PRNG for synthetic data and initialization.

The generator is xoshiro256** (Blackman/Vigna) seeded through SplitMix64,
both implemented on plain Python integers so the stream is bit-identical
on every platform.  Uniform doubles are built from the top 53 bits of a
64-bit output; approximately-normal draws use a 12-uniform sum, which
involves only correctly-rounded IEEE additions and therefore stays
bit-identical across platforms (a transcendental-based transform such as
Box-Muller would inherit libm differences).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64", "Xoshiro256", "derive_seed"]

_MASK64 = (1 << 64) - 1
_NORMALS_CHUNK = 256


class SplitMix64:
    """Seed-expansion generator: state += 0x9E3779B97F4A7C15 per draw."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** with the standard (s0..s3, rotl 7/45, *5, *9) constants."""

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self.s = [sm.next_u64() for _ in range(4)]

    def next_u64(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Double in [0, 1) with 53-bit mantissa: (u64 >> 11) * 2^-53."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Approximately standard normal: sum of 12 uniforms minus 6."""
        total = 0.0
        for _ in range(12):
            total += self.uniform()
        return total - 6.0

    def normals(self, count: int) -> np.ndarray:
        """``count`` draws of :meth:`normal`, bit for bit, as a float64 array.

        Each row of 12 words becomes 12 uniforms, summed column by column
        from column 0 and then shifted by 6.0: the additions of
        :meth:`normal`, in its order.  Rows are drawn ``_NORMALS_CHUNK`` at
        a time: a long draw then never holds more than a chunk's words as
        Python ints, which would otherwise leave the heap megabytes larger.
        """
        out = np.empty(count)
        for start in range(0, count, _NORMALS_CHUNK):
            total = out[start : start + _NORMALS_CHUNK]
            words = np.array(self._words(12 * total.size), dtype=np.uint64).reshape(total.size, 12)
            words >>= np.uint64(11)
            uniforms = words.astype(np.float64)
            uniforms *= 2.0 ** -53
            total[:] = uniforms[:, 0]
            for c in range(1, 12):
                total += uniforms[:, c]
        out -= 6.0
        return out

    def _words(self, count: int) -> list[int]:
        """The next ``count`` :meth:`next_u64` words.

        The state update is written out inline on local integers, which
        saves the per-word method calls, and the state is written back once.
        """
        s0, s1, s2, s3 = self.s
        mask = _MASK64
        words = []
        append = words.append
        for _ in range(count):
            r = (s1 * 5) & mask
            # rotl(s1 * 5, 7) * 9; one mask after the multiply suffices mod 2^64
            append((((r << 7) | (r >> 57)) * 9) & mask)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask  # rotl(s3, 45)
        self.s[:] = (s0, s1, s2, s3)
        return words

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), as an int64 array.

        It draws the :meth:`next_u64` stream, one word per swap:
        ``j = next_u64() % (i + 1)`` for ``i = n-1`` down to 1, and leaves
        the generator where ``n - 1`` calls of :meth:`next_u64` would.  The
        swaps run on a list, which saves numpy scalar indexing.
        """
        idx = list(range(n))
        for i, word in zip(range(n - 1, 0, -1), self._words(n - 1)):
            j = word % (i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)


def derive_seed(seed: int, *salt: int) -> int:
    """Stable sub-seed derivation so independent streams never collide."""
    sm = SplitMix64(seed)
    out = sm.next_u64()
    for s in salt:
        mixer = SplitMix64(out ^ (s & _MASK64))
        out = mixer.next_u64()
    return out
