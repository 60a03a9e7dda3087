"""Deterministic 64-bit PRNG for synthetic data and initialization.

The generator is xoshiro256** (Blackman/Vigna) seeded through SplitMix64.
Short draws step the state on plain Python integers; long draws step many
lanes at once in numpy ``uint64`` arrays, each lane started a fixed number
of words ahead by a jump (:mod:`singopt.lanes`), and give the same words in
the same order.  Both are exact integer arithmetic, so the stream is
bit-identical on every platform.  A run of Fisher-Yates shuffles takes its
words in one draw (:meth:`Xoshiro256.permutations`); the minibatch order
(``runner.EpochBatcher``) draws epochs ahead in runs that double up to
``SHUFFLE_MAX_WORDS`` words, and each order is the one a shuffle at a time
would give.  Uniform doubles are built from the top 53 bits of a 64-bit
output; approximately-normal draws use a 12-uniform sum, which involves
only correctly-rounded IEEE additions and therefore stays bit-identical
across platforms (a transcendental-based transform such as Box-Muller
would inherit libm differences).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplitMix64", "Xoshiro256", "derive_seed", "normals_from_words", "uniforms_from_words"]

_MASK64 = (1 << 64) - 1

# draws of this many words or more step numpy lanes (singopt.lanes); below it
# the scalar loop is faster
_LANE_MIN_WORDS = 1024
# most words a run of shuffles drawn ahead takes at once (runner.EpochBatcher):
# a lane draw's fixed cost is spread thin by then (n = 2000: 0.56 ms an epoch
# one at a time, 0.25 ms 16 at a time, 0.24 ms 32 at a time), and more
# epochs only hold more memory
SHUFFLE_MAX_WORDS = 1 << 15
# rows of normals per block: 12 words a row, at most 1 MiB of words
_NORMALS_BLOCK = (1 << 17) // 12


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


class Xoshiro256:
    """xoshiro256** with the standard (s0..s3, rotl 7/45, *5, *9) constants."""

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self.s = [sm.next_u64() for _ in range(4)]

    def next_u64(self) -> int:
        return self._words(1)[0]

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

        Rows of 12 words are drawn ``_NORMALS_BLOCK`` at a time, so a long
        draw holds at most 1 MiB of words, and :func:`normals_from_words`
        turns each row into one normal.
        """
        out = np.empty(count)
        for start in range(0, count, _NORMALS_BLOCK):
            rows = min(_NORMALS_BLOCK, count - start)
            out[start : start + rows] = normals_from_words(self._word_array(12 * rows))
        return out

    def _words(self, count: int) -> list[int]:
        """The next ``count`` output words, one scalar xoshiro256** step each.

        The state update runs inline on local integers, which saves a
        method call per word, and the state is written back once.  Long
        draws go through :meth:`_word_array`, which steps lanes instead.
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

    def _word_array(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array: scalar steps, or lanes for long draws."""
        if count < _LANE_MIN_WORDS:
            return np.array(self._words(count), dtype=np.uint64)
        from . import lanes  # here, so that importing the package does not compile it

        words, self.s[:] = lanes.draw(self.s, count)
        return words

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), as an int64 array: ``permutations(n, 1)[0]``."""
        return self.permutations(n, 1)[0]

    def permutations(self, n: int, count: int) -> np.ndarray:
        """``count`` successive Fisher-Yates permutations of range(n), as a ``(count, n)`` int64 array.

        Each row draws the :meth:`next_u64` stream, one word per swap:
        ``j = next_u64() % (i + 1)`` for ``i = n-1`` down to 1.  All
        ``count * (n - 1)`` words come from one draw, so a long run of
        shuffles pays the fixed cost of a lane draw once; row k is the k-th
        of ``count`` successive :meth:`permutation` calls, and the generator
        is left where they would leave it.  The remainders are one uint64
        array op; the swaps run on a list, one row at a time, which saves
        numpy scalar indexing without holding every row's Python ints.
        """
        if n < 0 or count < 0:
            raise ValueError(f"permutations needs n >= 0 and count >= 0, got n={n}, count={count}")
        swaps = max(n - 1, 0)
        js = self._word_array(count * swaps).reshape(count, swaps)
        js %= np.arange(n, 1, -1, dtype=np.uint64)
        out = np.empty((count, n), dtype=np.int64)
        identity = list(range(n))
        for row, row_js in zip(out, js):
            idx = identity.copy()
            for i, j in zip(range(n - 1, 0, -1), row_js.tolist()):
                idx[i], idx[j] = idx[j], idx[i]
            row[:] = idx
        return out


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """:meth:`Xoshiro256.uniform` of each word, bit for bit: ``(w >> 11) * 2^-53``."""
    uniforms = (words >> np.uint64(11)).astype(np.float64)
    uniforms *= 2.0 ** -53
    return uniforms


def normals_from_words(words: np.ndarray) -> np.ndarray:
    """:meth:`Xoshiro256.normal` of each run of 12 words, bit for bit.

    Each row of 12 words becomes 12 uniforms, summed column by column from
    column 0 and then shifted by 6.0: the additions of :meth:`normal`, in
    its order.
    """
    uniforms = uniforms_from_words(words.reshape(-1, 12))
    total = uniforms[:, 0].copy()
    for c in range(1, 12):
        total += uniforms[:, c]
    total -= 6.0
    return total


def derive_seed(seed: int, *salt: int) -> int:
    """Stable sub-seed derivation so independent streams never collide."""
    sm = SplitMix64(seed)
    out = sm.next_u64()
    for s in salt:
        mixer = SplitMix64(out ^ (s & _MASK64))
        out = mixer.next_u64()
    return out
