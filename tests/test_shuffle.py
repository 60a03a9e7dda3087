"""Shuffles drawn many epochs at a time give the one-epoch-at-a-time stream.

``Xoshiro256.permutations`` draws the words of several Fisher-Yates
shuffles at once, and ``EpochBatcher`` draws epoch orders ahead with it.
Both are compared, by bytes, with copies of the one-shuffle-per-call code
they replace, kept below as references.
"""

import numpy as np
import pytest

from singopt import lanes, rng
from singopt.rng import Xoshiro256, derive_seed
from singopt.runner import EpochBatcher

LANE_MIN = rng._LANE_MIN_WORDS


def reference_permutation(gen: Xoshiro256, n: int) -> np.ndarray:
    """One shuffle per call: the body of ``Xoshiro256.permutation`` before runs of shuffles."""
    idx = list(range(n))
    if n > 1:
        js = gen._word_array(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


class ReferenceBatcher:
    """``EpochBatcher`` before orders were drawn ahead: one shuffle per epoch."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.gen = Xoshiro256(derive_seed(seed, 0xBA7C4))
        self._order = reference_permutation(self.gen, self.n)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos >= self.n:
            self._order = reference_permutation(self.gen, self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


# (n, count): small and mlp-readme sizes, draws that take the scalar loop and
# lanes, count * (n - 1) just below, at and just above the lane threshold,
# and one draw longer than a lane pass
PERMUTATION_RUNS = [
    (0, 0), (0, 3), (1, 4), (2, 0), (2, 5), (3, 7), (240, 1), (240, 4), (240, 5), (2000, 1), (2000, 16),
    (2, LANE_MIN - 1), (2, LANE_MIN), (2, LANE_MIN + 1),
    (2000, lanes._MAX_WORDS // 1999 + 1),
]


@pytest.mark.parametrize("seed", [0, 12])
@pytest.mark.parametrize("n, count", PERMUTATION_RUNS)
def test_permutations_equal_successive_permutation_calls(seed, n, count):
    reference, gen = Xoshiro256(seed), Xoshiro256(seed)
    expected = [reference_permutation(reference, n) for _ in range(count)]
    got = gen.permutations(n, count)
    assert got.dtype == np.int64 and got.shape == (count, n)
    for row, want in zip(got, expected):
        assert row.tobytes() == want.tobytes()
    assert gen.s == reference.s
    single = Xoshiro256(seed).permutation(n)
    assert single.dtype == np.int64 and single.shape == (n,)
    assert single.tobytes() == reference_permutation(Xoshiro256(seed), n).tobytes()


@pytest.mark.parametrize("n, count", [(-2, 1), (-1, 0), (3, -1), (0, -5)])
def test_permutations_refuse_negative_sizes(n, count):
    gen = Xoshiro256(0)
    with pytest.raises(ValueError, match=f"n={n}, count={count}"):
        gen.permutations(n, count)
    assert gen.s == Xoshiro256(0).s


def test_permutation_refuses_a_negative_size():
    with pytest.raises(ValueError, match="n=-2"):
        Xoshiro256(0).permutation(-2)


# (n, batch_size, steps), each through at least five refills: mlp-readme's
# 200 epochs, short epochs, one point, and a batch larger than the data
BATCHER_RUNS = [(2000, 128, 3200), (7, 3, 1000), (1, 1, 200), (1, 4, 100), (5, 8, 100)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n, batch_size, steps", BATCHER_RUNS)
def test_batcher_hands_out_the_one_shuffle_per_epoch_batches(seed, n, batch_size, steps):
    reference, batcher = ReferenceBatcher(n, batch_size, seed), EpochBatcher(n, batch_size, seed)
    for t in range(steps):
        want, got = reference.next_indices(), batcher.next_indices()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f"step {t}"


BROKEN_SIZES = [(5, -1, "batch_size=-1"), (5, 0, "batch_size=0"), (0, 4, "n=0"), (-3, 4, "n=-3")]


@pytest.mark.parametrize("n, batch_size, named", BROKEN_SIZES)
def test_batcher_refuses_sizes_that_give_broken_batches(n, batch_size, named):
    with pytest.raises(ValueError, match=named):
        EpochBatcher(n, batch_size, seed=0)
