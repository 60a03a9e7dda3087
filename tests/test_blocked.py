import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singopt.blocked import BlockPartition, BlockedVector, from_blocks, zeros


@pytest.fixture
def two_block():
    return BlockPartition.of([("w", (2,)), ("b", (2,))])


def test_partition_derived_quantities():
    part = BlockPartition.of([("W1", (3, 4)), ("b1", (3,)), ("W2", (2, 3))])
    assert part.D == 3
    assert part.p == 12 + 3 + 6
    assert part.offsets == (0, 12, 15)
    assert part.sizes == (12, 3, 6)
    assert part.shape(0) == (3, 4)
    assert part.rank(1) == 1
    assert part.index("W2") == 2


@pytest.mark.parametrize(
    "blocks",
    [
        [],
        [("a", ())],
        [("a", (0,))],
        [("a", (2, -1))],
        [("a", (2,)), ("a", (3,))],
        [("bad name", (2,))],
    ],
)
def test_partition_rejects_bad_blocks(blocks):
    with pytest.raises(ValueError):
        BlockPartition.of(blocks)


def test_manifest_roundtrip():
    part = BlockPartition.of([("W1", (3, 4)), ("b1", (3,))])
    assert part.manifest() == "W1 3x4\nb1 3"
    assert BlockPartition.from_manifest(part.manifest()) == part


def test_block_l2_norm_345():
    part = BlockPartition.of([("a", (2,))])
    v = BlockedVector(np.array([3.0, 4.0]), part)
    assert v.block_l2_norm(0) == 5.0


def test_block_l2_norm_zeros_and_ones():
    part = BlockPartition.of([("a", (3,)), ("b", (4,))])
    v = from_blocks(part, [np.zeros(3), np.ones(4)])
    assert v.block_l2_norm(0) == 0.0
    assert v.block_l2_norm(1) == 2.0


def test_block_index_out_of_range(two_block):
    v = zeros(two_block)
    with pytest.raises(IndexError):
        v.block_l2_norm(2)
    with pytest.raises(IndexError):
        v.block(-1)


def test_global_mean():
    part = BlockPartition.of([("a", (2,)), ("b", (1,))])
    assert BlockedVector(np.array([1.0, 2.0, 3.0]), part).global_mean() == 2.0
    assert zeros(part).global_mean() == 0.0
    two = BlockPartition.of([("a", (2,))])
    assert BlockedVector(np.array([-1.0, 1.0]), two).global_mean() == 0.0


def test_structured_norm_two_blocks():
    part = BlockPartition.of([("a", (2,)), ("b", (2,))])
    v = from_blocks(part, [np.array([3.0, 4.0]), np.array([0.0, 1.0])])
    assert v.structured_norm() == 6.0


def test_structured_norm_single_block_equals_l2():
    part = BlockPartition.of([("a", (5,))])
    v = BlockedVector(np.arange(5.0), part)
    assert v.structured_norm() == v.block_l2_norm(0) == v.l2_norm()


def test_structured_norm_dominates_l2_random():
    rng = np.random.default_rng(42)
    part = BlockPartition.of([(f"t{k}", (3,)) for k in range(8)])
    for _ in range(200):
        v = BlockedVector(rng.standard_normal(part.p), part)
        assert v.l2_norm() <= v.structured_norm() + 1e-12


def test_elementwise_ops():
    part = BlockPartition.of([("a", (2,))])
    a = BlockedVector(np.array([1.0, 2.0]), part)
    b = BlockedVector(np.array([3.0, 4.0]), part)
    assert a.dot(b) == 11.0
    assert np.array_equal(a.scale(0.0).values, np.zeros(2))
    assert np.array_equal((a + (-a)).values, np.zeros(2))
    assert np.array_equal((b - a).values, np.array([2.0, 2.0]))


def test_partition_mismatch_raises():
    a = zeros(BlockPartition.of([("a", (2,))]))
    b = zeros(BlockPartition.of([("b", (2,))]))
    with pytest.raises(ValueError, match="mismatch"):
        a.dot(b)
    with pytest.raises(ValueError, match="mismatch"):
        a.add(b)


def test_block_roundtrip_bit_identical():
    rng = np.random.default_rng(0)
    part = BlockPartition.of([("W", (4, 3)), ("b", (4,))])
    v = BlockedVector(rng.standard_normal(part.p), part)
    before = v.values.copy()
    for k in range(part.D):
        v.set_block(k, v.block(k).copy())
    assert np.array_equal(v.values, before)


def test_slices_are_the_block_layout():
    part = BlockPartition.of([("W1", (3, 4)), ("b1", (3,)), ("W2", (2, 3))])
    assert part.slices == (slice(0, 12), slice(12, 15), slice(15, 21))
    assert all(part.slice_of(k) == part.slices[k] for k in range(part.D))


def test_writing_through_blocks_changes_values():
    part = BlockPartition.of([("W", (2, 3)), ("b", (2,))])
    v = zeros(part)
    w, b = v.blocks()
    assert w.shape == (2, 3) and b.shape == (2,)
    w[1, 2] = 5.0
    b += 1.0
    assert np.array_equal(v.values, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 1.0, 1.0]))


@pytest.mark.parametrize("d", [1, 4, 9, 40])
def test_block_norms_and_structured_norm_bit_identical_to_block_loop(d):
    rng = np.random.default_rng(d)
    part = BlockPartition.of([(f"t{k}", tuple(int(n) for n in rng.integers(1, 5, size=1 + k % 3))) for k in range(d)])
    for _ in range(20):
        v = BlockedVector(rng.standard_normal(part.p) * 10.0 ** rng.integers(-4, 5, size=part.p), part)
        loop_norms = [v.block_l2_norm(k) for k in range(part.D)]
        assert v.block_norms().tobytes() == np.array(loop_norms).tobytes()
        # the structured norm as a left-to-right sum over the block loop
        assert v.structured_norm() == float(sum(v.block_l2_norm(k) for k in range(part.D)))


def test_wrong_length_values_rejected(two_block):
    with pytest.raises(ValueError, match="length"):
        BlockedVector(np.zeros(5), two_block)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_l2_never_exceeds_structured_norm(values):
    part = BlockPartition.of([("a", (2,)), ("b", (3,)), ("c", (1,))])
    v = BlockedVector(np.array(values), part)
    assert v.l2_norm() <= v.structured_norm() * (1 + 1e-12) + 1e-300
