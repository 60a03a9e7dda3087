"""The block reductions equal numpy's wrappers byte for byte.

``blocked.norm``, ``BlockedVector.global_mean`` and ``standardize.centralize``
call the kernels that ``np.linalg.norm`` and ``ndarray.mean`` call, without
the wrappers.  These properties compare them with the wrappers through
``.tobytes()``, so a sign of zero or a nan payload counts too.  The row
forms, ``blocked.row_dots`` and ``standardize.sing_rows``, are compared the
same way with ``blocked.norm`` and ``sing_transform`` of each row.  The
MLP pass's short-axis sums, ``landscapes._row_sums`` and ``_column_sums``,
are compared with ``sum`` inside the bounds where they do not call it: a
numpy that reorders those reductions fails here by name, not only as a
trace digest that moved.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singopt.blocked import BlockPartition, BlockedVector, norm, row_dots
from singopt.landscapes import _column_sums, _row_sums
from singopt.standardize import StandardizeConfig, ZeroGradientBlockError, centralize, sing_rows, sing_transform

EXACT = StandardizeConfig(epsilon=0.0)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, 1e300, -1e300, 1.7e308, np.inf, -np.inf, np.nan]

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def blocked_vectors(draw):
    block_shapes = draw(st.lists(shapes, min_size=1, max_size=4))
    part = BlockPartition.of([(f"b{k}", shape) for k, shape in enumerate(block_shapes)])
    return BlockedVector(draw(arrays(np.float64, part.p, elements=values)), part)


def _vector(shapes, fill):
    part = BlockPartition.of([(f"b{k}", shape) for k, shape in enumerate(shapes)])
    return BlockedVector(np.resize(np.array(fill, dtype=np.float64), part.p), part)


def _reference_centralize(g: BlockedVector) -> np.ndarray:
    out = g.values.copy()
    for sl, (_, shape) in zip(g.partition.slices, g.partition.blocks):
        block = out[sl].reshape(shape)
        if block.ndim > 1:
            block -= block.mean(axis=tuple(range(1, block.ndim)), keepdims=True)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blocked_vectors())
@example(_vector([(5, 1), (3,), (2, 1, 1)], [1.0, -0.0, 1e300]))
@example(_vector([(4, 1), (2, 3, 1, 2)], [5e-324, -5e-324, 0.0, 1e-310]))
@example(_vector([(3, 1), (2, 2)], [np.inf, 1.0, -np.inf, np.nan]))
def test_reductions_equal_the_numpy_wrappers_byte_for_byte(g):
    with np.errstate(all="ignore"):
        flats = [g.values[sl] for sl in g.partition.slices]
        assert g.block_norms().tobytes() == np.array([np.linalg.norm(b) for b in flats]).tobytes()
        for k, flat in enumerate(flats):
            assert np.float64(g.block_l2_norm(k)).tobytes() == np.linalg.norm(flat).tobytes()
        assert np.float64(g.l2_norm()).tobytes() == np.linalg.norm(g.values).tobytes()
        assert np.float64(g.global_mean()).tobytes() == g.values.mean().tobytes()
        assert centralize(g).values.tobytes() == _reference_centralize(g).tobytes()


def _assert_rows_equal_the_per_vector_reductions(rows, partition):
    with np.errstate(all="ignore"):
        assert np.sqrt(row_dots(rows, rows)).tobytes() == np.array([norm(row) for row in rows]).tobytes()
        steps, whole = sing_rows(rows, partition)
        for row, step, ok in zip(rows, steps, whole):
            try:
                want = sing_transform(BlockedVector(row, partition), EXACT).values
            except ZeroGradientBlockError:
                assert not ok
            else:
                assert ok and step.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(blocked_vectors(), st.integers(-80, 80))
@example(_vector([(5, 1), (3,), (2, 1, 1)], [1.0, -0.0, 1e300]), 3)
@example(_vector([(4, 1), (2, 3, 1, 2)], [5e-324, -5e-324, 0.0, 1e-310]), -40)
@example(_vector([(3, 1), (2, 2)], [np.inf, 1.0, -np.inf, np.nan]), 1)
def test_row_reductions_equal_the_per_vector_ones_byte_for_byte(g, k):
    with np.errstate(over="ignore"):
        rows = np.stack([g.values, -g.values, np.ldexp(g.values, k), np.zeros(g.partition.p)])
    _assert_rows_equal_the_per_vector_reductions(rows, g.partition)


@pytest.mark.parametrize(
    "shapes",
    [[(10001,)], [(100, 100), (1,)], [(20000,)], [(100, 200)]],
    ids=["10001-flat", "10001-rank-2", "20000-flat", "20000-rank-2"],
)
def test_long_rows_equal_the_per_vector_reductions(shapes):
    # rows past the length where OpenBLAS splits a dot across threads
    part = BlockPartition.of([(f"b{k}", shape) for k, shape in enumerate(shapes)])
    rng = np.random.default_rng(part.p)
    rows = rng.standard_normal((4, part.p)) * np.array([[1.0], [1e-150], [1e150], [0.0]])
    _assert_rows_equal_the_per_vector_reductions(rows, part)


# stacks of (rows, columns) arrays, C-contiguous as the MLP pass makes them
def _sum_arrays(columns, elements):
    return st.tuples(
        st.lists(st.integers(1, 3), max_size=1).map(tuple), st.integers(1, 20), columns
    ).flatmap(lambda shape: arrays(np.float64, shape[0] + shape[1:], elements=elements))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sum_arrays(st.integers(2, 7), values.map(abs)), _sum_arrays(st.integers(2, 12), values))
@example(np.array([[5e-324, 0.0, 1e300, 1e-300, 1e300, 0.0]]), np.array([[-0.0, 0.0], [0.0, -0.0]]))
@example(np.full((2, 9, 7), 1e-310), np.array([[1e300, -1e300, 5e-324], [1.0, 1e300, -5e-324]] * 9))
def test_mlp_short_axis_sums_equal_numpy_sum_byte_for_byte(nonnegative, signed):
    # row sums see e = exp(...), never negative and never -0.0
    with np.errstate(all="ignore"):
        assert _row_sums(nonnegative).tobytes() == nonnegative.sum(axis=-1).tobytes()
        assert _column_sums(signed).tobytes() == signed.sum(axis=-2).tobytes()
