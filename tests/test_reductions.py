"""The block reductions equal numpy's wrappers byte for byte.

``blocked.norm``, ``BlockedVector.global_mean`` and ``standardize.centralize``
call the kernels that ``np.linalg.norm`` and ``ndarray.mean`` call, without
the wrappers.  These properties compare them with the wrappers through
``.tobytes()``, so a sign of zero or a nan payload counts too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singopt.blocked import BlockPartition, BlockedVector
from singopt.standardize import centralize

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
