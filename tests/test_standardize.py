import math

import numpy as np
import pytest

from singopt.blocked import BlockPartition, BlockedVector, from_blocks
from singopt.optimizers import ConfigError, SingPipelineConfig, apply_weight_decay
from singopt.standardize import (
    StandardizeConfig,
    ZeroGradientBlockError,
    centralize,
    gamma,
    sing_transform,
)
from singopt.verify import random_blocked

EXACT = StandardizeConfig(centralize_enabled=True, normalize_enabled=True, epsilon=0.0)
NORM_ONLY = StandardizeConfig(centralize_enabled=False, normalize_enabled=True, epsilon=0.0)


def test_config_validates_epsilon():
    with pytest.raises(ValueError):
        StandardizeConfig(epsilon=-1e-9)


def test_centralize_2x2_rows():
    part = BlockPartition.of([("W", (2, 2))])
    g = BlockedVector(np.array([1.0, 2.0, 3.0, 4.0]), part)
    out = centralize(g)
    assert np.array_equal(out.block(0), np.array([[-0.5, 0.5], [-0.5, 0.5]]))


def test_centralize_rank1_passthrough():
    part = BlockPartition.of([("b", (3,))])
    g = BlockedVector(np.array([1.0, 2.0, 3.0]), part)
    out = centralize(g)
    assert np.array_equal(out.values, g.values)
    assert out.values is not g.values


def test_centralize_idempotent():
    rng = np.random.default_rng(3)
    part = BlockPartition.of([("W", (3, 4)), ("b", (2,)), ("K", (2, 3, 2))])
    g = BlockedVector(rng.standard_normal(part.p), part)
    once = centralize(g)
    twice = centralize(once)
    assert np.allclose(twice.values, once.values, rtol=0, atol=1e-15 * g.l2_norm())


def test_centralize_slices_sum_to_zero():
    rng = np.random.default_rng(4)
    part = BlockPartition.of([("W", (5, 3)), ("T", (2, 3, 4))])
    out = centralize(BlockedVector(rng.standard_normal(part.p), part))
    for k in range(part.D):
        block = out.block(k)
        sums = block.sum(axis=tuple(range(1, block.ndim)))
        assert np.all(np.abs(sums) < 1e-14)


def test_gamma_single_block():
    part = BlockPartition.of([("a", (2,))])
    out = gamma(BlockedVector(np.array([3.0, 4.0]), part))
    assert np.array_equal(out, np.array([5.0]))


def test_gamma_two_blocks():
    part = BlockPartition.of([("a", (2,)), ("b", (2,))])
    v = from_blocks(part, [np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    assert np.array_equal(gamma(v), np.array([1.0, 2.0]))


def test_gamma_zero_block_is_zero():
    part = BlockPartition.of([("a", (2,)), ("b", (2,))])
    v = from_blocks(part, [np.zeros(2), np.array([0.0, 2.0])])
    assert np.array_equal(gamma(v), np.array([0.0, 2.0]))


def test_sing_transform_unit_block():
    part = BlockPartition.of([("a", (2,))])
    g = BlockedVector(np.array([3.0, 4.0]), part)
    out = sing_transform(g, NORM_ONLY)
    assert np.array_equal(out.values, np.array([0.6, 0.8]))


def test_sing_transform_sqrt_d():
    rng = np.random.default_rng(5)
    part = BlockPartition.of([("a", (3,)), ("b", (2, 2)), ("c", (4,)), ("d", (2, 3))])
    g = BlockedVector(rng.standard_normal(part.p), part)
    out = sing_transform(g, EXACT)
    assert out.l2_norm() == pytest.approx(2.0, rel=1e-12)


def test_sing_transform_identity_when_disabled():
    part = BlockPartition.of([("a", (3,))])
    g = BlockedVector(np.array([5.0, -1.0, 2.0]), part)
    out = sing_transform(g, StandardizeConfig.identity())
    assert np.array_equal(out.values, g.values)


def test_zero_block_error_names_block():
    part = BlockPartition.of([("good", (2,)), ("stuck", (2,))])
    g = from_blocks(part, [np.array([1.0, 1.0]), np.zeros(2)])
    with pytest.raises(ZeroGradientBlockError, match="stuck"):
        sing_transform(g, NORM_ONLY)


def test_constant_slices_block_is_zero_after_centralization():
    # every first-axis slice constant => centralization kills the block
    part = BlockPartition.of([("W", (2, 3))])
    g = BlockedVector(np.repeat([1.0, 4.0], 3), part)
    with pytest.raises(ZeroGradientBlockError, match="W"):
        sing_transform(g, EXACT)


def test_zero_block_with_guard_gives_zero_update():
    part = BlockPartition.of([("good", (2,)), ("stuck", (2,))])
    g = from_blocks(part, [np.array([3.0, 4.0]), np.zeros(2)])
    out = sing_transform(g, StandardizeConfig(False, True, 1e-8))
    assert np.array_equal(out.block_flat(1), np.zeros(2))
    assert out.block_l2_norm(0) < 1.0  # epsilon shrinks the unit norm slightly


def test_rescale_invariance_power_of_two_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = random_blocked(rng)
        base = sing_transform(g, EXACT)
        scaled = g.copy()
        for k in range(g.partition.D):
            scaled.block_flat(k)[:] *= 2.0 ** int(rng.integers(-8, 9))
        out = sing_transform(scaled, EXACT)
        assert np.array_equal(out.values, base.values)


def test_rescale_invariance_general_factor():
    rng = np.random.default_rng(7)
    part = BlockPartition.of([("a", (3,)), ("b", (2, 2))])
    g = BlockedVector(rng.standard_normal(part.p), part)
    base = sing_transform(g, EXACT)
    out = sing_transform(g.scale(7.3), EXACT)
    np.testing.assert_allclose(out.values, base.values, rtol=1e-12, atol=0)


def test_phi_projector_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = random_blocked(rng)
        y = BlockedVector(rng.standard_normal(x.partition.p), x.partition)
        a, b = rng.uniform(-2, 2, 2)
        combo = centralize(BlockedVector(a * x.values + b * y.values, x.partition))
        lin_resid = np.linalg.norm(combo.values - a * centralize(x).values - b * centralize(y).values)
        assert lin_resid <= 1e-12 * (abs(a) * x.l2_norm() + abs(b) * y.l2_norm() + 1e-300)
        adj = abs(centralize(x).dot(y) - x.dot(centralize(y)))
        assert adj <= 1e-12 * (x.l2_norm() * y.l2_norm() + 1e-300)


def test_pseudo_norm_ordering():
    from singopt.theory import phi_pseudo_norm

    rng = np.random.default_rng(9)
    for _ in range(200):
        g = random_blocked(rng)
        assert phi_pseudo_norm(g) <= g.l2_norm() * (1 + 1e-12)
        assert g.l2_norm() <= g.structured_norm() * (1 + 1e-12)


def test_inner_product_identities():
    rng = np.random.default_rng(10)
    for _ in range(100):
        g = random_blocked(rng)
        plain = sing_transform(g, NORM_ONLY)
        assert g.dot(plain) == pytest.approx(g.structured_norm(), rel=1e-10)

        from singopt.theory import structured_phi_norm

        gc = sing_transform(g, EXACT)
        assert g.dot(gc) == pytest.approx(structured_phi_norm(g), rel=1e-9)


# -- the per-block loops the block layout replaced, kept verbatim as references

def _loop_centralize(g: BlockedVector) -> BlockedVector:
    out = g.copy()
    part = g.partition
    for k in range(part.D):
        if part.rank(k) > 1:
            block = out.block(k)
            axes = tuple(range(1, block.ndim))
            block -= block.mean(axis=axes, keepdims=True)
    return out


def _loop_gamma(g: BlockedVector) -> BlockedVector:
    out = np.empty_like(g.values)
    part = g.partition
    for k in range(part.D):
        sl = part.slice_of(k)
        out[sl] = np.linalg.norm(g.values[sl])
    return BlockedVector(out, part)


def _loop_sing_transform(g: BlockedVector, cfg: StandardizeConfig) -> BlockedVector:
    h = _loop_centralize(g) if cfg.centralize_enabled else g.copy()
    if not cfg.normalize_enabled:
        return h
    denom = _loop_gamma(h)
    if cfg.epsilon == 0.0:
        part = h.partition
        for k in range(part.D):
            if denom.values[part.offsets[k]] == 0.0:
                raise ZeroGradientBlockError(part.name(k))
    else:
        denom = BlockedVector(denom.values + cfg.epsilon, h.partition)
    h.values /= denom.values
    return h


def _loop_apply_weight_decay(p: BlockedVector, lr: float, cfg: SingPipelineConfig) -> BlockedVector:
    if cfg.weight_decay == 0.0:
        return p.copy()
    shrink = lr * cfg.weight_decay
    if shrink >= 1.0:
        raise ConfigError(f"lr * weight_decay = {shrink} >= 1 would flip parameter signs")
    out = p.copy()
    part = p.partition
    for k in range(part.D):
        if part.name(k) not in cfg.weight_decay_skip:
            out.block_flat(k)[:] *= 1.0 - shrink
    return out


def _mixed_rank(rng: np.random.Generator, d: int) -> BlockedVector:
    """D blocks of rank 1 to 3; rank > 1 slices hold >= 2 normal entries."""
    blocks = []
    for k in range(d):
        rank = int(rng.integers(1, 4))
        shape = (int(rng.integers(1, 5)),) + tuple(int(n) for n in rng.integers(2, 5, size=rank - 1))
        blocks.append((f"t{k}", shape))
    part = BlockPartition.of(blocks)
    return BlockedVector(rng.standard_normal(part.p), part)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LAYOUT_CONFIGS = [
    StandardizeConfig(centralize_enabled=c, normalize_enabled=True, epsilon=eps)
    for c in (True, False)
    for eps in (0.0, 1e-8)
] + [StandardizeConfig(centralize_enabled=True, normalize_enabled=False, epsilon=0.0)]


@pytest.mark.parametrize("d", [1, 4, 9, 40])
def test_layout_transform_bit_identical_to_block_loops(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        g = _mixed_rank(rng, d)
        g.values *= 10.0 ** rng.integers(-3, 4, size=g.partition.p)
        assert _same_bits(centralize(g).values, _loop_centralize(g).values)
        assert _same_bits(gamma(g), _loop_gamma(g).values[list(g.partition.offsets)])
        for cfg in LAYOUT_CONFIGS:
            assert _same_bits(sing_transform(g, cfg).values, _loop_sing_transform(g, cfg).values)


@pytest.mark.parametrize("d", [1, 4, 9, 40])
def test_layout_zero_block_with_guard_bit_identical(d):
    rng = np.random.default_rng(200 + d)
    g = _mixed_rank(rng, d)
    g.block_flat(int(rng.integers(0, d)))[:] = 0.0
    for cfg in (StandardizeConfig(True, True, 1e-8), StandardizeConfig(False, True, 1e-8)):
        assert _same_bits(sing_transform(g, cfg).values, _loop_sing_transform(g, cfg).values)


def test_nan_block_norm_does_not_raise_at_epsilon_zero():
    part = BlockPartition.of([("a", (2,)), ("b", (2,))])
    g = from_blocks(part, [np.array([np.nan, 1.0]), np.array([3.0, 4.0])])
    out = sing_transform(g, NORM_ONLY)
    assert np.isnan(out.block_flat(0)).all()
    assert np.array_equal(out.block_flat(1), np.array([0.6, 0.8]))


def test_zero_block_error_names_the_first_zero_block():
    part = BlockPartition.of([("good", (2,)), ("first", (2, 2)), ("also", (3,)), ("second", (2,))])
    g = from_blocks(part, [np.ones(2), np.zeros((2, 2)), np.ones(3), np.zeros(2)])
    for cfg in (EXACT, NORM_ONLY):
        with pytest.raises(ZeroGradientBlockError, match="'first'") as exc:
            sing_transform(g, cfg)
        assert exc.value.block_name == "first"


@pytest.mark.parametrize("d", [1, 4, 9, 40])
def test_layout_weight_decay_bit_identical_to_block_loop(d):
    rng = np.random.default_rng(300 + d)
    p = _mixed_rank(rng, d)
    names = p.partition.names
    skips = [frozenset(), frozenset(names[::2]), frozenset(names), frozenset({"not_a_block"})]
    for decay in (0.0, 0.01, 0.3):
        for skip in skips:
            cfg = SingPipelineConfig(weight_decay=decay, weight_decay_skip=skip)
            for lr in (0.05, 1.0):
                out = apply_weight_decay(p, lr, cfg)
                assert _same_bits(out.values, _loop_apply_weight_decay(p, lr, cfg).values)
                assert out.values is not p.values
