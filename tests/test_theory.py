import math

import numpy as np
import pytest

from singopt import theory
from singopt.blocked import BlockPartition, BlockedVector
from singopt.landscapes import GaussianWells1D, Landscape, MlpTask, Quadratic, Well, make_blobs
from singopt.rng import Xoshiro256, derive_seed
from singopt.standardize import centralize
from singopt.theory import (
    ConvergenceRecipe,
    convergence_audit,
    escape_thresholds,
    estimate_basin_radius,
    estimate_smoothness,
    interior_grid_1d,
    phi_pseudo_norm,
    single_step_escape_check,
    structured_phi_norm,
)
from singopt.verify import random_blocked


# -- thresholds -----------------------------------------------------------------

def test_thresholds_examples():
    th = escape_thresholds(r=0.5, grad_norm=1.0, D=4)
    assert th.eta_sing == 0.5
    assert th.eta_ngd == 1.0
    th1 = escape_thresholds(r=0.5, grad_norm=1.0, D=1)
    assert th1.eta_sing == th1.eta_ngd == 1.0


def test_threshold_gd_degenerates_with_vanishing_gradient():
    assert escape_thresholds(r=0.5, grad_norm=0.0, D=1).eta_gd == math.inf
    assert escape_thresholds(r=0.5, grad_norm=1e-9, D=1).eta_gd == pytest.approx(1e9)


def test_threshold_ordering_over_d():
    for d in range(1, 40):
        th = escape_thresholds(r=1.3, grad_norm=2.0, D=d)
        assert th.eta_sing <= th.eta_ngd
        assert th.eta_sing == pytest.approx(th.eta_ngd / math.sqrt(d))


def test_thresholds_validation():
    with pytest.raises(ValueError):
        escape_thresholds(r=-1.0, grad_norm=1.0, D=1)
    with pytest.raises(ValueError):
        escape_thresholds(r=1.0, grad_norm=1.0, D=0)


# -- basin radius ------------------------------------------------------------------

def test_basin_radius_quadratic_is_sampling_limit():
    part = BlockPartition.of([("x", (1,))])
    land = Quadratic(part, smoothness=2.0)
    r = estimate_basin_radius(land, BlockedVector(np.zeros(1), part), r_max=3.0, n_radial=500)
    assert r == 3.0


def test_basin_radius_quadratic_multidim():
    part = BlockPartition.of([("x", (2, 2))])
    land = Quadratic(part, smoothness=1.0)
    r = estimate_basin_radius(land, BlockedVector(np.zeros(4), part), r_max=2.0, n_radial=200, n_directions=16)
    assert r == 2.0


def test_basin_radius_requires_critical_point():
    part = BlockPartition.of([("x", (1,))])
    land = Quadratic(part, smoothness=2.0)
    with pytest.raises(ValueError, match="critical"):
        estimate_basin_radius(land, BlockedVector(np.array([1.0]), part))


def test_basin_radius_isolated_well_fills_the_box():
    # a lone Gaussian well with no background attracts from everywhere:
    # the inner-product condition holds on the whole line, so the estimate
    # is the sampling limit, not the inflection distance
    land = GaussianWells1D(curvature=0.0, wells=[Well(1.0, 0.0, 0.25)])
    r = estimate_basin_radius(land, land.as_point(0.0), r_max=5.0, n_radial=1000)
    assert r == 5.0


def test_basin_radius_saddle_is_zero():
    class Cubic(Landscape):
        def __init__(self):
            self.partition = BlockPartition.of([("x", (1,))])

        def evaluate(self, x):
            t = float(x.values[0])
            return self._checked(x, t**3, np.array([3.0 * t * t]))

    land = Cubic()
    # the cubic's critical point at 0 has no ball inside its basin
    r = estimate_basin_radius(land, BlockedVector(np.zeros(1), land.partition), r_max=2.0, n_radial=1000)
    assert r <= 2.0 / 1000


def test_basin_radius_narrow_wells_of_default_landscape():
    land = GaussianWells1D.default()
    minima = land.local_minima()
    r0 = estimate_basin_radius(land, land.as_point(minima[0]), r_max=4.0, n_radial=4000)
    r1 = estimate_basin_radius(land, land.as_point(minima[1]), r_max=4.0, n_radial=4000)
    assert 0.2 < r0 < 0.45
    assert 0.3 < r1 < 0.55


# -- single-step escape ---------------------------------------------------------------

@pytest.fixture(scope="module")
def narrow_well():
    land = GaussianWells1D.default()
    m = land.local_minima()[0]
    x_star = land.as_point(m)
    r_hat = estimate_basin_radius(land, x_star, r_max=4.0, n_radial=4000)
    return land, m, x_star, r_hat


def test_sing_escapes_above_threshold(narrow_well):
    land, m, x_star, r_hat = narrow_well
    eta = 1.05 * (2.0 * r_hat / math.sqrt(1))
    starts = interior_grid_1d(m, r_hat, 500)
    escaped, usable = single_step_escape_check(land, x_star, r_hat, eta, "sing", starts)
    assert usable.sum() > 450
    assert escaped[usable].all()


def test_ngd_equals_sing_in_one_block_problems(narrow_well):
    land, m, x_star, r_hat = narrow_well
    eta = 1.05 * 2.0 * r_hat
    starts = interior_grid_1d(m, r_hat, 100)
    sing, u1 = single_step_escape_check(land, x_star, r_hat, eta, "sing", starts)
    ngd, u2 = single_step_escape_check(land, x_star, r_hat, eta, "ngd", starts)
    assert np.array_equal(sing, ngd)
    assert np.array_equal(u1, u2)


def test_gd_small_gradient_point_stays(narrow_well):
    land, m, x_star, r_hat = narrow_well
    eta = 1.05 * 2.0 * r_hat
    starts = interior_grid_1d(m, r_hat, 500)
    slopes = np.abs(land.slope(starts))
    weakest = starts[int(np.argmin(np.where(slopes >= 1e-12, slopes, np.inf)))]
    escaped, usable = single_step_escape_check(land, x_star, r_hat, eta, "gd", np.array([weakest]))
    assert usable[0] and not escaped[0]


def test_zero_learning_rate_never_escapes(narrow_well):
    land, m, x_star, r_hat = narrow_well
    starts = interior_grid_1d(m, r_hat, 50)
    escaped, usable = single_step_escape_check(land, x_star, r_hat, 0.0, "sing", starts)
    assert not escaped[usable].any()


def test_unknown_method_rejected(narrow_well):
    land, m, x_star, r_hat = narrow_well
    with pytest.raises(ValueError, match="method"):
        single_step_escape_check(land, x_star, r_hat, 0.1, "newton", np.array([m + 0.1]))


# -- convergence recipe and audit ------------------------------------------------------

def test_recipe_derived_quantities():
    recipe = ConvergenceRecipe(epsilon=0.05, L=2.0, F0=1.0, D=4)
    assert recipe.eta == 0.05
    assert recipe.T == 400
    assert recipe.bound_rhs == pytest.approx((2 + 2 + 4) * 0.05)
    noisy = ConvergenceRecipe(epsilon=0.1, L=2.0, F0=1.0, D=1, sigma=0.5)
    assert noisy.batch == 25


def test_recipe_validation():
    with pytest.raises(ValueError):
        ConvergenceRecipe(epsilon=0.0, L=2.0, F0=1.0, D=1)
    with pytest.raises(ValueError):
        ConvergenceRecipe(epsilon=0.1, L=2.0, F0=1.0, D=0)


class _FakeTrace:
    def __init__(self, l2, phi):
        self.grad_l2 = np.asarray(l2)
        self.grad_phi = np.asarray(phi)


def test_audit_single_step_trivial_bound():
    # with T = 1, lhs is just the initial gradient norm and rhs >= F0/eta
    recipe = ConvergenceRecipe(epsilon=0.5, L=0.5, F0=1.0, D=1)
    assert recipe.T == 1
    trace = _FakeTrace([1.7], [1.7])
    result = convergence_audit(trace, recipe, mode="l2")
    assert result.lhs == 1.7
    assert result.rhs >= recipe.F0 / recipe.eta


def test_audit_requires_enough_steps():
    recipe = ConvergenceRecipe(epsilon=0.05, L=2.0, F0=1.0, D=1)
    with pytest.raises(ValueError, match="steps"):
        convergence_audit(_FakeTrace([1.0] * 10, [1.0] * 10), recipe)


def test_audit_rejects_unknown_mode():
    recipe = ConvergenceRecipe(epsilon=0.5, L=0.5, F0=1.0, D=1)
    with pytest.raises(ValueError, match="mode"):
        convergence_audit(_FakeTrace([1.0], [1.0]), recipe, mode="linf")


def test_audit_fails_when_average_is_large():
    recipe = ConvergenceRecipe(epsilon=0.5, L=0.5, F0=1.0, D=1)
    result = convergence_audit(_FakeTrace([100.0], [100.0]), recipe)
    assert not result.passed


# -- phi pseudo-norm ---------------------------------------------------------------------

def test_phi_pseudo_norm_kernel_blocks_contribute_nothing():
    part = BlockPartition.of([("W", (2, 3)), ("b", (2,))])
    values = np.concatenate([np.repeat([4.0, -1.0], 3), np.array([1.0, 2.0])])
    v = BlockedVector(values, part)
    # rank-2 block has constant slices -> centralized away; rank-1 passes through
    assert phi_pseudo_norm(v) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_phi_pseudo_norm_of_centralized_vector_is_l2():
    rng = np.random.default_rng(12)
    v = random_blocked(rng)
    c = centralize(v)
    assert phi_pseudo_norm(c) == pytest.approx(c.l2_norm(), rel=1e-12)


def test_phi_pseudo_norm_bounded_by_l2():
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = random_blocked(rng)
        assert phi_pseudo_norm(v) <= v.l2_norm() * (1 + 1e-12)


def test_phi_pythagoras():
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = random_blocked(rng)
        resid = BlockedVector(v.values - centralize(v).values, v.partition)
        lhs = phi_pseudo_norm(v) ** 2 + resid.l2_norm() ** 2
        assert lhs == pytest.approx(v.l2_norm() ** 2, rel=1e-10)


def test_structured_phi_norm_sums_blocks():
    rng = np.random.default_rng(15)
    for _ in range(20):
        v = random_blocked(rng)
        # each block tensor centralized alone, as a one-block vector
        total = 0.0
        for k, block in enumerate(v.blocks()):
            alone = BlockedVector(block.ravel().copy(), BlockPartition.of([(v.partition.name(k), block.shape)]))
            total += math.sqrt(max(0.0, float(np.dot(alone.values, centralize(alone).values))))
        assert structured_phi_norm(v) == pytest.approx(total, rel=1e-15)


# -- smoothness estimate ----------------------------------------------------------


def _per_pair_smoothness(landscape, x0, n_pairs, radius, seed):
    """estimate_smoothness as it was before its draws were batched, plus the state it leaves."""
    gen = Xoshiro256(derive_seed(seed, 0x5E00))
    p = x0.partition.p
    best = 0.0
    for _ in range(n_pairs):
        dx = gen.normals(p)
        dy = gen.normals(p)
        x = BlockedVector(x0.values + radius * dx / np.linalg.norm(dx) * gen.uniform(), x0.partition)
        y = BlockedVector(x0.values + radius * dy / np.linalg.norm(dy) * gen.uniform(), x0.partition)
        dist = float(np.linalg.norm(x.values - y.values))
        if dist == 0.0:
            continue
        _, gx = landscape.evaluate(x)
        _, gy = landscape.evaluate(y)
        best = max(best, float(np.linalg.norm(gx.values - gy.values)) / dist)
    return best, gen.s


def _mlp(hidden):
    task = MlpTask(make_blobs(seed=3, n=40, classes=3, dim=2, spread=0.3), hidden=hidden, init_seed=3)
    return task, task.initial_params()


def _wells():
    wells = GaussianWells1D.default()
    return wells, wells.as_point(0.3)


@pytest.mark.parametrize(
    "make, n_pairs",
    [
        (_wells, 7),  # p = 1: 26 words a pair, 182 in all, the scalar loop
        (_wells, 1300),  # runs of 1260 pairs and 40 pairs
        (lambda: _mlp(8), 60),  # p = 51: runs of 26, 26 and 8 pairs
        (lambda: _mlp(240), 3),  # p = 1443: one pair is more than a run's words
    ],
    ids=["p1-scalar", "p1-runs", "p51", "p1443"],
)
def test_batched_smoothness_draws_equal_the_per_pair_loop(monkeypatch, make, n_pairs):
    made = []

    class Recorded(Xoshiro256):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    landscape, x0 = make()
    expected, state = _per_pair_smoothness(landscape, x0, n_pairs, 0.5, 7)
    monkeypatch.setattr(theory, "Xoshiro256", Recorded)
    got = estimate_smoothness(landscape, x0, n_pairs=n_pairs, radius=0.5, seed=7)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert expected > 0.0
    assert [gen.s for gen in made] == [state]
