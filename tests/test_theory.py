import math

import numpy as np
import pytest

from singopt import theory
from singopt.blocked import BlockPartition, BlockedVector, norm
from singopt.landscapes import GaussianWells1D, Landscape, MlpTask, Quadratic, Rosenbrock, Well, make_blobs
from singopt.rng import Xoshiro256, derive_seed
from singopt.standardize import StandardizeConfig, ZeroGradientBlockError, centralize, sing_transform
from singopt.theory import (
    ConvergenceRecipe,
    EscapeThresholds,
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
    for make in (escape_thresholds, EscapeThresholds):
        with pytest.raises(ValueError):
            make(r=-1.0, grad_norm=1.0, D=1)
        with pytest.raises(ValueError):
            make(r=1.0, grad_norm=1.0, D=0)
        with pytest.raises(ValueError):
            make(r=1.0, grad_norm=-1.0, D=1)


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

        def _oracle(self, points):
            return points[:, 0] ** 3, 3.0 * points * points

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


# -- argument checks ------------------------------------------------------------------

def _quadratic4():
    part = BlockPartition.of([("x", (4,))])
    return Quadratic(part), BlockedVector(np.zeros(4), part)


@pytest.mark.parametrize(
    "argument, kwargs",
    [
        ("r_max", {"r_max": 0.0}),
        ("r_max", {"r_max": -1.0}),
        ("n_radial", {"n_radial": 0}),
        ("n_directions", {"n_directions": 0}),
    ],
    ids=["r_max-zero", "r_max-negative", "n_radial-zero", "n_directions-zero"],
)
def test_basin_radius_refuses_a_meaningless_argument(argument, kwargs):
    land, x_star = _quadratic4()
    with pytest.raises(ValueError, match=argument):
        estimate_basin_radius(land, x_star, **kwargs)


@pytest.mark.parametrize(
    "argument, r_hat, eta",
    [("r_hat", -1.0, 0.1), ("eta", 0.3, -0.1), ("eta", 0.3, math.nan), ("eta", 0.3, math.inf)],
    ids=["r_hat-negative", "eta-negative", "eta-nan", "eta-inf"],
)
def test_single_step_refuses_a_meaningless_argument(narrow_well, argument, r_hat, eta):
    land, m, x_star, _ = narrow_well
    with pytest.raises(ValueError, match=argument):
        single_step_escape_check(land, x_star, r_hat, eta, "sing", np.array([m + 0.1]))


@pytest.mark.parametrize(
    "make, starts",
    [
        (lambda: _wells_minimum(0), np.array([])),
        (lambda: _wells_minimum(0), np.empty((0, 1))),
        (lambda: _rosenbrock_minimum(), np.empty((0, 2))),
    ],
    ids=["p1-flat", "p1-rows", "p2-rows"],
)
def test_single_step_refuses_no_starts(make, starts):
    # zero starts would report 0 escape failures of 0
    land, x_star = make()
    for method in ("gd", "ngd", "sing"):
        with pytest.raises(ValueError, match="starts"):
            single_step_escape_check(land, x_star, 0.3, 0.1, method, starts)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_interior_grid_refuses_an_empty_grid(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        interior_grid_1d(0.5, 0.25, n)


@pytest.mark.parametrize(
    "argument, kwargs",
    [
        ("n_pairs", {"n_pairs": 0}),
        ("n_pairs", {"n_pairs": -3}),
        ("radius", {"radius": 0.0}),
        ("radius", {"radius": -1.0}),
        ("radius", {"radius": math.nan}),
        ("radius", {"radius": math.inf}),
    ],
    ids=["n_pairs-zero", "n_pairs-negative", "radius-zero", "radius-negative", "radius-nan", "radius-inf"],
)
def test_smoothness_refuses_a_meaningless_argument(argument, kwargs):
    # each of these returned 0.0, a vacuous lower bound on L, or failed on a non-finite point
    land, x0 = _quadratic4()
    with pytest.raises(ValueError, match=argument):
        estimate_smoothness(land, x0, **kwargs)


# -- the batched helpers against their per-point loops ---------------------------------

def _reference_basin_radius(landscape, x_star, r_max, n_radial, n_directions=64, seed=0):
    # estimate_basin_radius's walk as it was before ``gradients``, copied
    # verbatim: one evaluation per radial point
    p = x_star.partition.p
    if p == 1:
        directions = np.array([[1.0], [-1.0]])
    else:
        gen = Xoshiro256(derive_seed(seed, 0xBA511))
        directions = gen.normals(n_directions * p).reshape(n_directions, p)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    radii = np.linspace(r_max / n_radial, r_max, n_radial)
    r_hat = r_max
    base = x_star.values
    for u in directions:
        for i, rho in enumerate(radii):
            if rho >= r_hat:
                break
            x = BlockedVector(base + rho * u, x_star.partition)
            _, g = landscape.evaluate(x)
            if float(np.dot(g.values, x.values - base)) < 0.0:
                r_hat = radii[i - 1] if i > 0 else 0.0
                break
    return float(r_hat)


def _reference_single_step(landscape, x_star, r_hat, eta, method, starts):
    # single_step_escape_check's loop as it was before ``gradients``, copied
    # verbatim: one evaluation per start
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    if starts.shape[0] == 1 and x_star.partition.p == 1 and starts.shape[1] != 1:
        starts = starts.T
    n = starts.shape[0]
    escaped = np.zeros(n, dtype=bool)
    usable = np.ones(n, dtype=bool)
    exact = StandardizeConfig(centralize_enabled=True, normalize_enabled=True, epsilon=0.0)
    for i in range(n):
        x = BlockedVector(starts[i].copy(), x_star.partition)
        _, g = landscape.evaluate(x)
        if g.l2_norm() < 1e-12:
            usable[i] = False
            continue
        if method == "gd":
            step_vec = g.values
        elif method == "ngd":
            step_vec = g.values / norm(g.values)
        else:
            try:
                step_vec = sing_transform(g, exact).values
            except ZeroGradientBlockError:
                usable[i] = False
                continue
        new_x = x.values - eta * step_vec
        escaped[i] = norm(new_x - x_star.values) > r_hat
    return escaped, usable


class _Cubic(Landscape):
    """F(t) = sign * t^3: a critical point at 0 whose star condition fails at the first radius."""

    def __init__(self, sign):
        self.partition = BlockPartition.of([("x", (1,))])
        self.sign = sign

    def _oracle(self, points):
        return self.sign * points[:, 0] ** 3, self.sign * 3.0 * points * points


def _cubic_at_zero(sign):
    land = _Cubic(sign)
    return land, BlockedVector(np.zeros(1), land.partition)


def _rosenbrock_minimum():
    land = Rosenbrock()
    return land, BlockedVector(np.ones(2), land.partition)


def _wells_minimum(k):
    land = GaussianWells1D.default()
    return land, land.as_point(land.local_minima()[k])


def _rank2_quadratic():
    part = BlockPartition.of([("w", (2, 3)), ("v", (2,))])
    return Quadratic(part, smoothness=1.5), BlockedVector(np.zeros(part.p), part)


def _scalar_blocks_quadratic():
    # D = p = 8: SING steps every coordinate by exactly eta
    part = BlockPartition.of([(f"x{k}", (1,)) for k in range(8)])
    return Quadratic(part, smoothness=1.5), BlockedVector(np.zeros(part.p), part)


# (landscape and minimum, r_max, n_radial, n_directions); the wells' first
# violations sit at index 638 and 841 of direction +1, the wide well's at
# index 7058 of direction -1, and a cubic's at index 0 of one direction
BASIN_CASES = {
    "narrow-0": (lambda: _wells_minimum(0), 4.0, 8000, 64),
    "narrow-1": (lambda: _wells_minimum(1), 4.0, 8000, 64),
    "wide-second-direction": (lambda: _wells_minimum(2), 4.0, 8000, 64),
    "cubic-index-0-first-direction": (lambda: _cubic_at_zero(-1.0), 2.0, 1000, 64),
    "cubic-index-0-second-direction": (lambda: _cubic_at_zero(1.0), 2.0, 1000, 64),
    "rosenbrock": (_rosenbrock_minimum, 2.0, 1000, 16),
    "quadratic-rank-2": (_rank2_quadratic, 2.0, 200, 8),
    "quadratic-scalar-blocks": (_scalar_blocks_quadratic, 2.0, 200, 8),
}


@pytest.mark.parametrize("chunk", [None, 7], ids=["module-chunk", "7-radii-chunks"])
@pytest.mark.parametrize("name", BASIN_CASES)
def test_basin_radius_equals_the_per_point_walk(monkeypatch, name, chunk):
    make, r_max, n_radial, n_directions = BASIN_CASES[name]
    land, x_star = make()
    if chunk:
        monkeypatch.setattr(theory, "_RADIAL_CHUNK", chunk)
    want = _reference_basin_radius(land, x_star, r_max, n_radial, n_directions)
    got = estimate_basin_radius(land, x_star, r_max=r_max, n_radial=n_radial, n_directions=n_directions)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if name.startswith("cubic"):
        assert got == 0.0


@pytest.mark.parametrize("method", ["gd", "ngd", "sing"])
@pytest.mark.parametrize("k", [0, 1], ids=["narrow-0", "narrow-1"])
def test_single_step_on_the_wells_equals_the_per_start_loop(k, method):
    land, x_star = _wells_minimum(k)
    m = float(x_star.values[0])
    r_hat = estimate_basin_radius(land, x_star, r_max=4.0, n_radial=8000)
    # the minimum itself is a start with a vanishing gradient
    starts = np.append(interior_grid_1d(m, r_hat, 400), m)
    for eta in (0.0, 0.95 * r_hat, 1.05 * 2.0 * r_hat):
        got = single_step_escape_check(land, x_star, r_hat, eta, method, starts)
        want = _reference_single_step(land, x_star, r_hat, eta, method, starts)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert not got[1][-1] and got[1][:-1].all()
        if eta == 0.0 or method != "gd" and eta > 2.0 * r_hat:
            assert got[0][got[1]].all() == (eta > 0.0)


def _rosenbrock_starts():
    land, x_star = _rosenbrock_minimum()
    rng = np.random.default_rng(5)
    starts = np.vstack([np.ones(2), 1.0 + 0.3 * rng.standard_normal((60, 2))])
    return land, x_star, starts


def _rank2_quadratic_starts():
    land, x_star = _rank2_quadratic()
    rng = np.random.default_rng(6)
    starts = 0.4 * rng.standard_normal((60, land.partition.p))
    # rows of the (2, 3) block constant, in eighths so that the row means are
    # exact: its centralized gradient is zero
    starts[::4, :6] = np.repeat(np.round(8.0 * starts[::4, [0, 3]]) / 8.0, 3, axis=1)
    return land, x_star, starts


def _scalar_blocks_quadratic_starts():
    land, x_star = _scalar_blocks_quadratic()
    rng = np.random.default_rng(7)
    starts = 0.4 * rng.standard_normal((60, land.partition.p))
    # the minimum, and starts with one zero block: SING cannot step from those
    starts[0] = 0.0
    starts[5::5, 3] = 0.0
    return land, x_star, starts


@pytest.mark.parametrize("method", ["gd", "ngd", "sing"])
@pytest.mark.parametrize(
    "make",
    [_rosenbrock_starts, _rank2_quadratic_starts, _scalar_blocks_quadratic_starts],
    ids=["rosenbrock", "quadratic-rank-2", "quadratic-scalar-blocks"],
)
def test_single_step_on_general_partitions_equals_the_per_start_loop(make, method):
    land, x_star, starts = make()
    for eta in (0.0, 0.3, 1.2):
        got = single_step_escape_check(land, x_star, 0.5, eta, method, starts)
        want = _reference_single_step(land, x_star, 0.5, eta, method, starts)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # Rosenbrock's minimum, for SING the rank-2 quadratic's row-constant
    # starts, and the scalar-block quadratic's minimum and zero-block starts
    unusable = np.flatnonzero(~got[1]).tolist()
    if make is _rosenbrock_starts:
        assert unusable == [0]
    elif make is _rank2_quadratic_starts:
        assert unusable == (list(range(0, 60, 4)) if method == "sing" else [])
    else:
        assert unusable == (list(range(0, 60, 5)) if method == "sing" else [0])


def test_escape_helpers_evaluate_no_wells_point(monkeypatch):
    land, x_star = _wells_minimum(0)
    m = float(x_star.values[0])
    calls = []
    original = GaussianWells1D.gradients
    monkeypatch.setattr(
        GaussianWells1D, "gradients", lambda self, points: calls.append(points.shape) or original(self, points)
    )
    monkeypatch.setattr(GaussianWells1D, "evaluate", lambda self, x: pytest.fail("an escape helper evaluated a point"))
    r_hat = estimate_basin_radius(land, x_star, r_max=4.0, n_radial=8000)
    calls.clear()
    starts = interior_grid_1d(m, r_hat, 1000)
    escaped, usable = single_step_escape_check(land, x_star, r_hat, 1.05 * 2.0 * r_hat, "sing", starts)
    assert calls == [(1000, 1)]
    assert 0.2 < r_hat < 0.45 and escaped[usable].all()


def test_escape_helpers_refuse_a_foreign_partition():
    land = Quadratic(BlockPartition.of([("a", (3,))]))
    other = BlockedVector(np.zeros(3), BlockPartition.of([("b", (3,))]))
    with pytest.raises(ValueError, match="partition mismatch"):
        estimate_basin_radius(land, other)
    with pytest.raises(ValueError, match="partition mismatch"):
        single_step_escape_check(land, other, 0.5, 0.1, "gd", np.ones((2, 3)))


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


def test_smoothness_skips_pairs_at_distance_zero_without_gradients(monkeypatch):
    landscape, x0 = _mlp(4)
    # zero scales put every x and y at x0
    monkeypatch.setattr(theory, "uniforms_from_words", lambda words: np.zeros(words.shape))
    monkeypatch.setattr(landscape, "gradients", lambda points: pytest.fail("asked for gradients"))
    monkeypatch.setattr(landscape, "evaluate", lambda x: pytest.fail("evaluated a point"))
    assert estimate_smoothness(landscape, x0, n_pairs=30, radius=0.5, seed=7) == 0.0
