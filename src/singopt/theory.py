"""Executable forms of the escape and convergence guarantees.

This module turns the analytical statements about standardized updates
into checkable numbers:

* escape thresholds: a single standardized step of size at least
  ``2 r / sqrt(D)`` leaves any ball of radius ``r`` inscribed in a basin
  of attraction (``2 r`` for globally-normalized GD, ``2 r / |grad|``
  for plain GD, which degenerates as the gradient vanishes);
* a numeric basin-radius estimator based on the inner-product
  characterization ``<grad F(x), x - x*> >= 0``;
* time-average gradient-norm audits against the bound
  ``F(x0)/(eta T) + (1 + sqrt(D)) eps + eta L D / 2`` and its recipe
  form ``(2 + sqrt(D) + D) eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, norm
from .landscapes import Landscape
from .rng import Xoshiro256, derive_seed, normals_from_words, uniforms_from_words
from .standardize import StandardizeConfig, ZeroGradientBlockError, centralize, sing_transform

__all__ = [
    "EscapeThresholds",
    "escape_thresholds",
    "estimate_basin_radius",
    "single_step_escape_check",
    "interior_grid_1d",
    "ConvergenceRecipe",
    "AuditResult",
    "convergence_audit",
    "phi_pseudo_norm",
    "structured_phi_norm",
    "estimate_smoothness",
]

# words drawn at once by estimate_smoothness: 256 KiB
_SMOOTHNESS_RUN_WORDS = 1 << 15


@dataclass(frozen=True)
class EscapeThresholds:
    """Single-step escape learning rates for a ball of radius ``r``."""

    r: float
    grad_norm: float
    D: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("radius must be >= 0")
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.grad_norm < 0:
            raise ValueError("grad_norm must be >= 0")

    @property
    def eta_sing(self) -> float:
        return 2.0 * self.r / math.sqrt(self.D)

    @property
    def eta_ngd(self) -> float:
        return 2.0 * self.r

    @property
    def eta_gd(self) -> float:
        if self.grad_norm == 0.0:
            return math.inf
        return 2.0 * self.r / self.grad_norm


escape_thresholds = EscapeThresholds


def estimate_basin_radius(
    landscape: Landscape,
    x_star: BlockedVector,
    r_max: float = 8.0,
    n_radial: int = 4000,
    n_directions: int = 64,
    seed: int = 0,
    critical_tol: float = 1e-8,
) -> float:
    """Lower-bound estimate of the largest centered ball inside the basin.

    Samples points radially out to ``r_max`` (dense two-sided grid in 1-D,
    ``n_directions`` random unit directions otherwise) and returns the
    largest sampled radius below the first violation of
    ``<grad F(x), x - x*> >= 0``.  ``r_max`` itself is returned when no
    violation is found inside the sampling box.  ``x_star`` must already
    be critical to ``critical_tol``.
    """
    _, g_star = landscape.evaluate(x_star)
    if g_star.l2_norm() >= critical_tol:
        raise ValueError(
            f"x_star is not a critical point: ||grad|| = {g_star.l2_norm():.3g} >= {critical_tol:.3g}"
        )
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


def interior_grid_1d(x_star: float, r_hat: float, n: int) -> np.ndarray:
    """``n`` strictly interior points of the interval of radius ``r_hat``."""
    return np.linspace(x_star - r_hat, x_star + r_hat, n + 2)[1:-1]


def single_step_escape_check(
    landscape: Landscape,
    x_star: BlockedVector,
    r_hat: float,
    eta: float,
    method: str,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the chosen method from each start inside the ball.

    Returns ``(escaped, usable)`` boolean arrays over ``starts`` (shape
    ``(n, p)`` or ``(n,)`` when p == 1).  Starts where the gradient (or a
    block of it) vanishes cannot take a normalized step and are marked
    unusable; ``escaped`` records whether the new point left the closed
    ball of radius ``r_hat``.
    """
    if method not in ("gd", "ngd", "sing"):
        raise ValueError(f"unknown method {method!r}")
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


@dataclass(frozen=True)
class ConvergenceRecipe:
    """Precision-driven parameter recipe for the convergence bound.

    Derived quantities: ``eta = 2 eps / L``, ``T = ceil(L F0 / (2 eps^2))``,
    ``batch = ceil(sigma^2 / eps^2)`` and the recipe bound
    ``(2 + sqrt(D) + D) * eps``.
    """

    epsilon: float
    L: float
    F0: float
    D: int
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.L <= 0 or self.F0 <= 0:
            raise ValueError("epsilon, L and F0 must be positive")
        if self.D < 1:
            raise ValueError("D must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def eta(self) -> float:
        return 2.0 * self.epsilon / self.L

    @property
    def T(self) -> int:
        return int(math.ceil(self.L * self.F0 / (2.0 * self.epsilon**2)))

    @property
    def batch(self) -> int:
        return max(1, int(math.ceil(self.sigma**2 / self.epsilon**2)))

    @property
    def bound_rhs(self) -> float:
        return (2.0 + math.sqrt(self.D) + self.D) * self.epsilon


@dataclass(frozen=True)
class AuditResult:
    mode: str
    lhs: float
    rhs: float
    rhs_recipe: float
    passed: bool


def convergence_audit(trace, recipe: ConvergenceRecipe, mode: str = "l2") -> AuditResult:
    """Compare the time-averaged gradient norm of a run against the bound.

    ``trace`` must expose per-step ``grad_l2`` and ``grad_phi`` arrays of
    length at least ``recipe.T`` recorded with the recipe's step size.
    """
    if mode not in ("l2", "phi"):
        raise ValueError(f"unknown audit mode {mode!r}")
    norms = np.asarray(trace.grad_phi if mode == "phi" else trace.grad_l2, dtype=np.float64)
    if norms.size < recipe.T:
        raise ValueError(f"trace has {norms.size} steps, recipe needs {recipe.T}")
    lhs = float(norms[: recipe.T].mean())
    rhs = (
        recipe.F0 / (recipe.eta * recipe.T)
        + (1.0 + math.sqrt(recipe.D)) * recipe.epsilon
        + recipe.eta * recipe.L * recipe.D / 2.0
    )
    rhs_recipe = recipe.bound_rhs
    return AuditResult(
        mode=mode,
        lhs=lhs,
        rhs=rhs,
        rhs_recipe=rhs_recipe,
        passed=lhs <= rhs and lhs <= rhs_recipe,
    )


def phi_pseudo_norm(v: BlockedVector) -> float:
    """sqrt(<v, centralized v>), which equals the L2 norm of the centralized part."""
    return _phi_pseudo_norm(v, centralize(v))


def structured_phi_norm(v: BlockedVector) -> float:
    """Sum over blocks of the per-block centralized pseudo-norm."""
    return _structured_phi_norm(v, centralize(v))


# the two norms above, of v and its centralized copy c, for callers that already hold c
def _phi_pseudo_norm(v: BlockedVector, c: BlockedVector) -> float:
    return math.sqrt(max(0.0, v.dot(c)))


def _structured_phi_norm(v: BlockedVector, c: BlockedVector) -> float:
    return float(sum(math.sqrt(max(0.0, float(np.dot(v.values[sl], c.values[sl])))) for sl in v.partition.slices))


def estimate_smoothness(
    landscape: Landscape,
    x0: BlockedVector,
    n_pairs: int = 200,
    radius: float = 1.0,
    seed: int = 0,
) -> float:
    """Empirical lower bound on L: max gradient difference quotient over pairs.

    Each pair draws ``normals(p)`` for dx and for dy, then one uniform for
    each.  Runs of pairs draw their words at once, at most
    ``_SMOOTHNESS_RUN_WORDS`` a run unless one pair needs more, so long
    runs go through the lanes and the stream is the per-pair one.
    """
    gen = Xoshiro256(derive_seed(seed, 0x5E00))
    p = x0.partition.p
    pair_words = 24 * p + 2
    run = max(1, _SMOOTHNESS_RUN_WORDS // pair_words)
    best = 0.0
    for start in range(0, n_pairs, run):
        pairs = min(run, n_pairs - start)
        words = gen._word_array(pairs * pair_words).reshape(pairs, pair_words)
        directions = normals_from_words(words[:, : 24 * p]).reshape(pairs, 2, p)
        scales = uniforms_from_words(words[:, 24 * p :])
        for (dx, dy), (ux, uy) in zip(directions, scales):
            x = BlockedVector(x0.values + radius * dx / norm(dx) * ux, x0.partition)
            y = BlockedVector(x0.values + radius * dy / norm(dy) * uy, x0.partition)
            dist = norm(x.values - y.values)
            if dist == 0.0:
                continue
            _, gx = landscape.evaluate(x)
            _, gy = landscape.evaluate(y)
            best = max(best, norm(gx.values - gy.values) / dist)
    return best
