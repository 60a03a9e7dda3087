"""Executable property suites behind ``singopt check``.

Five suites (``lemmas``, ``invariance``, ``escape``, ``convergence``,
``gradients``) together cover every stated invariant of the package; the
suite-to-invariant mapping is exported as :data:`MANIFEST` so coverage
is auditable from the check report itself.  Each check compares a
measured quantity ``lhs`` against a bound ``rhs`` and passes iff
``lhs <= rhs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import standardize
from .blocked import BlockedVector, BlockPartition
from .config import parse_config
from .demo import narrow_wells_with_radii
from .landscapes import GaussianWells1D, MlpTask, Quadratic, Rosenbrock, fd_gradient, make_blobs
from .optimizers import (
    HostOptimizerConfig,
    LookAheadConfig,
    OptimizerState,
    Schedule,
    SingPipelineConfig,
    lr_at,
    step,
)
from .runner import EpochBatcher, run_experiment, run_setup
from .standardize import StandardizeConfig
from .theory import (
    ConvergenceRecipe,
    convergence_audit,
    escape_thresholds,
    estimate_smoothness,
    interior_grid_1d,
    phi_pseudo_norm,
    single_step_escape_check,
    structured_phi_norm,
)

__all__ = ["CheckRecord", "SUITES", "MANIFEST", "run_suite", "random_blocked"]


@dataclass
class CheckRecord:
    check: str
    lhs: float
    rhs: float
    passed: bool
    params: dict = field(default_factory=dict)

    def as_json_dict(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "params": self.params,
        }


def _record(check: str, lhs: float, rhs: float, **params) -> CheckRecord:
    return CheckRecord(check=check, lhs=float(lhs), rhs=float(rhs), passed=bool(lhs <= rhs), params=params)


# -- random blocked vectors with mixed ranks ---------------------------------

def random_blocked(rng: np.random.Generator, max_blocks: int = 16) -> BlockedVector:
    """Random partition (D in 1..max_blocks, mixed ranks) with normal entries.

    Rank >= 2 blocks always have at least two elements per first-axis
    slice so centralization cannot annihilate a block.
    """
    d = int(rng.integers(1, max_blocks + 1))
    blocks = []
    for k in range(d):
        rank = int(rng.integers(1, 4))
        if rank == 1:
            shape = (int(rng.integers(1, 8)),)
        elif rank == 2:
            shape = (int(rng.integers(1, 5)), int(rng.integers(2, 6)))
        else:
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        blocks.append((f"t{k}", shape))
    part = BlockPartition.of(blocks)
    return BlockedVector(rng.standard_normal(part.p), part)


_EXACT = StandardizeConfig(centralize_enabled=True, normalize_enabled=True, epsilon=0.0)
_NORM_ONLY = StandardizeConfig(centralize_enabled=False, normalize_enabled=True, epsilon=0.0)


# -- lemmas -------------------------------------------------------------------

def check_lemmas(seed: int = 0, count: int = 300) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    worst_sqrt_d = 0.0
    worst_sqrt_d_gc = 0.0
    worst_inner = 0.0
    worst_inner_gc = 0.0
    worst_l2_excess = 0.0
    worst_phi_excess = 0.0
    worst_additivity = 0.0
    worst_pythagoras = 0.0
    roundtrip_fail = 0
    for _ in range(count):
        g = random_blocked(rng)
        d = g.partition.D

        out = standardize.sing_transform(g, _NORM_ONLY)
        worst_sqrt_d = max(worst_sqrt_d, abs(out.l2_norm() - math.sqrt(d)) / math.sqrt(d))
        worst_inner = max(
            worst_inner, abs(g.dot(out) - g.structured_norm()) / g.structured_norm()
        )

        out_gc = standardize.sing_transform(g, _EXACT)
        worst_sqrt_d_gc = max(worst_sqrt_d_gc, abs(out_gc.l2_norm() - math.sqrt(d)) / math.sqrt(d))
        n_phi = structured_phi_norm(g)
        if n_phi > 0:
            worst_inner_gc = max(worst_inner_gc, abs(g.dot(out_gc) - n_phi) / n_phi)

        n_g = g.structured_norm()
        worst_l2_excess = max(worst_l2_excess, (g.l2_norm() - n_g) / max(n_g, 1e-300))
        worst_phi_excess = max(
            worst_phi_excess, (phi_pseudo_norm(g) - g.l2_norm()) / max(g.l2_norm(), 1e-300)
        )

        block_sum = sum(g.block_l2_norm(k) for k in range(d))
        worst_additivity = max(worst_additivity, abs(g.structured_norm() - block_sum) / max(block_sum, 1e-300))

        cent = standardize.centralize(g)
        resid = BlockedVector(g.values - cent.values, g.partition)
        pyth = abs(phi_pseudo_norm(g) ** 2 + resid.l2_norm() ** 2 - g.l2_norm() ** 2)
        worst_pythagoras = max(worst_pythagoras, pyth / g.l2_norm() ** 2)

        k = int(rng.integers(0, d))
        before = g.block(k).copy()
        g.set_block(k, before)
        if not np.array_equal(g.block(k), before):
            roundtrip_fail += 1

    return [
        _record("lemmas.sqrt_d_identity", worst_sqrt_d, 1e-10, count=count),
        _record("lemmas.sqrt_d_identity_centralized", worst_sqrt_d_gc, 1e-10, count=count),
        _record("lemmas.inner_product_structured_norm", worst_inner, 1e-10, count=count),
        _record("lemmas.inner_product_phi_norm", worst_inner_gc, 1e-9, count=count),
        _record("lemmas.l2_below_structured_norm", worst_l2_excess, 1e-12, count=count),
        _record("lemmas.phi_below_l2", worst_phi_excess, 1e-12, count=count),
        _record("lemmas.structured_norm_additivity", worst_additivity, 1e-12, count=count),
        _record("lemmas.phi_pythagoras", worst_pythagoras, 1e-10, count=count),
        _record("lemmas.block_roundtrip_bit_identical", roundtrip_fail, 0, count=count),
    ]


# -- invariance ---------------------------------------------------------------

def _phi_projector_records(seed: int, count: int) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    worst_linear = 0.0
    worst_idem = 0.0
    worst_adjoint = 0.0
    for _ in range(count):
        x = random_blocked(rng)
        y = BlockedVector(rng.standard_normal(x.partition.p), x.partition)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        phi_x = standardize.centralize(x)
        phi_y = standardize.centralize(y)
        combo = standardize.centralize(BlockedVector(a * x.values + b * y.values, x.partition))
        lin = np.linalg.norm(combo.values - a * phi_x.values - b * phi_y.values)
        scale = max(1e-300, abs(a) * x.l2_norm() + abs(b) * y.l2_norm())
        worst_linear = max(worst_linear, lin / scale)
        idem = np.linalg.norm(standardize.centralize(phi_x).values - phi_x.values)
        worst_idem = max(worst_idem, idem / max(x.l2_norm(), 1e-300))
        adj = abs(phi_x.dot(y) - x.dot(phi_y))
        worst_adjoint = max(worst_adjoint, adj / max(x.l2_norm() * y.l2_norm(), 1e-300))
    return [
        _record("invariance.phi_linear", worst_linear, 1e-12, count=count),
        _record("invariance.phi_idempotent", worst_idem, 1e-12, count=count),
        _record("invariance.phi_self_adjoint", worst_adjoint, 1e-12, count=count),
    ]


def _rescale_records(seed: int, count: int) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    exact_mismatches = 0
    worst_general = 0.0
    worst_eps = 0.0
    eps_cfg = StandardizeConfig(centralize_enabled=True, normalize_enabled=True, epsilon=1e-8)
    for _ in range(count):
        g = random_blocked(rng)
        part = g.partition
        # O(1) block norms: the epsilon-branch error grows like eps/||g_k||,
        # so the 1e-6 tolerance is a claim about practical gradient scales
        for k in range(part.D):
            norm = np.linalg.norm(g.block_flat(k))
            if norm > 0:
                g.block_flat(k)[:] *= float(rng.uniform(0.5, 2.0)) / norm
        base = standardize.sing_transform(g, _EXACT)

        # power-of-two per-block factors: IEEE scaling is exact, outputs bit-equal
        scaled = g.copy()
        for k in range(part.D):
            scaled.block_flat(k)[:] *= 2.0 ** int(rng.integers(-6, 7))
        out = standardize.sing_transform(scaled, _EXACT)
        if not np.array_equal(out.values, base.values):
            exact_mismatches += 1

        # arbitrary positive factors: equal up to rounding
        scaled = g.copy()
        for k in range(part.D):
            scaled.block_flat(k)[:] *= float(rng.uniform(0.1, 10.0))
        out = standardize.sing_transform(scaled, _EXACT)
        worst_general = max(
            worst_general, np.linalg.norm(out.values - base.values) / base.l2_norm()
        )

        out_eps = standardize.sing_transform(scaled, eps_cfg)
        base_eps = standardize.sing_transform(g, eps_cfg)
        worst_eps = max(
            worst_eps, np.linalg.norm(out_eps.values - base_eps.values) / base_eps.l2_norm()
        )
    return [
        _record("invariance.rescale_power_of_two_exact", exact_mismatches, 0, count=count),
        _record("invariance.rescale_general", worst_general, 1e-12, count=count),
        _record("invariance.rescale_with_epsilon", worst_eps, 1e-6, count=count),
    ]


def _small_mlp(seed: int = 0, loss_scale: float = 1.0, with_bias: bool = True, n: int = 240) -> MlpTask:
    dataset = make_blobs(seed=seed, n=n, classes=3, dim=2, spread=0.3)
    return MlpTask(dataset, hidden=8, init_seed=seed, loss_scale=loss_scale, with_bias=with_bias)


def _iterate_params(
    task: MlpTask,
    pipeline: SingPipelineConfig,
    schedule: Schedule,
    steps: int,
    batch_size: int = 32,
    seed: int = 0,
) -> list[np.ndarray]:
    x = task.initial_params()
    state = OptimizerState(x)
    batcher = EpochBatcher(task.dataset.n, batch_size, seed)
    out = []
    for _ in range(steps):
        _, g = task.minibatch(x, batcher.next_indices())
        x = step(x, g, state, pipeline, schedule)
        out.append(x.values.copy())
    return out


def _reduction_identity_record(seed: int = 0, steps: int = 50) -> CheckRecord:
    task = _small_mlp(seed)
    schedule = Schedule(kind="cosine", base_lr=0.05, warmup_steps=0, total_steps=steps)
    pipeline = SingPipelineConfig(
        standardize=_EXACT,
        host=HostOptimizerConfig(kind="sgd", momentum=0.0),
        lookahead=LookAheadConfig(enabled=False),
        weight_decay=0.0,
    )
    via_step = _iterate_params(task, pipeline, schedule, steps, seed=seed)

    # direct coding of p <- p - lr * phi(g)/Gamma(phi(g))
    x = task.initial_params()
    batcher = EpochBatcher(task.dataset.n, 32, seed)
    mismatches = 0
    for t in range(steps):
        _, g = task.minibatch(x, batcher.next_indices())
        vals = g.values.copy()
        part = g.partition
        for k in range(part.D):
            sl = part.slice_of(k)
            if part.rank(k) > 1:
                block = vals[sl].reshape(part.shape(k))
                block -= block.mean(axis=tuple(range(1, block.ndim)), keepdims=True)
            vals[sl] /= np.linalg.norm(vals[sl])
        x = BlockedVector(x.values - lr_at(schedule, t) * vals, part)
        if not np.array_equal(x.values, via_step[t]):
            mismatches += 1
    return _record("invariance.reduction_identity_bitwise", mismatches, 0, steps=steps)


def _scale_invariance_record(steps: int = 150, tol: float = 1e-9) -> CheckRecord:
    worst = 0.0
    for kind in ("sgd", "adamw"):
        pipeline = SingPipelineConfig(
            standardize=_EXACT,
            host=HostOptimizerConfig(kind=kind),
            lookahead=LookAheadConfig(enabled=False),
            weight_decay=0.0,
        )
        schedule = Schedule(kind="cosine", base_lr=0.05, warmup_steps=0, total_steps=steps)
        ref = _iterate_params(_small_mlp(0, 1.0), pipeline, schedule, steps)
        for alpha in (1e-3, 1e3):
            run = _iterate_params(_small_mlp(0, alpha), pipeline, schedule, steps)
            for a, b in zip(ref, run):
                worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(a)))
    return _record("invariance.objective_rescale_runs", worst, tol, steps=steps, hosts="sgd,adamw")


def _mean_preservation_records(steps: int = 200) -> list[CheckRecord]:
    task = _small_mlp(0, with_bias=False)
    schedule = Schedule(kind="cosine", base_lr=0.05, warmup_steps=0, total_steps=steps)
    pipeline = SingPipelineConfig(
        standardize=_EXACT,
        host=HostOptimizerConfig(kind="sgd", momentum=0.0),
        lookahead=LookAheadConfig(enabled=False),
        weight_decay=0.0,
    )
    x0 = task.initial_params()
    mean0 = x0.global_mean()
    prev = x0.values
    worst_drift = 0.0
    worst_slice = 0.0
    for values in _iterate_params(task, pipeline, schedule, steps):
        for block in BlockedVector(values - prev, task.partition).blocks():
            if block.ndim > 1:
                slice_sums = block.sum(axis=tuple(range(1, block.ndim)))
                worst_slice = max(worst_slice, float(np.abs(slice_sums).max()))
        worst_drift = max(worst_drift, abs(float(values.mean()) - mean0))
        prev = values
    return [
        _record("invariance.global_mean_preserved", worst_drift, 1e-10, steps=steps),
        _record("invariance.per_slice_update_sums", worst_slice, 1e-12, steps=steps),
    ]


def _determinism_records() -> list[CheckRecord]:
    records = []
    wells_cfg = "\n".join(
        [
            "task.kind = wells1d",
            "optimizer.kind = sgd",
            "sing.epsilon = 0.0",
            "schedule.base_lr = 0.5",
            "schedule.total_steps = 50",
        ]
    )
    mlp_cfg = "\n".join(
        [
            "task.kind = mlp",
            "task.n = 120",
            "task.hidden = 8",
            "task.batch_size = 16",
            "schedule.base_lr = 0.05",
            "schedule.total_steps = 30",
        ]
    )
    for name, cfg in (("wells1d", wells_cfg), ("mlp", mlp_cfg)):
        a = run_setup(parse_config(cfg)).trace.dumps()
        b = run_setup(parse_config(cfg)).trace.dumps()
        records.append(_record(f"invariance.trace_reproducibility_{name}", int(a != b), 0))
    return records


def check_invariance(seed: int = 0) -> list[CheckRecord]:
    records = _phi_projector_records(seed, count=200)
    records.extend(_rescale_records(seed, count=200))
    records.append(_reduction_identity_record(seed))
    records.append(_scale_invariance_record())
    records.extend(_mean_preservation_records())
    records.extend(_determinism_records())
    return records


# -- escape -------------------------------------------------------------------

def check_escape(seed: int = 0) -> list[CheckRecord]:
    records = []
    worst = 0.0
    for d in range(1, 33):
        th = escape_thresholds(r=0.7, grad_norm=1.0, D=d)
        worst = max(worst, th.eta_sing - th.eta_ngd)
    records.append(_record("escape.threshold_ordering", worst, 0.0, d_range="1..32"))

    landscape = GaussianWells1D.default()
    narrow, radii, _ = narrow_wells_with_radii(landscape)
    for m, r_hat in zip(narrow, radii):
        x_star = landscape.as_point(m)
        eta = 1.05 * escape_thresholds(r_hat, 1.0, 1).eta_sing
        starts = interior_grid_1d(m, r_hat, 1000)
        escaped, usable = single_step_escape_check(landscape, x_star, r_hat, eta, "sing", starts)
        fails = int((~escaped[usable]).sum())
        records.append(
            _record(f"escape.sing_single_step_{m:.2f}", fails, 0, r_hat=r_hat, eta=eta, grid=1000)
        )

        slopes = np.abs(landscape.slope(starts))
        candidates = np.where(slopes >= 1e-12, slopes, np.inf)
        weakest = starts[int(np.argmin(candidates))]
        gd_escaped, gd_usable = single_step_escape_check(
            landscape, x_star, r_hat, eta, "gd", np.array([weakest])
        )
        stayed = int(gd_usable[0] and not gd_escaped[0])
        records.append(
            _record(f"escape.gd_trapped_{m:.2f}", 1 - stayed, 0, start=float(weakest), eta=eta)
        )

        zero_escaped, zero_usable = single_step_escape_check(
            landscape, x_star, r_hat, 0.0, "sing", starts[:50]
        )
        records.append(
            _record(f"escape.zero_lr_never_escapes_{m:.2f}", int(zero_escaped[zero_usable].sum()), 0)
        )
    return records


# -- convergence --------------------------------------------------------------

def _quadratic_audit_records(d: int, mode: str) -> list[CheckRecord]:
    shape = (4,) if d == 1 else (2, 2)
    blocks = [(f"b{k}", shape) for k in range(d)]
    part = BlockPartition.of(blocks)
    landscape = Quadratic(part, smoothness=2.0)
    recipe = ConvergenceRecipe(epsilon=0.05, L=2.0, F0=1.0, D=d)

    gen = np.random.default_rng(1234 + d)
    raw = gen.standard_normal(part.p)
    if mode == "phi" and d > 1:
        # start inside the centralized subspace so the run is not trivially offset
        v = BlockedVector(raw, part)
        raw = standardize.centralize(v).values
    raw = raw / np.linalg.norm(raw) * math.sqrt(2.0 * recipe.F0 / landscape.smoothness)
    x0 = BlockedVector(raw, part)

    # the denominator guard keeps the run defined if an iterate lands exactly
    # on the minimum (a zero gradient then yields a zero update)
    pipeline = SingPipelineConfig(
        standardize=StandardizeConfig(
            centralize_enabled=(mode == "phi"), normalize_enabled=True, epsilon=1e-8
        ),
        host=HostOptimizerConfig(kind="sgd", momentum=0.0),
        lookahead=LookAheadConfig(enabled=False),
        weight_decay=0.0,
    )
    schedule = Schedule(kind="constant", base_lr=recipe.eta, warmup_steps=0, total_steps=recipe.T)
    setup = replace(parse_config("task.kind = quadratic"), pipeline=pipeline, schedule=schedule)
    result = run_experiment(landscape, x0, setup)
    audit = convergence_audit(result.trace, recipe, mode=mode)
    return [
        _record(
            f"convergence.quadratic_D{d}_{mode}",
            audit.lhs,
            min(audit.rhs, audit.rhs_recipe),
            eta=recipe.eta,
            T=recipe.T,
            rhs_full=audit.rhs,
            rhs_recipe=audit.rhs_recipe,
        )
    ]


def _mlp_audit_records(seed: int = 0, epsilon: float = 0.25) -> list[CheckRecord]:
    task = _small_mlp(seed, n=300)
    x0 = task.initial_params()
    f0, _ = task.evaluate(x0)
    sigma2 = task.gradient_noise(x0)
    smooth = estimate_smoothness(task, x0, n_pairs=120, radius=0.5, seed=seed)
    recipe = ConvergenceRecipe(
        epsilon=epsilon, L=smooth, F0=f0, D=task.partition.D, sigma=math.sqrt(sigma2)
    )
    records = []
    for mode in ("l2", "phi"):
        pipeline = SingPipelineConfig(
            standardize=StandardizeConfig(
                centralize_enabled=(mode == "phi"), normalize_enabled=True, epsilon=1e-8
            ),
            host=HostOptimizerConfig(kind="sgd", momentum=0.0),
            lookahead=LookAheadConfig(enabled=False),
            weight_decay=0.0,
        )
        schedule = Schedule(kind="constant", base_lr=recipe.eta, warmup_steps=0, total_steps=recipe.T)
        setup = replace(parse_config("task.kind = mlp"), pipeline=pipeline, schedule=schedule, seed=seed)
        batcher = EpochBatcher(task.dataset.n, recipe.batch, seed)
        result = run_experiment(task, x0, setup, batcher)
        audit = convergence_audit(result.trace, recipe, mode=mode)
        records.append(
            _record(
                f"convergence.mlp_{mode}",
                audit.lhs,
                min(audit.rhs, audit.rhs_recipe),
                eta=recipe.eta,
                T=recipe.T,
                batch=recipe.batch,
                sigma2=sigma2,
                L_hat=smooth,
                rhs_full=audit.rhs,
                rhs_recipe=audit.rhs_recipe,
            )
        )
    return records


def check_convergence(seed: int = 0) -> list[CheckRecord]:
    records = []
    for d in (1, 4):
        for mode in ("l2", "phi"):
            records.extend(_quadratic_audit_records(d, mode))
    records.extend(_mlp_audit_records(seed))
    return records


# -- gradients ----------------------------------------------------------------

def _fd_records(seed: int = 0, points: int = 100) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    cases = [
        ("quadratic", Quadratic(BlockPartition.of([("a", (3,)), ("b", (2, 2))])), 1e-6, 1.0),
        ("rosenbrock", Rosenbrock(), 1e-6, 1.5),
        ("wells1d", GaussianWells1D.default(), 1e-6, 5.0),
        ("mlp", _small_mlp(seed, n=120), 1e-5, 1.0),
    ]
    records = []
    for name, landscape, tol, scale in cases:
        worst = 0.0
        if name == "mlp":
            x0 = landscape.initial_params()
        else:
            x0 = None
        accepted = 0
        while accepted < points:
            raw = rng.uniform(-scale, scale, landscape.partition.p)
            if x0 is not None:
                raw = x0.values + 0.5 * raw
            x = BlockedVector(raw, landscape.partition)
            _, analytic = landscape.evaluate(x)
            # relative error needs a meaningful scale: resample near-critical points
            if np.linalg.norm(analytic.values) < 1e-2:
                continue
            accepted += 1
            approx = fd_gradient(landscape, x, h=1e-5)
            err = np.linalg.norm(analytic.values - approx.values)
            worst = max(worst, err / np.linalg.norm(analytic.values))
        records.append(_record(f"gradients.fd_{name}", worst, tol, points=points, h=1e-5))
    return records


def _minibatch_records(seed: int = 0) -> list[CheckRecord]:
    task = _small_mlp(seed, n=150)
    x = task.initial_params()
    full_loss, full_grad = task.evaluate(x)

    batch_loss, batch_grad = task.minibatch(x, np.arange(task.dataset.n))
    full_equal = int(
        not (batch_loss == full_loss and np.array_equal(batch_grad.values, full_grad.values))
    )

    acc = np.zeros_like(full_grad.values)
    for i in range(task.dataset.n):
        _, gi = task.minibatch(x, np.array([i]))
        acc += gi.values
    acc /= task.dataset.n
    rel = float(np.linalg.norm(acc - full_grad.values) / np.linalg.norm(full_grad.values))
    return [
        _record("gradients.minibatch_full_equals_eval", full_equal, 0),
        _record("gradients.minibatch_unbiased", rel, 1e-12, n=task.dataset.n),
    ]


def _blobs_records() -> list[CheckRecord]:
    a = make_blobs(seed=7, n=400, classes=3, dim=2, spread=0.3)
    b = make_blobs(seed=7, n=400, classes=3, dim=2, spread=0.3)
    identical = a.to_csv() == b.to_csv() and a.xs.tobytes() == b.xs.tobytes()
    counts = np.bincount(a.labels, minlength=3)
    balanced = counts.max() - counts.min() <= 1
    return [
        _record("gradients.blobs_deterministic", int(not identical), 0, seed=7),
        _record("gradients.blobs_balanced", int(not balanced), 0, counts=[int(c) for c in counts]),
    ]


def check_gradients(seed: int = 0) -> list[CheckRecord]:
    return _fd_records(seed) + _minibatch_records(seed) + _blobs_records()


# -- suite table --------------------------------------------------------------

SUITES = {
    "lemmas": check_lemmas,
    "invariance": check_invariance,
    "escape": check_escape,
    "convergence": check_convergence,
    "gradients": check_gradients,
}

MANIFEST: dict[str, list[str]] = {
    "lemmas": [
        "blocked_vector: structured norm equals the sum of block norms",
        "blocked_vector: ||v||_2 <= N(v) on random vectors",
        "blocked_vector: block read/write round-trip is bit-identical",
        "standardize: ||standardized g||_2 = sqrt(D) at epsilon 0",
        "standardize: <g, standardized g> matches the structured (pseudo-)norms",
        "standardize: pseudo-norm ordering ||g||_phi <= ||g||_2 <= N(g)",
        "theory: phi Pythagoras identity to 1e-10 relative",
    ],
    "invariance": [
        "standardize: centralization is linear, idempotent, self-adjoint (1e-12)",
        "standardize: per-block positive rescaling cancels (exact at epsilon 0)",
        "optimizers: pipeline reduces bit-for-bit to the direct iterates",
        "optimizers: objective rescaling leaves iterate sequences within 1e-9/step",
        "optimizers: global mean preserved on all-rank-2 models; slice sums vanish",
        "optimizers + harness: identical config implies byte-identical traces",
    ],
    "escape": [
        "theory: eta_sing = eta_ngd / sqrt(D) <= eta_ngd",
        "theory: one standardized step at 1.05x threshold exits every narrow-well ball",
        "theory: plain GD at the weakest-gradient start stays trapped",
    ],
    "convergence": [
        "theory: time-averaged gradient norms obey the bound on quadratics (D in {1,4})",
        "theory: the recipe-sized stochastic MLP run obeys the bound in both norms",
    ],
    "gradients": [
        "landscapes: analytic gradients match central differences at 100 points",
        "landscapes: singleton-batch average equals the full-batch gradient",
        "landscapes: blobs datasets are byte-identical for equal seeds",
    ],
}


def run_suite(name: str) -> list[CheckRecord]:
    """Run one named suite (or ``all``); a crashed suite counts as a failure."""
    names = list(SUITES) if name == "all" else [name]
    if any(n not in SUITES for n in names):
        raise KeyError(name)
    records = []
    for n in names:
        try:
            records.extend(SUITES[n]())
        except Exception as exc:  # deliberate: broken internals must fail, not abort
            records.append(
                CheckRecord(
                    check=f"{n}.suite_crashed",
                    lhs=1.0,
                    rhs=0.0,
                    passed=False,
                    params={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return records
