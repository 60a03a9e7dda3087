"""Experiment loop: build a task from a setup, run it, record a trace.

Per step the trace records the schedule learning rate, the loss the
update was computed from (minibatch loss for stochastic tasks), the
oracle full-gradient L2 and centralized pseudo-norm, the realized
parameter-update norm, the global parameter mean and per-block parameter
norms.  Oracle norms (rather than minibatch ones) are logged so
convergence audits can be evaluated directly from the trace.

Divergence (non-finite loss, gradient or parameters, a logged norm or
mean past the float range, or a zero-norm gradient block that cannot be
normalized at ``epsilon = 0``) stops the run; the partial trace carries
a ``diverged`` footer and the result names the cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, BlockPartition, norm
from .config import RunSetup
from .landscapes import (
    EvaluationError,
    GaussianWells1D,
    Landscape,
    MlpTask,
    Quadratic,
    Rosenbrock,
    make_blobs,
)
from .optimizers import ConfigError, OptimizerState, lr_at, step
from .rng import Xoshiro256, derive_seed
from .standardize import ZeroGradientBlockError, centralize
from .trace import RunTrace

__all__ = ["RunResult", "build_task", "run_experiment", "run_setup"]

# largest quadratic task.blocks x prod(task.block_shape); for the MLP, the
# largest parameter count and the largest n x width array a pass allocates
MAX_COORDINATES = 2**24


@dataclass
class RunResult:
    trace: RunTrace
    final_params: BlockedVector
    landscape: Landscape
    cause: str | None = None  # why the run stopped early; None if it finished

    @property
    def diverged(self) -> bool:
        return self.cause is not None


class EpochBatcher:
    """Without-replacement minibatch order, reshuffled each epoch."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.gen = Xoshiro256(derive_seed(seed, 0xBA7C4))
        self._order = self.gen.permutation(self.n)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos >= self.n:
            self._order = self.gen.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


def _parse_start(start: tuple[float, ...], p: int) -> np.ndarray:
    if len(start) == 1 and p > 1:
        return np.full(p, start[0])
    if len(start) != p:
        raise ConfigError(f"task.start has {len(start)} values, task needs {p}")
    return np.array(start)


def _check_mlp_size(task: dict) -> None:
    """Refuse, before allocating, an MLP whose parameters or per-pass arrays pass the bound."""
    dim, hidden, classes = task["input_dim"], task["hidden"], task["classes"]
    widest = max(("input_dim", "hidden", "classes"), key=task.get)
    p = hidden * (dim + 1) + classes * (hidden + 1)
    if p > MAX_COORDINATES:
        raise ConfigError(
            f"task.{widest}: input_dim {dim}, hidden {hidden} and classes {classes} make {p} parameters,"
            f" more than {MAX_COORDINATES}"
        )
    values = task["n"] * task[widest]
    if values > MAX_COORDINATES:
        raise ConfigError(
            f"task.n: {task['n']} points times task.{widest} {task[widest]} make {values} values per pass,"
            f" more than {MAX_COORDINATES}"
        )


def build_task(setup: RunSetup) -> tuple[Landscape, BlockedVector, EpochBatcher | None]:
    """Instantiate the configured landscape, its start point and batch source.

    The landscapes check their own arguments; a value they reject is
    reported as a :class:`ConfigError`.
    """
    task = setup.task
    kind = task["kind"]
    try:
        if kind == "wells1d":
            landscape = GaussianWells1D.default()
            return landscape, BlockedVector(_parse_start(task["start"], 1), landscape.partition), None
        if kind == "rosenbrock":
            landscape = Rosenbrock()
            x0 = BlockedVector(_parse_start(task["start"], 2), landscape.partition)
            return landscape, x0, None
        if kind == "quadratic":
            p = task["blocks"] * math.prod(task["block_shape"])
            if p > MAX_COORDINATES:
                raise ConfigError(
                    f"task.blocks: {task['blocks']} blocks of {task['block_shape']} make {p} coordinates,"
                    f" more than {MAX_COORDINATES}"
                )
            partition = BlockPartition.of([(f"b{k}", task["block_shape"]) for k in range(task["blocks"])])
            landscape = Quadratic(partition, smoothness=task["smoothness"])
            gen = Xoshiro256(derive_seed(setup.seed, 0x900D))
            raw = gen.normals(partition.p)
            # scale so F(x0) = f0 (up to rounding); keeps the recipe's F0 an upper bound
            raw *= np.sqrt(2.0 * task["f0"] / landscape.smoothness) / norm(raw)
            return landscape, BlockedVector(raw, partition), None
        if kind == "mlp":
            _check_mlp_size(task)
            dataset = make_blobs(
                seed=setup.seed,
                n=task["n"],
                classes=task["classes"],
                dim=task["input_dim"],
                spread=task["spread"],
            )
            mlp = MlpTask(dataset, hidden=task["hidden"], init_seed=setup.seed)
            batcher = EpochBatcher(dataset.n, task["batch_size"], setup.seed)
            return mlp, mlp.initial_params(), batcher
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown task.kind {kind!r}")


def run_experiment(
    landscape: Landscape,
    x0: BlockedVector,
    setup: RunSetup,
    batcher: EpochBatcher | None = None,
) -> RunResult:
    if unknown := sorted(setup.pipeline.weight_decay_skip.difference(landscape.partition.names)):
        raise ConfigError(f"weight_decay_skip: the task has no block {', '.join(map(repr, unknown))}")
    params = x0.copy()
    state = OptimizerState(params)
    trace = RunTrace(partition=params.partition, seed=setup.seed, config=setup.raw)
    schedule = setup.schedule

    def stop(t: int, cause: str) -> RunResult:
        trace.diverged_at = t
        return RunResult(trace, params, landscape, cause)

    for t in range(schedule.total_steps):
        lr = lr_at(schedule, t)
        # overflow and nan stop the run below with a named cause, not with a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if batcher is not None:
                    loss, grad = landscape.minibatch(params, batcher.next_indices())
                    _, oracle_grad = landscape.evaluate(params)
                else:
                    loss, grad = landscape.evaluate(params)
                    oracle_grad = grad
                if not math.isfinite(loss) or not np.isfinite(grad.values).all():
                    return stop(t, "non-finite loss or gradient")
                new_params = step(params, grad, state, setup.pipeline, schedule)
            except (EvaluationError, ZeroGradientBlockError) as exc:
                return stop(t, str(exc))
            if not np.isfinite(new_params.values).all():
                return stop(t, "non-finite parameters")
            # finite vectors can still have norms past the float range
            logged = {
                "grad_l2": oracle_grad.l2_norm(),
                "grad_phi": norm(centralize(oracle_grad).values),
                "update_l2": norm(new_params.values - params.values),
                "param_mean": new_params.global_mean(),
            }
            block_norms = new_params.block_norms()
        for name, value in logged.items():
            if not math.isfinite(value):
                return stop(t, f"non-finite {name} ({value})")
        if not np.isfinite(block_norms).all():
            bad = int(np.argmin(np.isfinite(block_norms)))
            return stop(t, f"non-finite norm of block {params.partition.name(bad)!r} ({block_norms[bad]})")
        trace.append(step=t, lr=lr, loss=loss, **logged, block_norms=block_norms.tolist())
        params = new_params

    return RunResult(trace, params, landscape)


def run_setup(setup: RunSetup) -> RunResult:
    landscape, x0, batcher = build_task(setup)
    return run_experiment(landscape, x0, setup, batcher)
