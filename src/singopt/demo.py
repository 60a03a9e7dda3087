"""Side-by-side escape demonstration on the default three-well landscape.

Runs a standardized-gradient descent and a plain gradient descent from
the same start with a cosine-decayed learning rate.  The standardized
run starts at twice the largest measured narrow-well basin radius, which
is the single-step escape threshold for a one-block problem; the plain
run gets the best learning rate from a small grid.  The expected outcome
is that only the standardized run reaches the wide global minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import parse_config
from .landscapes import GaussianWells1D
from .runner import RunResult, run_experiment
from .theory import estimate_basin_radius

__all__ = ["EscapeDemo", "run_escape_demo", "SGD_LR_GRID", "DEMO_START", "DEMO_STEPS"]

SGD_LR_GRID = (1e-3, 1e-2, 1e-1)
DEMO_START = -6.0
DEMO_STEPS = 400


@dataclass
class EscapeDemo:
    landscape: GaussianWells1D
    narrow_minima: list[float]
    narrow_radii: list[float]
    wide_minimum: float
    eta0: float
    sing: RunResult
    sgd: RunResult
    sgd_lr: float
    sgd_all: dict[float, RunResult]

    @property
    def sing_final_x(self) -> float:
        return float(self.sing.final_params.values[0])

    @property
    def sgd_final_x(self) -> float:
        return float(self.sgd.final_params.values[0])


def _demo_config(base_lr: float, sing_enabled: bool, total_steps: int, start: float) -> str:
    return "\n".join(
        [
            f"task.start = {start!r}",
            "optimizer.kind = sgd",
            f"sing.enabled = {'true' if sing_enabled else 'false'}",
            "sing.epsilon = 0.0",
            f"schedule.base_lr = {base_lr!r}",
            f"schedule.total_steps = {total_steps}",
        ]
    )


def narrow_wells_with_radii(landscape: GaussianWells1D) -> tuple[list[float], list[float], float]:
    """Locate all local minima, split off the global one, measure basin radii."""
    minima = landscape.local_minima()
    values = [float(landscape.value(m)) for m in minima]
    wide = minima[int(np.argmin(values))]
    narrow = [m for m in minima if m != wide]
    radii = [
        estimate_basin_radius(landscape, landscape.as_point(m), r_max=4.0, n_radial=8000)
        for m in narrow
    ]
    return narrow, radii, wide


def run_escape_demo(total_steps: int = DEMO_STEPS, start: float = DEMO_START) -> EscapeDemo:
    landscape = GaussianWells1D.default()
    narrow, radii, wide = narrow_wells_with_radii(landscape)
    eta0 = 2.0 * max(radii)

    sing_setup = parse_config(_demo_config(eta0, True, total_steps, start))
    sing_result = run_experiment(landscape, landscape.as_point(start), sing_setup)

    sgd_all: dict[float, RunResult] = {}
    for lr in SGD_LR_GRID:
        setup = parse_config(_demo_config(lr, False, total_steps, start))
        sgd_all[lr] = run_experiment(landscape, landscape.as_point(start), setup)
    best_lr = min(sgd_all, key=lambda lr: float(sgd_all[lr].trace.loss[-1]))

    return EscapeDemo(
        landscape=landscape,
        narrow_minima=narrow,
        narrow_radii=radii,
        wide_minimum=wide,
        eta0=eta0,
        sing=sing_result,
        sgd=sgd_all[best_lr],
        sgd_lr=best_lr,
        sgd_all=sgd_all,
    )
