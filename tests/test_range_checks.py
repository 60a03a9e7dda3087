"""NaN fails every float range check of a constructor, as a negative value does.

A check written ``x <= 0`` is False for NaN and lets it through; each check
is written as the condition the value must meet, so NaN is refused with the
same error class and message a negative value gets.
"""

import math

import numpy as np
import pytest

from singopt.blocked import BlockPartition, BlockedVector
from singopt.landscapes import GaussianWells1D, MlpTask, Quadratic, Well, fd_gradient, make_blobs
from singopt.optimizers import HostOptimizerConfig, Schedule, SingPipelineConfig
from singopt.standardize import StandardizeConfig
from singopt.theory import ConvergenceRecipe, EscapeThresholds

LINE = BlockPartition.of([("x", (2,))])

CASES = {
    "Well.depth": lambda v: Well(v, 0.0, 1.0),
    "Well.width": lambda v: Well(1.0, 0.0, v),
    "GaussianWells1D.curvature": lambda v: GaussianWells1D(v, [Well(1.0, 0.0, 1.0)]),
    "make_blobs.spread": lambda v: make_blobs(seed=0, n=4, classes=2, dim=2, spread=v),
    "MlpTask.loss_scale": lambda v: MlpTask(make_blobs(seed=0, n=4, classes=2, dim=2, spread=0.3), loss_scale=v),
    "Quadratic.smoothness": lambda v: Quadratic(LINE, smoothness=v),
    "HostOptimizerConfig.eps_opt": lambda v: HostOptimizerConfig(eps_opt=v),
    "HostOptimizerConfig.softplus_beta": lambda v: HostOptimizerConfig(softplus_beta=v),
    "Schedule.base_lr": lambda v: Schedule(base_lr=v),
    "SingPipelineConfig.weight_decay": lambda v: SingPipelineConfig(weight_decay=v),
    "StandardizeConfig.epsilon": lambda v: StandardizeConfig(epsilon=v),
    "EscapeThresholds.r": lambda v: EscapeThresholds(r=v, grad_norm=1.0, D=1),
    "EscapeThresholds.grad_norm": lambda v: EscapeThresholds(r=1.0, grad_norm=v, D=1),
    "ConvergenceRecipe.epsilon": lambda v: ConvergenceRecipe(epsilon=v, L=1.0, F0=1.0, D=1),
    "ConvergenceRecipe.L": lambda v: ConvergenceRecipe(epsilon=0.1, L=v, F0=1.0, D=1),
    "ConvergenceRecipe.F0": lambda v: ConvergenceRecipe(epsilon=0.1, L=1.0, F0=v, D=1),
    "ConvergenceRecipe.sigma": lambda v: ConvergenceRecipe(epsilon=0.1, L=1.0, F0=1.0, D=1, sigma=v),
    "fd_gradient.h": lambda v: fd_gradient(Quadratic(LINE), BlockedVector(np.ones(2), LINE), h=v),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_is_refused_like_a_negative_value(build):
    with pytest.raises(ValueError) as negative:
        build(-1.0)
    with pytest.raises(ValueError) as nan:
        build(math.nan)
    assert type(nan.value) is type(negative.value)
    assert str(nan.value) == str(negative.value).replace("-1.0", "nan")
