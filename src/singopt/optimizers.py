"""Host optimizers and the full standardized update pipeline.

A single call to :func:`step` performs, in order: gradient
standardization, decoupled weight decay, the host optimizer update
(SGD / AdamW / AdaBelief, with optional softplus calibration of the
adaptive denominator), the parameter update, and an optional LookAhead
synchronization.  With all stabilizers off and an SGD host with zero
momentum this reduces exactly to

    p_next = p - lr * standardized_gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocked import BlockedVector, zeros
from .standardize import StandardizeConfig, sing_transform

__all__ = [
    "ConfigError",
    "HostOptimizerConfig",
    "LookAheadConfig",
    "Schedule",
    "SingPipelineConfig",
    "OptimizerState",
    "softplus",
    "lr_at",
    "apply_weight_decay",
    "host_update",
    "lookahead_step",
    "step",
]

HOST_KINDS = ("sgd", "adamw", "adabelief")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration.

    ``field`` names the fields of the config object at fault, if any, so
    that the config parser can name their keys and lines.
    """

    def __init__(self, message: str, field: tuple[str, ...] = ()):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class HostOptimizerConfig:
    """Hyper-parameters of the host optimizer consuming standardized gradients.

    ``momentum`` only applies to the SGD host.  ``softplus_enabled``
    replaces the adaptive denominator ``sqrt(v_hat) + eps_opt`` with
    ``softplus_beta``-calibrated ``(1/beta) * log(1 + exp(beta * sqrt(v_hat)))``,
    which is already bounded away from zero so ``eps_opt`` is dropped in
    that branch.
    """

    kind: str = "adamw"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    softplus_enabled: bool = False
    softplus_beta: float = 50.0

    def __post_init__(self) -> None:
        if self.kind not in HOST_KINDS:
            raise ConfigError(f"unknown host optimizer {self.kind!r}, expected one of {HOST_KINDS}", ("kind",))
        if not 0.0 <= self.beta1 < 1.0:
            raise ConfigError(f"beta1 must be in [0, 1), got {self.beta1}", ("beta1",))
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"beta2 must be in [0, 1), got {self.beta2}", ("beta2",))
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}", ("momentum",))
        if not self.eps_opt > 0.0:
            raise ConfigError(f"eps_opt must be > 0, got {self.eps_opt}", ("eps_opt",))
        if not self.softplus_beta > 0.0:
            raise ConfigError(f"softplus_beta must be > 0, got {self.softplus_beta}", ("softplus_beta",))


@dataclass(frozen=True)
class LookAheadConfig:
    enabled: bool = False
    k: int = 5
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"lookahead k must be >= 1, got {self.k}", ("k",))
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"lookahead alpha must be in (0, 1], got {self.alpha}", ("alpha",))


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: linear warmup then constant or cosine decay."""

    kind: str = "cosine"
    base_lr: float = 0.05
    warmup_steps: int = 0
    total_steps: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}", ("kind",))
        if not self.base_lr > 0.0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}", ("base_lr",))
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}", ("total_steps",))
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"warmup_steps must satisfy 0 <= warmup < total ({self.warmup_steps} vs {self.total_steps})",
                ("warmup_steps", "total_steps"),
            )


@dataclass(frozen=True)
class SingPipelineConfig:
    """Everything a training step needs besides the schedule."""

    standardize: StandardizeConfig = field(default_factory=StandardizeConfig)
    host: HostOptimizerConfig = field(default_factory=HostOptimizerConfig)
    lookahead: LookAheadConfig = field(default_factory=LookAheadConfig)
    weight_decay: float = 0.0
    weight_decay_skip: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}", ("weight_decay",))
        object.__setattr__(self, "weight_decay_skip", frozenset(self.weight_decay_skip))


class OptimizerState:
    """Per-run mutable state: step counter, moment buffers, slow weights.

    Moment buffers start at zero; the LookAhead slow weights start as a
    copy of the initial parameters.
    """

    __slots__ = ("t", "m", "v", "slow_weights")

    def __init__(self, initial_params: BlockedVector):
        part = initial_params.partition
        self.t = 0
        self.m = zeros(part)
        self.v = zeros(part)
        self.slow_weights = initial_params.copy()


def softplus(x: np.ndarray | float, beta: float) -> np.ndarray | float:
    """(1/beta) * log(1 + exp(beta * x)), computed overflow-free."""
    return np.logaddexp(0.0, beta * np.asarray(x, dtype=np.float64)) / beta


def lr_at(schedule: Schedule, t: int) -> float:
    """Learning rate at 0-based step ``t``.

    Warmup ramps linearly to ``base_lr`` over ``warmup_steps`` (step
    ``warmup_steps - 1`` reaches it exactly); afterwards the cosine kind
    decays by ``0.5 * (1 + cos(pi * progress))`` over the remaining span.
    """
    if not 0 <= t < schedule.total_steps:
        raise ValueError(f"step {t} outside [0, {schedule.total_steps})")
    if t < schedule.warmup_steps:
        return schedule.base_lr * (t + 1) / schedule.warmup_steps
    if schedule.kind == "constant":
        return schedule.base_lr
    span = schedule.total_steps - schedule.warmup_steps
    progress = (t - schedule.warmup_steps) / span
    return schedule.base_lr * 0.5 * (1.0 + float(np.cos(np.pi * progress)))


def apply_weight_decay(p: BlockedVector, lr: float, cfg: SingPipelineConfig) -> BlockedVector:
    """Scale non-skipped blocks by (1 - lr * weight_decay), before the host update."""
    if cfg.weight_decay == 0.0:
        return p.copy()
    shrink = lr * cfg.weight_decay
    # parse_config rejects base_lr * weight_decay >= 1; this also covers objects
    # built directly, and a warmup lr that rounds a bit above base_lr
    if shrink >= 1.0:
        raise ConfigError(f"lr * weight_decay = {shrink} >= 1 would flip parameter signs")
    part = p.partition
    # a skipped block's factor is 1.0, and x * 1.0 == x exactly
    factors = [1.0 if name in cfg.weight_decay_skip else 1.0 - shrink for name in part.names]
    return BlockedVector(p.values * np.repeat(factors, part.sizes), part)


def host_update(g: BlockedVector, state: OptimizerState, cfg: HostOptimizerConfig) -> BlockedVector:
    """Advance the moment state one step and return the update direction.

    The caller multiplies the result by the learning rate and subtracts.
    Increments ``state.t``.
    """
    if state.m.partition != g.partition:
        raise ValueError("optimizer state partition does not match gradient")
    state.t += 1
    if cfg.kind == "sgd":
        state.m.values *= cfg.momentum
        state.m.values += g.values
        return state.m.copy()

    m, v = state.m.values, state.v.values
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g.values
    if cfg.kind == "adamw":
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g.values**2
    else:  # adabelief: second moment tracks the deviation from the mean
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g.values - m) ** 2
    m_hat = m / (1.0 - cfg.beta1**state.t)
    v_hat = v / (1.0 - cfg.beta2**state.t)
    if cfg.softplus_enabled:
        denom = softplus(np.sqrt(v_hat), cfg.softplus_beta)
    else:
        denom = np.sqrt(v_hat) + cfg.eps_opt
    return BlockedVector(m_hat / denom, g.partition)


def lookahead_step(fast: BlockedVector, state: OptimizerState, cfg: LookAheadConfig) -> BlockedVector:
    """Every ``k``-th step pull the slow weights toward ``fast`` and reset to them."""
    if not cfg.enabled or state.t % cfg.k != 0:
        return fast
    slow = state.slow_weights
    slow.values += cfg.alpha * (fast.values - slow.values)
    return slow.copy()


def step(
    p: BlockedVector,
    g: BlockedVector,
    state: OptimizerState,
    cfg: SingPipelineConfig,
    schedule: Schedule,
) -> BlockedVector:
    """One full pipeline step; returns the new parameters, mutating ``state``."""
    lr = lr_at(schedule, state.t)
    g_std = sing_transform(g, cfg.standardize)
    decayed = apply_weight_decay(p, lr, cfg)
    update = host_update(g_std, state, cfg.host)
    fast = BlockedVector(decayed.values - lr * update.values, p.partition)
    return lookahead_step(fast, state, cfg.lookahead)
