"""Gradient standardization: per-tensor centralization and normalization.

The transform applied to a raw gradient has two stages, each optional:

1. centralization: for every block of rank > 1, subtract from each
   first-axis slice its mean over the remaining axes (rank-1 blocks pass
   through unchanged);
2. normalization: divide every block by its L2 norm plus ``epsilon``.

With both stages on and ``epsilon = 0`` the output has exactly unit norm
per block, hence total L2 norm ``sqrt(D)``, and any per-block positive
rescaling of the input cancels out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, BlockPartition, row_dots

__all__ = [
    "StandardizeConfig",
    "ZeroGradientBlockError",
    "centralize",
    "gamma",
    "sing_rows",
    "sing_transform",
]


class ZeroGradientBlockError(ArithmeticError):
    """A block to be normalized with epsilon = 0 had zero norm."""

    def __init__(self, block_name: str):
        super().__init__(f"cannot normalize zero-norm gradient block {block_name!r} with epsilon=0")
        self.block_name = block_name


@dataclass(frozen=True)
class StandardizeConfig:
    """Toggles and the division guard for the gradient transform."""

    centralize_enabled: bool = True
    normalize_enabled: bool = True
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @classmethod
    def identity(cls) -> "StandardizeConfig":
        return cls(centralize_enabled=False, normalize_enabled=False, epsilon=0.0)


def centralize(g: BlockedVector) -> BlockedVector:
    """Subtract per-first-axis-slice means from every block of rank > 1.

    The map is linear, idempotent and self-adjoint; rank-1 blocks are
    copied unchanged.
    """
    out = g.copy()
    values = out.values
    # the sum and division of ndarray.mean over the trailing axes, without its fixed cost per call
    for sl, shape, axes, count in g.partition.centralize_views:
        block = values[sl].reshape(shape)
        block -= np.add.reduce(block, axis=axes, keepdims=True) / count
    return out


def gamma(g: BlockedVector) -> np.ndarray:
    """Gamma(g): the L2 norm of every block, in partition order (D numbers)."""
    return g.block_norms()


def sing_transform(g: BlockedVector, cfg: StandardizeConfig) -> BlockedVector:
    """Centralize (optional) then normalize (optional) a gradient.

    Raises :class:`ZeroGradientBlockError`, naming the first such block,
    if normalization is on, ``epsilon`` is zero and some (centralized)
    block has zero norm.  With ``epsilon > 0`` a zero block yields a zero
    update for that block.
    """
    h = centralize(g) if cfg.centralize_enabled else g.copy()
    if not cfg.normalize_enabled:
        return h
    norms = gamma(h)
    if cfg.epsilon == 0.0:
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroGradientBlockError(h.partition.names[zero[0]])
    # norm + 0.0 == norm, so at epsilon = 0 this divides by the bare norms
    h.values /= np.repeat(norms + cfg.epsilon, h.partition.sizes)
    return h


def sing_rows(rows: np.ndarray, partition: BlockPartition) -> tuple[np.ndarray, np.ndarray]:
    """``sing_transform`` at epsilon = 0 of each row of an (n, p) array, bit for bit, and
    a mask of the rows it would not refuse with :class:`ZeroGradientBlockError`.
    """
    h = np.array(rows, dtype=np.float64)
    for sl, shape, axes, count in partition.centralize_views:
        block = h[:, sl].reshape(len(h), *shape)
        block -= np.add.reduce(block, axis=tuple(a + 1 for a in axes), keepdims=True) / count
    norms = np.sqrt(np.stack([row_dots(h[:, sl], h[:, sl]) for sl in partition.slices], axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        h /= np.repeat(norms, partition.sizes, axis=1)
    return h, (norms != 0.0).all(axis=1)
