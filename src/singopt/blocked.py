"""Flat parameter vectors carrying an explicit per-tensor block structure.

A model's parameters are stored as one contiguous float64 array together
with a :class:`BlockPartition` describing how the array splits into named
tensor blocks (one block per weight or bias array).  All structured norms
used elsewhere in the package are defined on top of this layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BlockPartition", "BlockedVector", "norm", "row_dots", "zeros", "from_blocks"]


def norm(x: np.ndarray) -> float:
    """The L2 norm of a 1-D float64 array: the one norm definition of the package.

    ``np.linalg.norm`` computes exactly this for such an array (one ``dot``,
    then a correctly rounded square root), so every bit is the same, without
    that wrapper's fixed cost per call.
    """
    return math.sqrt(x.dot(x))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of each row of ``a`` with that of ``b``: the BLAS dot of ``norm``, so
    ``np.sqrt(row_dots(x, x))`` is ``norm`` of each row of ``x``, bit for bit.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class BlockPartition:
    """Ordered, contiguous, disjoint cover of ``[0, p)`` by named blocks.

    ``blocks`` is a tuple of ``(name, shape)`` pairs.  Block count ``D``,
    total size ``p`` and flat offsets are derived.
    """

    blocks: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        canon = []
        for entry in self.blocks:
            name, shape = entry
            if not isinstance(name, str) or not name or any(c.isspace() for c in name):
                raise ValueError(f"bad block name {name!r}: must be non-empty, no whitespace")
            shape = tuple(int(d) for d in shape)
            if len(shape) == 0:
                raise ValueError(f"block {name!r} has empty shape")
            if any(d < 1 for d in shape):
                raise ValueError(f"block {name!r} has non-positive dimension {shape}")
            canon.append((name, shape))
        if not canon:
            raise ValueError("partition needs at least one block")
        names = [n for n, _ in canon]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        object.__setattr__(self, "blocks", tuple(canon))

    @classmethod
    def of(cls, blocks: Iterable[tuple[str, Sequence[int]]]) -> "BlockPartition":
        return cls(tuple((name, tuple(shape)) for name, shape in blocks))

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        # math.prod of Python ints cannot overflow, where np.prod wraps in int64
        return tuple(math.prod(shape) for _, shape in self.blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for s in self.sizes:
            offs.append(offs[-1] + s)
        return tuple(offs[:-1])

    @property
    def D(self) -> int:
        return len(self.blocks)

    @cached_property
    def p(self) -> int:
        return sum(self.sizes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def shape(self, k: int) -> tuple[int, ...]:
        self._check_index(k)
        return self.blocks[k][1]

    def name(self, k: int) -> str:
        self._check_index(k)
        return self.blocks[k][0]

    def rank(self, k: int) -> int:
        return len(self.shape(k))

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The flat slice of every block, in order: the one block layout."""
        return tuple(slice(o, o + s) for o, s in zip(self.offsets, self.sizes))

    @cached_property
    def centralize_views(self) -> tuple[tuple[slice, tuple[int, ...], tuple[int, ...], int], ...]:
        """``(slice, shape, trailing axes 2 to rank, trailing count)`` of each rank > 1 block behind a row axis."""
        return tuple(
            (sl, shape, tuple(range(2, len(shape) + 1)), math.prod(shape[1:]))
            for sl, (_, shape) in zip(self.slices, self.blocks)
            if len(shape) > 1
        )

    def slice_of(self, k: int) -> slice:
        self._check_index(k)
        return self.slices[k]

    def index(self, name: str) -> int:
        for k, (n, _) in enumerate(self.blocks):
            if n == name:
                return k
        raise KeyError(name)

    def _check_index(self, k: int) -> None:
        if not 0 <= k < self.D:
            raise IndexError(f"block index {k} out of range for D={self.D}")

    def manifest(self) -> str:
        """One line per block: ``<name> <dim0>x<dim1>x...``"""
        return "\n".join(f"{name} {'x'.join(str(d) for d in shape)}" for name, shape in self.blocks)

    @classmethod
    def from_manifest(cls, text: str) -> "BlockPartition":
        blocks = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            name, _, dims = line.partition(" ")
            if not dims:
                raise ValueError(f"bad manifest line {line!r}")
            blocks.append((name, tuple(int(d) for d in dims.split("x"))))
        return cls.of(blocks)


class BlockedVector:
    """A flat float64 vector plus the partition interpreting it.

    ``values`` is always a 1-D contiguous float64 array of length
    ``partition.p``.  Mutation is allowed through the block accessors; the
    concurrency contract is single-owner mutation only.
    """

    __slots__ = ("values", "partition")

    def __init__(self, values: np.ndarray, partition: BlockPartition):
        arr = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if arr.size != partition.p:
            raise ValueError(f"values length {arr.size} != partition size {partition.p}")
        self.values = arr
        self.partition = partition

    # -- block access ------------------------------------------------------

    def block(self, k: int) -> np.ndarray:
        """View of block ``k`` reshaped to its tensor shape."""
        return self.values[self.partition.slice_of(k)].reshape(self.partition.shape(k))

    def block_flat(self, k: int) -> np.ndarray:
        return self.values[self.partition.slice_of(k)]

    def set_block(self, k: int, arr: np.ndarray) -> None:
        target = self.values[self.partition.slice_of(k)]
        src = np.asarray(arr, dtype=np.float64).reshape(-1)
        if src.size != target.size:
            raise ValueError(f"block {self.partition.name(k)} expects {target.size} values, got {src.size}")
        target[:] = src

    def blocks(self) -> list[np.ndarray]:
        """Views of every block in its tensor shape; writing to one writes ``values``."""
        values = self.values
        return [values[sl].reshape(shape) for sl, (_, shape) in zip(self.partition.slices, self.partition.blocks)]

    # -- norms and reductions ----------------------------------------------

    def block_l2_norm(self, k: int) -> float:
        return norm(self.block_flat(k))

    def block_norms(self) -> np.ndarray:
        """The L2 norm of every block, in order (D numbers)."""
        values = self.values
        return np.array([norm(values[sl]) for sl in self.partition.slices])

    def l2_norm(self) -> float:
        return norm(self.values)

    def global_mean(self) -> float:
        # the sum and division of ndarray.mean, without its fixed cost per call
        return float(np.add.reduce(self.values, axis=None) / self.values.size)

    def structured_norm(self) -> float:
        """Sum of per-block L2 norms.  Always >= the plain L2 norm."""
        # Python's sum adds left to right; ndarray.sum() pairs terms above 8 blocks
        return float(sum(self.block_norms()))

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "BlockedVector") -> None:
        if self.partition != other.partition:
            raise ValueError("partition mismatch")

    def copy(self) -> "BlockedVector":
        return BlockedVector(self.values.copy(), self.partition)

    def add(self, other: "BlockedVector") -> "BlockedVector":
        self._check_same(other)
        return BlockedVector(self.values + other.values, self.partition)

    def subtract(self, other: "BlockedVector") -> "BlockedVector":
        self._check_same(other)
        return BlockedVector(self.values - other.values, self.partition)

    def scale(self, c: float) -> "BlockedVector":
        return BlockedVector(self.values * float(c), self.partition)

    def dot(self, other: "BlockedVector") -> float:
        self._check_same(other)
        return float(np.dot(self.values, other.values))

    __add__ = add
    __sub__ = subtract

    def __mul__(self, c: float) -> "BlockedVector":
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self) -> "BlockedVector":
        return self.scale(-1.0)

    def __repr__(self) -> str:
        return f"BlockedVector(p={self.partition.p}, D={self.partition.D})"


def zeros(partition: BlockPartition) -> BlockedVector:
    return BlockedVector(np.zeros(partition.p), partition)


def from_blocks(partition: BlockPartition, arrays: Sequence[np.ndarray]) -> BlockedVector:
    if len(arrays) != partition.D:
        raise ValueError(f"expected {partition.D} blocks, got {len(arrays)}")
    v = zeros(partition)
    for k, arr in enumerate(arrays):
        v.set_block(k, arr)
    return v
