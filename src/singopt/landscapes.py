"""Differentiable toy objectives and a tiny analytic-backprop MLP task.

Each landscape writes its objective once, as ``_oracle(points)``: the
losses and analytic gradients at the rows of an (m, p) array.  The base
class derives the public oracles from it: ``evaluate(x) -> (value,
gradient)`` is its row 0, and ``losses(points)`` and ``gradients(points)``
are one call on an (m, p) array, any other shape refused, refusing a row
whose loss or gradient is not finite as ``evaluate`` does.
:func:`fd_gradient` is the central-difference oracle the test suite checks
the analytic gradients against; it asks ``losses`` for all 2p perturbed
points in one call (in runs of coordinates past p = 362), never for a
gradient.  Synthetic data comes from the package's own integer-state PRNG
so datasets are bit-identical across runs and platforms for a given seed.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, BlockPartition, norm, row_dots
from .rng import Xoshiro256, derive_seed

__all__ = [
    "EvaluationError",
    "Landscape",
    "Quadratic",
    "Rosenbrock",
    "GaussianWells1D",
    "Well",
    "BlobsDataset",
    "make_blobs",
    "MlpTask",
    "fd_gradient",
]

# Most hidden-activation elements one chunk of ``MlpTask.losses`` holds
# (256 KB of float64; larger chunks measured slower), and most elements
# of one ``fd_gradient`` batch of perturbed points (2 MB): one call for
# every p up to 362.
_LOSSES_CHUNK_ELEMENTS = 1 << 15
_FD_POINTS_ELEMENTS = 1 << 18


# ``** 2`` squares a numpy scalar through libm pow, an array by a multiply (bits
# can differ); a helper, not a named ``d``, frees ``d`` before the next temporary
def _square(d):
    return d * d


# The MLP pass's short-axis sums, with the bits of numpy's ``sum``.  Its
# ``sum(axis=-1)`` adds fewer than 8 terms left to right from +0.0; from 8
# on, its pairwise sum keeps eight partial sums.  Its ``sum(axis=-2)`` adds
# the rows in order, as ``einsum`` does, except over a single column, which
# it sums pairwise.  Past each bound the helper calls ``sum`` itself.
def _row_sums(a):
    """``a.sum(axis=-1)``, as left-to-right column adds between 2 and 7 columns.

    The adds start from the first column, not from +0.0, so they differ
    from ``sum`` only on a row that is all -0.0; ``exp`` never returns one.
    """
    columns = a.shape[-1]
    if not 1 < columns < 8:
        return a.sum(axis=-1)
    total = a[..., 0] + a[..., 1]
    for c in range(2, columns):
        total += a[..., c]
    return total


def _column_sums(a):
    """``a.sum(axis=-2)`` of a C-contiguous array, as ``einsum`` unless ``a`` has one column."""
    if a.shape[-1] == 1:
        return a.sum(axis=-2)
    return np.einsum("...ij->...j", a)


class EvaluationError(ArithmeticError):
    """A landscape produced a non-finite value or gradient."""


class Landscape:
    """A partitioned domain plus the one formula a subclass writes, ``_oracle(points)``: losses
    (m,) and gradients (m, p) at the rows of an (m, p) float64 array, checking nothing.
    ``evaluate`` is its row 0; ``losses`` and ``gradients`` are one call."""

    partition: BlockPartition

    def _oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        losses, grads = self._oracle(x.values[None])
        return self._checked(x, losses[0], grads[0])

    def losses(self, points: np.ndarray) -> np.ndarray:
        """The loss at each row of an (m, p) array, as ``evaluate(row)[0]``."""
        return self._checked_oracle(points)[0]

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """The gradient at each row of an (m, p) array, as ``evaluate(row)[1]``."""
        return self._checked_oracle(points)[1]

    def _checked_oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        losses, grads = self._oracle(self._rows(points))
        self._checked_rows(np.isfinite(losses) & np.isfinite(grads).all(axis=1), "output")
        return losses, grads

    def _rows(self, points: np.ndarray) -> np.ndarray:
        """``points`` as float64, refused unless it is an (m, p) array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.partition.p:
            raise ValueError(f"points must have shape (m, {self.partition.p}), got {points.shape}")
        return points

    def _checked(self, x: BlockedVector, value: float, grad: np.ndarray) -> tuple[float, BlockedVector]:
        if not math.isfinite(value) or not np.isfinite(grad).all():
            raise EvaluationError(f"{type(self).__name__} produced non-finite output at ||x||={norm(x.values):.3g}")
        return float(value), BlockedVector(grad, self.partition)

    def _checked_rows(self, finite: np.ndarray, what: str) -> None:
        """Raise :class:`EvaluationError` naming the first row whose ``what`` is not finite."""
        if not finite.all():
            bad = int(np.argmin(finite))
            raise EvaluationError(f"{type(self).__name__} produced a non-finite {what} at row {bad} of {finite.size}")


class Quadratic(Landscape):
    """F(x) = 0.5 * L * ||x||^2 on an arbitrary partition; smoothness constant L."""

    def __init__(self, partition: BlockPartition, smoothness: float = 2.0):
        if not smoothness > 0:
            raise ValueError("smoothness must be positive")
        self.partition = partition
        self.smoothness = smoothness

    # each class binds ``evaluate`` itself: perfbench/tracing.py wraps it per class
    evaluate = Landscape.evaluate

    def _oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return 0.5 * self.smoothness * row_dots(points, points), self.smoothness * points


class Rosenbrock(Landscape):
    """The classic 2-D banana valley; global minimum 0 at (1, 1)."""

    def __init__(self):
        self.partition = BlockPartition.of([("xy", (2,))])

    evaluate = Landscape.evaluate

    def _oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = points.T
        u, v = 1.0 - a, b - a * a
        return u * u + 100.0 * (v * v), np.stack([-2.0 * u - 400.0 * a * v, 200.0 * v], axis=1)


@dataclass(frozen=True)
class Well:
    depth: float
    center: float
    width: float

    def __post_init__(self) -> None:
        if not (self.depth > 0 and self.width > 0):
            raise ValueError("well depth and width must be positive")


class GaussianWells1D(Landscape):
    """1-D quadratic background minus Gaussian wells, offset to be nonnegative.

        F(x) = c*x^2 - sum_i a_i * exp(-(x - mu_i)^2 / (2 s_i^2)) + offset

    Construction finds the local minima once, bisecting each - to + slope
    sign change on the ``SCAN`` grid; the offset is minus the lowest F over
    them and the scan ends.  Floats and arrays give the same bits.  The
    default has two narrow wells and a wide one holding the global minimum.
    """

    SCAN = (-12.0, 12.0, 120001)

    def __init__(self, curvature: float, wells: list[Well]):
        if not curvature >= 0:
            raise ValueError("curvature must be >= 0")
        self.partition = BlockPartition.of([("x", (1,))])
        self.curvature = curvature
        self.wells = tuple(wells)
        lo, hi, n = self.SCAN
        xs = np.linspace(lo, hi, n)
        sl = self.slope(xs)
        self._minima = []
        for i in np.flatnonzero((sl[:-1] < 0.0) & (sl[1:] >= 0.0)):
            a, b = xs[i], xs[i + 1]
            # stop at a fixed point (midpoint equal to an end), or after 200 halvings near 0
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                if self.slope(mid) < 0.0:
                    a = mid
                else:
                    b = mid
            self._minima.append(0.5 * (a + b))
        self.offset = -float(self._raw(np.array([lo, *self._minima, hi])).min())

    @classmethod
    @functools.cache
    def default(cls) -> "GaussianWells1D":
        """The default wells, built on the first call in a process and shared: no method mutates them."""
        return cls(
            curvature=0.02,
            wells=[Well(0.8, -4.0, 0.10), Well(0.9, -1.5, 0.12), Well(2.0, 2.5, 1.0)],
        )

    def value(self, x) -> np.ndarray | float:
        return self._raw(x) + self.offset

    def _raw(self, x) -> np.ndarray | float:
        """F(x) without the offset."""
        x = np.asarray(x, dtype=np.float64)
        acc = self.curvature * x * x
        for w in self.wells:
            acc = acc - w.depth * np.exp(-_square(x - w.center) / (2.0 * w.width**2))
        return acc

    def slope(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        acc = 2.0 * self.curvature * x
        for w in self.wells:
            acc = acc + w.depth * (x - w.center) / w.width**2 * np.exp(-_square(x - w.center) / (2.0 * w.width**2))
        return acc

    evaluate = Landscape.evaluate

    def _oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.value(points[:, 0]), self.slope(points)

    def local_minima(self) -> list[float]:
        """The slope's - to + crossings on the scan, bisected once at construction; a fresh list."""
        return list(self._minima)

    def as_point(self, t: float) -> BlockedVector:
        return BlockedVector(np.array([t]), self.partition)


@dataclass(frozen=True)
class BlobsDataset:
    """Deterministic labelled Gaussian-ish blobs around per-class centers."""

    seed: int
    xs: np.ndarray
    labels: np.ndarray
    spread: float

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    @property
    def classes(self) -> int:
        return int(self.labels.max()) + 1

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(f"x{j}" for j in range(self.dim)) + ",label\n")
        for i in range(self.n):
            buf.write(",".join(repr(float(v)) for v in self.xs[i]) + f",{int(self.labels[i])}\n")
        return buf.getvalue()


def _class_centers(classes: int, dim: int) -> np.ndarray:
    centers = np.zeros((classes, dim))
    if dim == 1:
        centers[:, 0] = np.linspace(-2.0, 2.0, classes)
    else:
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers[:, 0] = 2.0 * np.cos(angles)
        centers[:, 1] = 2.0 * np.sin(angles)
    return centers


def make_blobs(seed: int, n: int, classes: int, dim: int, spread: float) -> BlobsDataset:
    """Labelled blobs: centers on a circle of radius 2, labels balanced within 1."""
    if not n >= classes >= 2:
        raise ValueError(f"need n >= classes >= 2, got n={n}, classes={classes}")
    if dim < 1 or not spread >= 0:
        raise ValueError("dim must be >= 1 and spread >= 0")
    centers = _class_centers(classes, dim)
    gen = Xoshiro256(derive_seed(seed, 0xB10B5))
    labels = np.arange(n, dtype=np.int64) % classes
    # row-major draws: the same multiply then add, per element, as a loop
    # over rows and then coordinates calling ``gen.normal()``
    xs = centers[labels] + spread * gen.normals(n * dim).reshape(n, dim)
    return BlobsDataset(seed=seed, xs=xs, labels=labels, spread=spread)


class MlpTask(Landscape):
    """Two-layer tanh MLP with softmax cross-entropy on a blobs dataset.

    Parameters form four blocks W1 (hidden x dim), b1, W2 (classes x
    hidden), b2, so D = 4; ``with_bias=False`` drops the bias blocks
    leaving an all-rank-2 partition with D = 2, and an absent bias
    counts as 0.0 (adding it leaves every bit as it is).  The loss (and
    its gradient) is optionally multiplied by ``loss_scale``, which is
    how the objective-rescaling invariance is exercised.

    One forward pass, :meth:`_forward`, and one backward pass,
    :meth:`_loss_and_grad`, serve every caller: ``evaluate`` and
    ``minibatch`` run both on one point, ``_oracle`` and ``gradient_noise``
    on stacks, ``losses`` the forward pass alone, ``accuracy`` its logits.
    The softmax row sums and bias gradients are short-axis sums, where
    ``sum``'s fixed cost per call is most of the work; ``_row_sums`` and
    ``_column_sums`` give its bits for less, and call ``sum`` itself from 8
    classes and at one hidden unit or class, where numpy adds in another
    order.  Every pass allocates its own arrays, so evaluation writes
    nothing onto the task.  The task keeps a one-hot float copy of its
    labels (n x classes), built at construction; a minibatch gathers its
    rows.
    """

    def __init__(
        self,
        dataset: BlobsDataset,
        hidden: int = 16,
        init_seed: int = 0,
        loss_scale: float = 1.0,
        with_bias: bool = True,
    ):
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not loss_scale > 0:
            raise ValueError("loss_scale must be positive")
        self.dataset = dataset
        self.hidden = hidden
        self.init_seed = init_seed
        self.loss_scale = loss_scale
        self.with_bias = with_bias
        dim, classes = dataset.dim, dataset.classes
        shapes = {"W1": (hidden, dim), "b1": (hidden,), "W2": (classes, hidden), "b2": (classes,)}
        blocks = [(name, shape) for name, shape in shapes.items() if with_bias or name.startswith("W")]
        self.partition = BlockPartition.of(blocks)
        self._classes = classes
        # block name -> flat slice, in partition order
        self._slices = dict(zip(self.partition.names, self.partition.slices))
        self._onehot = np.eye(classes)[dataset.labels]
        self._pick = (np.arange(dataset.n), dataset.labels)

    def initial_params(self) -> BlockedVector:
        """Deterministic init: weights ~ normal / sqrt(fan_in), biases zero."""
        gen = Xoshiro256(derive_seed(self.init_seed, 0x3117))
        dim, classes = self.dataset.dim, self.dataset.classes
        values = np.zeros(self.partition.p)
        values[self._slices["W1"]] = gen.normals(self.hidden * dim) / np.sqrt(dim)
        values[self._slices["W2"]] = gen.normals(classes * self.hidden) / np.sqrt(self.hidden)
        return BlockedVector(values, self.partition)

    # -- forward / backward --------------------------------------------------

    def _unpack(self, x):
        """W1, b1, W2, b2 of one point (a BlockedVector) or of each row of an (m, p) array.

        A point on another partition is refused, whichever oracle asks.  A
        stack gets a leading axis on every block.  A bias gets an axis of
        length 1 before its units, so it broadcasts over the samples; an
        absent bias is 0.0.
        """
        if isinstance(x, BlockedVector):
            if x.partition != self.partition:
                raise ValueError("partition mismatch")
            values = x.values
        else:
            values = x
        lead = values.shape[:-1]
        s = self._slices
        w1 = values[..., s["W1"]].reshape(lead + (self.hidden, -1))
        w2 = values[..., s["W2"]].reshape(lead + (self._classes, self.hidden))
        if self.with_bias:
            return w1, values[..., None, s["b1"]], w2, values[..., None, s["b2"]]
        return w1, 0.0, w2, 0.0

    def _forward(self, params, xb: np.ndarray, pick: tuple):
        """The scaled loss, hidden activations h, logits z2, e = exp(z2 - row max) and e's row sums.

        ``params`` (from :meth:`_unpack`) and ``xb`` are one point and batch or
        stacks of them, ``z2[..., *pick]`` the label logits; a stack gives one
        loss per point and a leading axis on every array.  Every array is fresh,
        so the caller may overwrite it.  A stacked ``matmul`` makes the same BLAS
        call per point as the 2-D one and every reduction runs along a contiguous
        last axis, so a point's loss has the same bits alone or stacked.
        """
        w1, b1, w2, b2 = params
        h = xb @ w1.swapaxes(-1, -2)
        h += b1
        np.tanh(h, out=h)
        z2 = h @ w2.swapaxes(-1, -2)
        z2 += b2

        # Row max, one class column at a time: a max returns one of its
        # inputs (NaN propagates), so this equals z2.max(axis=-1) up to the
        # sign of a zero, which neither exp(z2 - zmax) nor log(total) + zmax
        # can see.  ``1 % classes`` keeps a one-class task valid.
        zmax = np.maximum(z2[..., 0], z2[..., 1 % self._classes])
        for c in range(2, self._classes):
            np.maximum(zmax, z2[..., c], out=zmax)
        e = z2 - zmax[..., None]
        np.exp(e, out=e)
        total = _row_sums(e)
        logsumexp = np.log(total) + zmax
        # the mean as np.mean computes it, without its fixed cost per call
        batch = xb.shape[-2]
        loss = (logsumexp - z2[(..., *pick)]).sum(axis=-1) / batch
        if self.loss_scale != 1.0:
            loss = loss * self.loss_scale
        return loss, h, z2, e, total

    def _loss_and_grad(self, params, xb: np.ndarray, pick: tuple, onehot: np.ndarray):
        """:meth:`_forward`'s loss and its flat gradient, with a leading axis for a stack."""
        batch = xb.shape[-2]
        loss, h, _, e, total = self._forward(params, xb, pick)

        # e becomes the softmax probabilities, then the gradient wrt z2;
        # subtracting the one-hot 0.0 leaves every other entry as it is
        e /= total[..., None]
        e -= onehot
        e /= batch

        gw2 = e.swapaxes(-1, -2) @ h
        gb2 = _column_sums(e)
        gh = e @ params[2]
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)  # h is now tanh' = 1 - h*h
        gh *= h
        gw1 = gh.swapaxes(-1, -2) @ xb
        gb1 = _column_sums(gh)

        grads = {"W1": gw1, "b1": gb1, "W2": gw2, "b2": gb2}
        grad = np.concatenate([grads[name].reshape(loss.shape + (-1,)) for name in self._slices], axis=-1)
        if self.loss_scale != 1.0:
            grad *= self.loss_scale
        return loss, grad

    def _chunks(self, points: np.ndarray):
        """(rows, stacked params) per chunk of ``points``, hidden activations under ``_LOSSES_CHUNK_ELEMENTS``."""
        step = max(1, _LOSSES_CHUNK_ELEMENTS // (self.dataset.n * self.hidden))
        for start in range(0, points.shape[0], step):
            yield slice(start, start + step), self._unpack(points[start : start + step])

    def _oracle(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        losses, grads = np.empty(points.shape[0]), np.empty(points.shape)
        for rows, params in self._chunks(points):
            losses[rows], grads[rows] = self._loss_and_grad(params, self.dataset.xs, self._pick, self._onehot)
        return losses, grads

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        return self._checked(x, *self._loss_and_grad(self._unpack(x), self.dataset.xs, self._pick, self._onehot))

    def minibatch(self, x: BlockedVector, idx: np.ndarray) -> tuple[float, BlockedVector]:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("batch must be nonempty")
        if idx.min() < 0 or idx.max() >= self.dataset.n:
            raise ValueError(f"batch indices outside [0, {self.dataset.n})")
        pick = (np.arange(idx.size), self.dataset.labels[idx])
        return self._checked(x, *self._loss_and_grad(self._unpack(x), self.dataset.xs[idx], pick, self._onehot[idx]))

    def losses(self, points: np.ndarray) -> np.ndarray:
        """Full-batch loss at each row of ``points``, bit for bit as ``evaluate``, from the forward pass alone."""
        points = self._rows(points)
        out = np.empty(points.shape[0])
        for rows, params in self._chunks(points):
            out[rows] = self._forward(params, self.dataset.xs, self._pick)[0]
        self._checked_rows(np.isfinite(out), "loss")
        return out

    def accuracy(self, x: BlockedVector) -> float:
        data = self.dataset
        z2 = self._forward(self._unpack(x), data.xs, self._pick)[2]
        return float(np.mean(z2.argmax(axis=1) == data.labels))

    def gradient_noise(self, x: BlockedVector) -> float:
        """Empirical sigma^2: mean squared deviation of per-sample gradients, as one stack of n one-sample batches."""
        _, full = self.evaluate(x)
        data = self.dataset
        # sample i is the one-row batch i of the stack: its label logit is z2[i, 0, label i]
        pick = (self._pick[0][:, None], np.arange(1), data.labels[:, None])
        _, grads = self._loss_and_grad(self._unpack(x), data.xs[:, None], pick, self._onehot[:, None])
        self._checked_rows(np.isfinite(grads).all(axis=1), "gradient")
        diff = grads - full.values
        total = 0.0
        for square in row_dots(diff, diff).tolist():  # left to right, as a loop over samples adds
            total += square
        return total / data.n


def fd_gradient(landscape: Landscape, x: BlockedVector, h: float) -> BlockedVector:
    """Central-difference gradient oracle: (F(x + h e_i) - F(x - h e_i)) / 2h.

    Rows 2i and 2i + 1 of the perturbed points are x + h e_i and x - h e_i;
    one ``landscape.losses`` call evaluates them all, or, when 2p rows of p
    would exceed ``_FD_POINTS_ELEMENTS``, one call per run of coordinates.
    """
    if not h > 0:
        raise ValueError("step h must be positive")
    if x.partition != landscape.partition:
        raise ValueError("partition mismatch")
    base = x.values
    grad = np.empty_like(base)
    step = max(1, _FD_POINTS_ELEMENTS // (2 * base.size))
    for start in range(0, base.size, step):
        coords = np.arange(start, min(start + step, base.size))
        pair = 2 * np.arange(coords.size)
        points = np.tile(base, (2 * coords.size, 1))
        points[pair, coords] = base[coords] + h
        points[pair + 1, coords] = base[coords] - h
        f = landscape.losses(points)
        grad[coords] = (f[0::2] - f[1::2]) / (2.0 * h)
    return BlockedVector(grad, x.partition)
