"""Differentiable toy objectives and a tiny analytic-backprop MLP task.

Every landscape exposes ``evaluate(x) -> (value, gradient)`` with an
analytic gradient, and two batch oracles over the rows of an (m, p)
array, refusing any other shape: ``losses(points)`` and
``gradients(points)``, bit for bit what ``evaluate(row)[0]`` and
``evaluate(row)[1]`` give.  The base class loops over ``evaluate``;
:class:`GaussianWells1D` computes ``gradients`` with one array call to
its slope.  :class:`MlpTask` has one forward pass
for one point or a stack of points: ``evaluate`` and ``minibatch``
follow it with the backward pass, ``losses`` runs it once per chunk of
stacked parameters and ``accuracy`` reads its logits, so the loss the
oracle differences is the loss ``evaluate`` differentiates, by
construction.  :func:`fd_gradient`
is the central-difference oracle the test suite checks the analytic
gradients against; it asks ``losses`` for all 2p perturbed points in
one call (in runs of coordinates past p = 362), never for a gradient.
Synthetic data comes from the package's own integer-state PRNG so
datasets are bit-identical across runs and platforms for a given seed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, BlockPartition, norm
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


class EvaluationError(ArithmeticError):
    """A landscape produced a non-finite value or gradient."""


class Landscape:
    """Base class: a partitioned domain plus an analytic evaluator."""

    partition: BlockPartition

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        raise NotImplementedError

    def losses(self, points: np.ndarray) -> np.ndarray:
        """The loss at each row of an (m, p) array, as ``evaluate(row)[0]``."""
        rows = self._rows(points)
        return np.array([self.evaluate(BlockedVector(row, self.partition))[0] for row in rows], dtype=np.float64)

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """The gradient at each row of an (m, p) array, as ``evaluate(row)[1]``."""
        rows = [self.evaluate(BlockedVector(row, self.partition))[1].values for row in self._rows(points)]
        return np.array(rows, dtype=np.float64).reshape(-1, self.partition.p)

    def _rows(self, points: np.ndarray) -> np.ndarray:
        """``points`` as float64, refused unless it is an (m, p) array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.partition.p:
            raise ValueError(f"points must have shape (m, {self.partition.p}), got {points.shape}")
        return points

    def _checked(self, x: BlockedVector, value: float, grad: np.ndarray) -> tuple[float, BlockedVector]:
        if not math.isfinite(value) or not np.isfinite(grad).all():
            raise EvaluationError(
                f"{type(self).__name__} produced non-finite output at ||x||={norm(x.values):.3g}"
            )
        return float(value), BlockedVector(grad, self.partition)

    def _checked_rows(self, finite: np.ndarray, what: str) -> None:
        """Raise :class:`EvaluationError` naming the first row whose ``what`` is not finite."""
        if not finite.all():
            bad = int(np.argmin(finite))
            raise EvaluationError(f"{type(self).__name__} produced a non-finite {what} at row {bad} of {finite.size}")


class Quadratic(Landscape):
    """F(x) = 0.5 * L * ||x||^2 on an arbitrary partition; smoothness constant L."""

    def __init__(self, partition: BlockPartition, smoothness: float = 2.0):
        if smoothness <= 0:
            raise ValueError("smoothness must be positive")
        self.partition = partition
        self.smoothness = smoothness

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        value = 0.5 * self.smoothness * float(np.dot(x.values, x.values))
        return self._checked(x, value, self.smoothness * x.values)


class Rosenbrock(Landscape):
    """The classic 2-D banana valley; global minimum 0 at (1, 1)."""

    def __init__(self):
        self.partition = BlockPartition.of([("xy", (2,))])

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        a, b = x.values
        u, v = 1.0 - a, b - a * a
        return self._checked(x, u * u + 100.0 * (v * v), np.array([-2.0 * u - 400.0 * a * v, 200.0 * v]))


@dataclass(frozen=True)
class Well:
    depth: float
    center: float
    width: float

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.width <= 0:
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
        if curvature < 0:
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
    def default(cls) -> "GaussianWells1D":
        return cls(
            curvature=0.02,
            wells=[Well(0.8, -4.0, 0.10), Well(0.9, -1.5, 0.12), Well(2.0, 2.5, 1.0)],
        )

    # -- scalar API ----------------------------------------------------------

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

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        t = float(x.values[0])
        return self._checked(x, float(self.value(t)), np.array([float(self.slope(t))]))

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """One array call for every row; refuses a row where ``evaluate`` would."""
        xs = self._rows(points)[:, 0]
        slopes = self.slope(xs)
        self._checked_rows(np.isfinite(self.value(xs)) & np.isfinite(slopes), "output")
        return slopes[:, None]

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
    if dim < 1 or spread < 0:
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

    One forward pass, :meth:`_forward`, serves every caller: ``evaluate``
    and ``minibatch`` run it on one point and follow it with the
    backward pass, ``losses`` runs it on a stack of points, and
    ``accuracy`` reads its logits.  Every pass allocates its own arrays,
    so evaluation writes nothing onto the task.  The task keeps a one-hot
    float copy of its labels (n x classes), built at construction; a
    minibatch gathers its rows.
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
        if loss_scale <= 0:
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

        A stack gets a leading axis on every block.  A bias gets an axis
        of length 1 before its units, so it broadcasts over the samples;
        an absent bias is 0.0.
        """
        values = x.values if isinstance(x, BlockedVector) else x
        lead = values.shape[:-1]
        s = self._slices
        w1 = values[..., s["W1"]].reshape(lead + (self.hidden, -1))
        w2 = values[..., s["W2"]].reshape(lead + (self._classes, self.hidden))
        if self.with_bias:
            return w1, values[..., None, s["b1"]], w2, values[..., None, s["b2"]]
        return w1, 0.0, w2, 0.0

    def _forward(self, params, xb: np.ndarray, yb: np.ndarray):
        """The scaled loss, hidden activations h, logits z2, e = exp(z2 - row max) and e's row sums.

        ``params`` is what :meth:`_unpack` returns, for one point or a
        stack of them; a stack gives one loss per point and a leading axis
        on every array.  Every array is fresh, so the caller may overwrite
        it.  A stacked ``matmul`` makes the same BLAS call per point as
        the 2-D one, and every reduction runs along a contiguous last
        axis, so a point's loss has the same bits alone or in a stack.
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
        total = e.sum(axis=-1)
        logsumexp = np.log(total) + zmax
        # the mean as np.mean computes it, without its fixed cost per call
        batch = xb.shape[0]
        loss = (logsumexp - z2[..., np.arange(batch), yb]).sum(axis=-1) / batch
        if self.loss_scale != 1.0:
            loss = loss * self.loss_scale
        return loss, h, z2, e, total

    def _loss_and_grad(
        self, x: BlockedVector, xb: np.ndarray, yb: np.ndarray, onehot: np.ndarray
    ) -> tuple[float, np.ndarray]:
        params = self._unpack(x)
        batch = xb.shape[0]
        loss, h, _, e, total = self._forward(params, xb, yb)

        # e becomes the softmax probabilities, then the gradient wrt z2;
        # subtracting the one-hot 0.0 leaves every other entry as it is
        e /= total[:, None]
        e -= onehot
        e /= batch

        gw2 = e.T @ h
        gb2 = e.sum(axis=0)
        gh = e @ params[2]
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)  # h is now tanh' = 1 - h*h
        gh *= h
        gw1 = gh.T @ xb
        gb1 = gh.sum(axis=0)

        grads = {"W1": gw1, "b1": gb1, "W2": gw2, "b2": gb2}
        grad = np.concatenate([grads[name].ravel() for name in self._slices])
        if self.loss_scale != 1.0:
            grad *= self.loss_scale
        return float(loss), grad

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        data = self.dataset
        return self._checked(x, *self._loss_and_grad(x, data.xs, data.labels, self._onehot))

    def minibatch(self, x: BlockedVector, idx: np.ndarray) -> tuple[float, BlockedVector]:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("batch must be nonempty")
        if idx.min() < 0 or idx.max() >= self.dataset.n:
            raise ValueError(f"batch indices outside [0, {self.dataset.n})")
        data = self.dataset
        return self._checked(x, *self._loss_and_grad(x, data.xs[idx], data.labels[idx], self._onehot[idx]))

    def losses(self, points: np.ndarray) -> np.ndarray:
        """Full-batch loss at each row of ``points``, bit for bit as ``evaluate``.

        One stacked :meth:`_forward` per chunk of rows; chunks keep the
        hidden activations under ``_LOSSES_CHUNK_ELEMENTS`` elements.
        """
        points = self._rows(points)
        data = self.dataset
        step = max(1, _LOSSES_CHUNK_ELEMENTS // (data.n * self.hidden))
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], step):
            chunk = points[start : start + step]
            out[start : start + chunk.shape[0]] = self._forward(self._unpack(chunk), data.xs, data.labels)[0]
        self._checked_rows(np.isfinite(out), "loss")
        return out

    def accuracy(self, x: BlockedVector) -> float:
        data = self.dataset
        z2 = self._forward(self._unpack(x), data.xs, data.labels)[2]
        return float(np.mean(z2.argmax(axis=1) == data.labels))

    def gradient_noise(self, x: BlockedVector) -> float:
        """Empirical sigma^2: mean squared deviation of per-sample gradients."""
        _, full = self.evaluate(x)
        total = 0.0
        for i in range(self.dataset.n):
            _, gi = self.minibatch(x, np.array([i]))
            diff = gi.values - full.values
            total += float(np.dot(diff, diff))
        return total / self.dataset.n


def fd_gradient(landscape: Landscape, x: BlockedVector, h: float) -> BlockedVector:
    """Central-difference gradient oracle: (F(x + h e_i) - F(x - h e_i)) / 2h.

    Rows 2i and 2i + 1 of the perturbed points are x + h e_i and x - h e_i;
    one ``landscape.losses`` call evaluates them all, or, when 2p rows of p
    would exceed ``_FD_POINTS_ELEMENTS``, one call per run of coordinates.
    """
    if h <= 0:
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
