"""Differentiable toy objectives and a tiny analytic-backprop MLP task.

Every landscape exposes ``evaluate(x) -> (value, gradient)`` with an
analytic gradient; :func:`fd_gradient` provides the central-difference
oracle the test suite checks those gradients against.  Synthetic data
comes from the package's own integer-state PRNG so datasets are
bit-identical across runs and platforms for a given seed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .blocked import BlockedVector, BlockPartition, from_blocks
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


class EvaluationError(ArithmeticError):
    """A landscape produced a non-finite value or gradient."""


class Landscape:
    """Base class: a partitioned domain plus an analytic evaluator."""

    partition: BlockPartition

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        raise NotImplementedError

    def _checked(self, x: BlockedVector, value: float, grad: np.ndarray) -> tuple[float, BlockedVector]:
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise EvaluationError(
                f"{type(self).__name__} produced non-finite output at ||x||={np.linalg.norm(x.values):.3g}"
            )
        return float(value), BlockedVector(grad, self.partition)


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
        a, b = x.values
        value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array(
            [-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
        )
        return self._checked(x, value, grad)


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

    The offset is computed numerically at construction so that min F >= 0.
    The default instance has two narrow wells and one wide well whose
    bottom is the global minimum.
    """

    SCAN = (-12.0, 12.0, 120001)

    def __init__(self, curvature: float, wells: list[Well]):
        if curvature < 0:
            raise ValueError("curvature must be >= 0")
        self.partition = BlockPartition.of([("x", (1,))])
        self.curvature = curvature
        self.wells = tuple(wells)
        self.offset = -self._raw_min()

    @classmethod
    def default(cls) -> "GaussianWells1D":
        return cls(
            curvature=0.02,
            wells=[Well(0.8, -4.0, 0.10), Well(0.9, -1.5, 0.12), Well(2.0, 2.5, 1.0)],
        )

    # -- scalar API ----------------------------------------------------------

    def value(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        acc = self.curvature * x * x
        for w in self.wells:
            acc = acc - w.depth * np.exp(-((x - w.center) ** 2) / (2.0 * w.width**2))
        return acc + self.offset

    def slope(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        acc = 2.0 * self.curvature * x
        for w in self.wells:
            acc = acc + w.depth * (x - w.center) / w.width**2 * np.exp(
                -((x - w.center) ** 2) / (2.0 * w.width**2)
            )
        return acc

    def _raw_min(self) -> float:
        lo, hi, n = self.SCAN
        xs = np.linspace(lo, hi, n)
        raw = self.curvature * xs * xs
        for w in self.wells:
            raw = raw - w.depth * np.exp(-((xs - w.center) ** 2) / (2.0 * w.width**2))
        best = int(np.argmin(raw))
        # golden-section polish around the best grid point
        a, b = xs[max(best - 1, 0)], xs[min(best + 1, n - 1)]
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        c, d = b - phi * (b - a), a + phi * (b - a)
        f = lambda t: self.curvature * t * t - sum(
            w.depth * np.exp(-((t - w.center) ** 2) / (2.0 * w.width**2)) for w in self.wells
        )
        for _ in range(120):
            if f(c) < f(d):
                b, d = d, c
                c = b - phi * (b - a)
            else:
                a, c = c, d
                d = a + phi * (b - a)
        return float(min(f(a), f(b), f(c), f(d)))

    def evaluate(self, x: BlockedVector) -> tuple[float, BlockedVector]:
        if x.partition != self.partition:
            raise ValueError("partition mismatch")
        t = float(x.values[0])
        return self._checked(x, float(self.value(t)), np.array([float(self.slope(t))]))

    def local_minima(self) -> list[float]:
        """Critical points with slope sign change - to +, located by bisection."""
        lo, hi, n = self.SCAN
        xs = np.linspace(lo, hi, n)
        sl = self.slope(xs)
        minima = []
        for i in range(n - 1):
            if sl[i] < 0.0 <= sl[i + 1]:
                a, b = xs[i], xs[i + 1]
                for _ in range(200):
                    mid = 0.5 * (a + b)
                    if self.slope(mid) < 0.0:
                        a = mid
                    else:
                        b = mid
                minima.append(0.5 * (a + b))
        return minima

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
    leaving an all-rank-2 partition with D = 2.  The loss (and its
    gradient) is optionally multiplied by ``loss_scale``, which is how the
    objective-rescaling invariance is exercised.

    ``evaluate`` and ``minibatch`` share one forward/backward pass.  The
    task keeps one set of scratch arrays per batch size between calls, so
    one task must not be evaluated from two threads at once.  Returned
    gradients are fresh vectors and never alias those arrays.  The task
    also keeps a one-hot float copy of its labels (n x classes), built at
    construction; a minibatch gathers its rows.
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
        blocks = [("W1", (hidden, dim))]
        if with_bias:
            blocks.append(("b1", (hidden,)))
        blocks.append(("W2", (classes, hidden)))
        if with_bias:
            blocks.append(("b2", (classes,)))
        self.partition = BlockPartition.of(blocks)
        self._classes = classes
        slices = dict(zip(self.partition.names, self.partition.slices))
        self._slices = (slices["W1"], slices.get("b1"), slices["W2"], slices.get("b2"))
        self._zero_biases = (np.zeros(hidden), np.zeros(classes))
        self._onehot = np.eye(classes)[dataset.labels]
        self._scratch: dict[int, tuple[np.ndarray, ...]] = {}

    def initial_params(self) -> BlockedVector:
        """Deterministic init: weights ~ normal / sqrt(fan_in), biases zero."""
        gen = Xoshiro256(derive_seed(self.init_seed, 0x3117))
        dim, classes = self.dataset.dim, self.dataset.classes
        w1 = gen.normals(self.hidden * dim).reshape(self.hidden, dim) / np.sqrt(dim)
        w2 = gen.normals(classes * self.hidden).reshape(classes, self.hidden) / np.sqrt(self.hidden)
        arrays = [w1]
        if self.with_bias:
            arrays.append(np.zeros(self.hidden))
        arrays.append(w2)
        if self.with_bias:
            arrays.append(np.zeros(classes))
        return from_blocks(self.partition, arrays)

    # -- forward / backward --------------------------------------------------

    def _unpack(self, x: BlockedVector):
        values = x.values
        s_w1, s_b1, s_w2, s_b2 = self._slices
        w1 = values[s_w1].reshape(self.hidden, -1)
        w2 = values[s_w2].reshape(self._classes, self.hidden)
        if self.with_bias:
            return w1, values[s_b1], w2, values[s_b2]
        b1, b2 = self._zero_biases
        return w1, b1, w2, b2

    def _buffers(self, batch: int) -> tuple[np.ndarray, ...]:
        """Scratch arrays h, gh (batch x hidden), z2, e (batch x classes), zmax (batch).

        One set per batch size, built on first use and kept; every call
        overwrites the arrays it uses before reading them.
        """
        buffers = self._scratch.get(batch)
        if buffers is None:
            classes = self._classes
            buffers = self._scratch[batch] = (
                np.empty((batch, self.hidden)),
                np.empty((batch, self.hidden)),
                np.empty((batch, classes)),
                np.empty((batch, classes)),
                np.empty(batch),
            )
        return buffers

    def _loss_and_grad(
        self, x: BlockedVector, xb: np.ndarray, yb: np.ndarray, onehot: np.ndarray
    ) -> tuple[float, np.ndarray]:
        w1, b1, w2, b2 = self._unpack(x)
        batch = xb.shape[0]
        h, gh, z2, e, zmax = self._buffers(batch)

        np.matmul(xb, w1.T, out=h)
        h += b1
        np.tanh(h, out=h)
        np.matmul(h, w2.T, out=z2)
        z2 += b2

        # Row max, one class column at a time: a max returns one of its
        # inputs (NaN propagates), so this equals z2.max(axis=1) up to the
        # sign of a zero, which neither exp(z2 - zmax) nor log(total) + zmax
        # can see.  ``1 % classes`` keeps a one-class task valid.
        np.maximum(z2[:, 0], z2[:, 1 % self._classes], out=zmax)
        for c in range(2, self._classes):
            np.maximum(zmax, z2[:, c], out=zmax)
        np.subtract(z2, zmax[:, None], out=e)
        np.exp(e, out=e)
        total = e.sum(axis=1)
        logsumexp = np.log(total) + zmax
        loss = float(np.mean(logsumexp - z2[np.arange(batch), yb]))

        # e becomes the softmax probabilities, then the gradient wrt z2;
        # subtracting the one-hot 0.0 leaves every other entry as it is
        e /= total[:, None]
        e -= onehot
        e /= batch

        gw2 = e.T @ h
        gb2 = e.sum(axis=0)
        np.matmul(e, w2, out=gh)
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)  # h is now tanh' = 1 - h*h
        gh *= h
        gw1 = gh.T @ xb
        gb1 = gh.sum(axis=0)

        if self.with_bias:
            grad = np.concatenate((gw1.ravel(), gb1, gw2.ravel(), gb2))
        else:
            grad = np.concatenate((gw1.ravel(), gw2.ravel()))
        if self.loss_scale != 1.0:
            loss = loss * self.loss_scale
            grad *= self.loss_scale
        return loss, grad

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

    def accuracy(self, x: BlockedVector) -> float:
        w1, b1, w2, b2 = self._unpack(x)
        z2 = np.tanh(self.dataset.xs @ w1.T + b1) @ w2.T + b2
        return float(np.mean(z2.argmax(axis=1) == self.dataset.labels))

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
    """Central-difference gradient oracle: (F(x + h e_i) - F(x - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("step h must be positive")
    base = x.values
    grad = np.empty_like(base)
    work = base.copy()
    for i in range(base.size):
        orig = work[i]
        work[i] = orig + h
        f_plus, _ = landscape.evaluate(BlockedVector(work, x.partition))
        work[i] = orig - h
        f_minus, _ = landscape.evaluate(BlockedVector(work, x.partition))
        work[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return BlockedVector(grad, x.partition)
