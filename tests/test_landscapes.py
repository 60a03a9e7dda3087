import hashlib

import numpy as np
import pytest

from singopt.blocked import BlockPartition, BlockedVector, from_blocks
from singopt.landscapes import (
    EvaluationError,
    GaussianWells1D,
    Landscape,
    MlpTask,
    Quadratic,
    Rosenbrock,
    Well,
    fd_gradient,
    make_blobs,
)


def small_mlp(seed=0, n=120, hidden=8, **kwargs):
    dataset = make_blobs(seed=seed, n=n, classes=3, dim=2, spread=0.3)
    return MlpTask(dataset, hidden=hidden, init_seed=seed, **kwargs)


# -- basic evaluations ---------------------------------------------------------

def test_quadratic_example():
    part = BlockPartition.of([("x", (2,))])
    land = Quadratic(part, smoothness=2.0)
    value, grad = land.evaluate(BlockedVector(np.array([1.0, 0.0]), part))
    assert value == 1.0
    assert np.array_equal(grad.values, np.array([2.0, 0.0]))


def test_rosenbrock_minimum():
    land = Rosenbrock()
    value, grad = land.evaluate(BlockedVector(np.array([1.0, 1.0]), land.partition))
    assert value == 0.0
    assert np.array_equal(grad.values, np.zeros(2))


def test_single_well_gradient_zero_at_center():
    land = GaussianWells1D(curvature=0.0, wells=[Well(1.0, 0.7, 0.2)])
    _, grad = land.evaluate(land.as_point(0.7))
    assert abs(grad.values[0]) < 1e-15


def test_non_finite_evaluation_raises():
    part = BlockPartition.of([("x", (1,))])
    land = Quadratic(part, smoothness=2.0)
    with pytest.raises(EvaluationError):
        land.evaluate(BlockedVector(np.array([1e200]), part))


def test_wells_offset_makes_min_nonnegative():
    land = GaussianWells1D.default()
    xs = np.linspace(-10, 10, 20001)
    values = land.value(xs)
    assert np.all(values >= -1e-9)
    assert values.min() < 1e-6  # the offset is tight, not just large


def test_wells_default_has_three_minima():
    land = GaussianWells1D.default()
    minima = land.local_minima()
    assert len(minima) == 3
    # wide well hosts the global minimum
    values = [float(land.value(m)) for m in minima]
    assert int(np.argmin(values)) == 2
    assert minima[0] == pytest.approx(-4.0, abs=0.05)
    assert minima[1] == pytest.approx(-1.5, abs=0.05)
    assert minima[2] == pytest.approx(2.5, abs=0.1)


# -- finite differences ----------------------------------------------------------

def test_fd_gradient_quadratic_accuracy():
    rng = np.random.default_rng(0)
    part = BlockPartition.of([("a", (3,)), ("b", (2, 2))])
    land = Quadratic(part, smoothness=2.0)
    for _ in range(20):
        x = BlockedVector(rng.uniform(-1, 1, part.p), part)
        _, analytic = land.evaluate(x)
        approx = fd_gradient(land, x, h=1e-5)
        rel = np.linalg.norm(analytic.values - approx.values) / np.linalg.norm(analytic.values)
        assert rel < 1e-8


def test_fd_gradient_exact_on_linear():
    class Linear(Landscape):
        def __init__(self):
            self.partition = BlockPartition.of([("x", (3,))])
            self.c = np.array([2.0, -1.0, 0.5])

        def evaluate(self, x):
            return self._checked(x, float(self.c @ x.values), self.c.copy())

    land = Linear()
    # power-of-two data keeps all the dot products exact, so the central
    # difference recovers the slope bit-for-bit regardless of h
    x = BlockedVector(np.array([0.25, -0.5, 1.0]), land.partition)
    for h in (0.5, 0.03125, 2.0):
        approx = fd_gradient(land, x, h=h)
        assert np.array_equal(approx.values, land.c)
    # arbitrary data is still exact up to subtraction roundoff
    x = BlockedVector(np.array([0.3, -0.4, 1.1]), land.partition)
    approx = fd_gradient(land, x, h=1e-5)
    np.testing.assert_allclose(approx.values, land.c, rtol=1e-9)


def test_fd_gradient_rejects_bad_step():
    land = Rosenbrock()
    x = BlockedVector(np.zeros(2), land.partition)
    with pytest.raises(ValueError):
        fd_gradient(land, x, h=0.0)


def test_mlp_backprop_matches_fd():
    task = small_mlp(n=60)
    rng = np.random.default_rng(1)
    x0 = task.initial_params()
    for _ in range(3):
        x = BlockedVector(x0.values + 0.3 * rng.standard_normal(task.partition.p), task.partition)
        _, analytic = task.evaluate(x)
        approx = fd_gradient(task, x, h=1e-5)
        rel = np.linalg.norm(analytic.values - approx.values) / np.linalg.norm(analytic.values)
        assert rel < 1e-5


# -- blobs dataset ----------------------------------------------------------------

def test_blobs_identical_for_equal_seed():
    a = make_blobs(seed=3, n=200, classes=3, dim=2, spread=0.3)
    b = make_blobs(seed=3, n=200, classes=3, dim=2, spread=0.3)
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.to_csv() == b.to_csv()


def test_blobs_differ_across_seeds():
    a = make_blobs(seed=3, n=200, classes=3, dim=2, spread=0.3)
    b = make_blobs(seed=4, n=200, classes=3, dim=2, spread=0.3)
    assert a.xs.tobytes() != b.xs.tobytes()


def test_blobs_balanced_within_one():
    data = make_blobs(seed=0, n=2000, classes=3, dim=2, spread=0.3)
    counts = np.bincount(data.labels)
    assert counts.max() - counts.min() <= 1


def test_blobs_zero_spread_sits_on_centers():
    data = make_blobs(seed=0, n=30, classes=3, dim=2, spread=0.0)
    for label in range(3):
        pts = data.xs[data.labels == label]
        assert np.all(pts == pts[0])
    # distinct centers => linearly separable
    assert len({tuple(row) for row in data.xs}) == 3


# (seed, n, classes, dim, spread): sha256 of xs and of labels, as stored
BLOBS_BYTES = [
    (
        (0, 2000, 3, 2, 0.3),
        "1001c16264b75fe2f0c1e052e7a6971d6b790e5256672223776d8022a34f418e",
        "0ea0415374a7c2bfa868bb0870c67996e74cdee1a546be2c8c925c40e9a3f42a",
    ),
    (
        (5, 37, 5, 3, 1.7),
        "0717694e516ac483445b28a60c37f6a16ca516d7aafe26260c0d245a549abe66",
        "fca18ffc2a90d3fb87bfc5e7a66065e1259e906755d38d0d4fd641f9396fb75e",
    ),
    (
        (1, 30, 3, 2, 0.0),
        "0f3c948bd78a8b8bd479a75c6e8ccc3af6c75f9f4a0153ad70fb8042e3477d5e",
        "ed509249095e809153e426afcd0edf8205cb06944f3e3289bf67f4901a8be9ee",
    ),
]


@pytest.mark.parametrize("args, xs_digest, labels_digest", BLOBS_BYTES, ids=[str(a[0]) for a in BLOBS_BYTES])
def test_blobs_bytes_pinned(args, xs_digest, labels_digest):
    seed, n, classes, dim, spread = args
    data = make_blobs(seed=seed, n=n, classes=classes, dim=dim, spread=spread)
    assert data.xs.dtype == np.float64 and data.xs.shape == (n, dim)
    assert data.labels.dtype == np.int64
    assert hashlib.sha256(data.xs.tobytes()).hexdigest() == xs_digest
    assert hashlib.sha256(data.labels.tobytes()).hexdigest() == labels_digest


def test_blobs_validation():
    with pytest.raises(ValueError):
        make_blobs(seed=0, n=1, classes=2, dim=2, spread=0.1)
    with pytest.raises(ValueError):
        make_blobs(seed=0, n=10, classes=1, dim=2, spread=0.1)


def test_blobs_csv_shape():
    data = make_blobs(seed=0, n=10, classes=2, dim=3, spread=0.2)
    lines = data.to_csv().strip().splitlines()
    assert lines[0] == "x0,x1,x2,label"
    assert len(lines) == 11
    cells = lines[1].split(",")
    assert len(cells) == 4
    float(cells[0])  # parses


# -- minibatch contract -------------------------------------------------------------

def test_minibatch_full_batch_equals_evaluate():
    task = small_mlp(n=90)
    x = task.initial_params()
    full_loss, full_grad = task.evaluate(x)
    batch_loss, batch_grad = task.minibatch(x, np.arange(90))
    assert batch_loss == full_loss
    assert np.array_equal(batch_grad.values, full_grad.values)


def test_singleton_batches_average_to_full_gradient():
    task = small_mlp(n=90)
    x = task.initial_params()
    _, full_grad = task.evaluate(x)
    acc = np.zeros(task.partition.p)
    total = 0.0
    for i in range(90):
        loss_i, gi = task.minibatch(x, np.array([i]))
        acc += gi.values
        total += loss_i
    acc /= 90
    rel = np.linalg.norm(acc - full_grad.values) / np.linalg.norm(full_grad.values)
    assert rel < 1e-12
    full_loss, _ = task.evaluate(x)
    assert total / 90 == pytest.approx(full_loss, rel=1e-12)


def test_minibatch_rejects_bad_indices():
    task = small_mlp(n=30)
    x = task.initial_params()
    with pytest.raises(ValueError):
        task.minibatch(x, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        task.minibatch(x, np.array([30]))
    with pytest.raises(ValueError):
        task.minibatch(x, np.array([-1]))


def test_gradient_noise_positive_and_reported():
    task = small_mlp(n=60)
    sigma2 = task.gradient_noise(task.initial_params())
    assert sigma2 > 0


def test_loss_scale_multiplies_loss_and_gradient():
    base = small_mlp(n=60)
    scaled = small_mlp(n=60, loss_scale=1e3)
    x = base.initial_params()
    f1, g1 = base.evaluate(x)
    f2, g2 = scaled.evaluate(x)
    assert f2 == pytest.approx(1e3 * f1, rel=1e-15)
    np.testing.assert_allclose(g2.values, 1e3 * g1.values, rtol=1e-15)


def test_mlp_partition_shapes():
    task = small_mlp(hidden=5)
    assert task.partition.names == ("W1", "b1", "W2", "b2")
    assert task.partition.shape(0) == (5, 2)
    assert task.partition.shape(2) == (3, 5)
    no_bias = small_mlp(hidden=5, with_bias=False)
    assert no_bias.partition.names == ("W1", "W2")
    assert all(no_bias.partition.rank(k) == 2 for k in range(2))


def test_mlp_accuracy_at_init_is_not_degenerate():
    task = small_mlp(n=300)
    acc = task.accuracy(task.initial_params())
    assert 0.0 <= acc <= 1.0


def test_convergence_landscapes_are_nonnegative():
    rng = np.random.default_rng(17)
    part = BlockPartition.of([("a", (3,)), ("b", (2, 2))])
    quad = Quadratic(part, smoothness=2.0)
    task = small_mlp(n=60)
    x0 = task.initial_params()
    for _ in range(50):
        value, _ = quad.evaluate(BlockedVector(rng.uniform(-3, 3, part.p), part))
        assert value >= 0.0
        x = BlockedVector(x0.values + rng.standard_normal(task.partition.p), task.partition)
        loss, _ = task.evaluate(x)
        assert loss >= 0.0


# -- the oracle against a reference copy of its earlier form ------------------------

def _reference_loss_and_grad(self, x, idx):
    # The forward/backward pass as it was before MlpTask kept scratch
    # arrays, copied verbatim (with ``self`` the task).  The current pass
    # must agree with it bit for bit: every trace digest depends on it.
    w1, b1, w2, b2 = self._unpack(x)
    xb = self.dataset.xs[idx]
    yb = self.dataset.labels[idx]
    batch = xb.shape[0]

    z1 = xb @ w1.T + b1
    h = np.tanh(z1)
    z2 = h @ w2.T + b2

    zmax = z2.max(axis=1, keepdims=True)
    shifted = z2 - zmax
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + zmax[:, 0]
    loss = float(np.mean(logsumexp - z2[np.arange(batch), yb]))

    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    gz2 = probs
    gz2[np.arange(batch), yb] -= 1.0
    gz2 /= batch

    gw2 = gz2.T @ h
    gb2 = gz2.sum(axis=0)
    gh = gz2 @ w2
    gz1 = gh * (1.0 - h * h)
    gw1 = gz1.T @ xb
    gb1 = gz1.sum(axis=0)

    arrays = [gw1]
    if self.with_bias:
        arrays.append(gb1)
    arrays.append(gw2)
    if self.with_bias:
        arrays.append(gb2)
    grad = from_blocks(self.partition, arrays)
    if self.loss_scale != 1.0:
        loss = loss * self.loss_scale
        grad.values *= self.loss_scale
    return loss, grad


def _assert_same(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1].values, want[1].values)


# (n, classes, hidden, input dim, with_bias, loss_scale).  The last six are
# shapes where numpy changes its reduction order: row sums turn pairwise
# from 8 classes, column sums behave differently at hidden = 1, and with
# n <= 128 every minibatch is a permuted full-size batch.
ORACLE_CASES = [
    (2000, 2, 16, 1, True, 1.0),
    (2000, 5, 16, 3, False, 3.0),
    (2000, 3, 16, 2, True, 3.0),
    (2000, 5, 16, 1, False, 1.0),
    (2000, 9, 16, 2, True, 1.0),
    (2000, 3, 1, 2, True, 1.0),
    (120, 3, 8, 2, True, 1.0),
    (120, 9, 1, 3, False, 3.0),
    (300, 12, 5, 1, True, 1.0),
    (50, 2, 1, 1, False, 1.0),
]


def _oracle_case_id(case):
    # cases at n = 2000, hidden = 16 keep the ids they had before n and hidden were parameters
    n, classes, hidden, dim, with_bias, loss_scale = case
    short = f"{classes}-{dim}-{with_bias}-{loss_scale}"
    return short if (n, hidden) == (2000, 16) else f"n{n}-h{hidden}-{short}"


@pytest.mark.parametrize(
    "n, classes, hidden, dim, with_bias, loss_scale", ORACLE_CASES, ids=list(map(_oracle_case_id, ORACLE_CASES))
)
def test_oracle_bit_identical_to_reference(n, classes, hidden, dim, with_bias, loss_scale):
    batch = 128
    dataset = make_blobs(seed=classes + dim, n=n, classes=classes, dim=dim, spread=0.3)
    task = MlpTask(dataset, hidden=hidden, init_seed=dim, loss_scale=loss_scale, with_bias=with_bias)
    rng = np.random.default_rng(classes * 10 + dim)
    order = rng.permutation(n)
    batches = max(n // batch, 1)
    last = order[(n // batch) * batch :]
    assert last.size == n % batch  # 80 at n = 2000
    x0 = task.initial_params().values
    for k in range(30):
        # points near the start and far from it (saturated tanh, large logits)
        scale = (0.1, 1.0, 5.0)[k % 3]
        x = BlockedVector(x0 + scale * rng.standard_normal(x0.size), task.partition)
        _assert_same(task.evaluate(x), _reference_loss_and_grad(task, x, np.arange(n)))
        idx = order[(k % batches) * batch :][:batch]
        _assert_same(task.minibatch(x, idx), _reference_loss_and_grad(task, x, idx))
        _assert_same(task.minibatch(x, last), _reference_loss_and_grad(task, x, last))
        # one row, as gradient_noise draws it
        row = order[k : k + 1]
        _assert_same(task.minibatch(x, row), _reference_loss_and_grad(task, x, row))
        if k % 10 == 0:
            _assert_same(task.minibatch(x, order), _reference_loss_and_grad(task, x, order))


def test_oracle_gradients_do_not_alias_scratch_arrays():
    task = small_mlp(n=200)
    x1 = task.initial_params()
    x2 = BlockedVector(2.0 * x1.values + 0.5, task.partition)
    loss1, g1 = task.evaluate(x1)
    kept = g1.values.copy()
    task.evaluate(x2)
    task.minibatch(x2, np.arange(200))
    task.minibatch(x2, np.arange(7))
    assert np.array_equal(g1.values, kept)
    again = task.evaluate(x1)
    assert again[0] == loss1
    assert np.array_equal(again[1].values, kept)
    # kept minibatch scratch arrays give a fresh task's bits, before and after a full batch
    idx = np.arange(128) * 3 % 200
    loss_want, g_want = small_mlp(n=200).minibatch(x2, idx)
    first = task.minibatch(x2, idx)
    task.evaluate(x1)
    second = task.minibatch(x2, idx)
    for loss, g in (first, second):
        assert loss == loss_want
        assert g.values.tobytes() == g_want.values.tobytes()
