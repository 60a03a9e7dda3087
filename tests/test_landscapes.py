import hashlib
import tracemalloc

import numpy as np
import pytest

from singopt import landscapes, verify
from singopt.blocked import BlockPartition, BlockedVector, from_blocks
from singopt.landscapes import (
    BlobsDataset,
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


def test_wells_default_offset_is_pinned():
    # minus the lowest F over the bisected minima and the scan ends; the
    # escape-demo traces and every wells1d trace depend on its bits
    assert GaussianWells1D.default().offset == 1.8774524267312875


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


def _scan_and_bisect_minima(land):
    """Reference minima: a Python scan for slope sign changes, then 200 bisection steps each."""
    lo, hi, n = land.SCAN
    xs = np.linspace(lo, hi, n)
    sl = land.slope(xs)
    minima = []
    for i in range(n - 1):
        if sl[i] < 0.0 <= sl[i + 1]:
            a, b = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (a + b)
                if land.slope(mid) < 0.0:
                    a = mid
                else:
                    b = mid
            minima.append(0.5 * (a + b))
    return minima


def _golden_section_raw_min(land):
    """Reference lowest F: the grid argmin, polished by golden-section search."""
    lo, hi, n = land.SCAN
    xs = np.linspace(lo, hi, n)
    best = int(np.argmin(land._raw(xs)))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, n - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    f = land._raw
    for _ in range(120):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return float(min(f(a), f(b), f(c), f(d)))


def _random_wells(seed):
    # 1-4 wells, some centred outside the scan; every fourth instance has no quadratic background
    rng = np.random.default_rng(seed)
    wells = [
        Well(float(rng.uniform(0.1, 3.0)), float(rng.uniform(-13.0, 13.0)), float(rng.uniform(0.05, 2.0)))
        for _ in range(int(rng.integers(1, 5)))
    ]
    curvature = 0.0 if seed % 4 == 0 else float(rng.uniform(0.0, 0.1))
    return GaussianWells1D(curvature, wells)


def _bits(xs):
    return [np.float64(x).tobytes() for x in xs]


def test_wells_minima_and_offset_match_the_reference_searches():
    # a minimum at 0, where floats are dense, ends its bisection after 200 halvings
    lands = [GaussianWells1D.default(), GaussianWells1D(0.0, [Well(1.0, 0.0, 0.25)])]
    lands += [_random_wells(seed) for seed in range(100)]
    lo, hi, n = GaussianWells1D.SCAN
    grid = np.linspace(lo, hi, n)
    for land in lands:
        assert _bits(land.local_minima()) == _bits(_scan_and_bisect_minima(land))
        old = -_golden_section_raw_min(land)
        assert abs(land.offset - old) <= 1e-15 * max(1.0, abs(old))
        assert land.value(grid).min() >= -1e-12


def test_wells_without_minima_take_the_offset_from_the_scan():
    flat = GaussianWells1D(0.0, [])
    assert flat.offset == 0.0 and flat.local_minima() == []
    # a lone well centred right of the scan: F falls toward the right end
    lone = GaussianWells1D(0.0, [Well(1.0, 14.0, 1.0)])
    assert lone.local_minima() == []
    assert lone.offset == -float(lone._raw(GaussianWells1D.SCAN[1]))
    assert lone.offset > -float(lone._raw(GaussianWells1D.SCAN[0]))


def test_wells_local_minima_is_a_fresh_list():
    land = GaussianWells1D.default()
    first = land.local_minima()
    first.append(0.0)
    second = land.local_minima()
    assert len(second) == 3 and second is not land.local_minima()


def test_wells_default_is_built_once_and_shared():
    assert GaussianWells1D.default() is GaussianWells1D.default()


def test_wells_floats_and_arrays_give_the_same_bits():
    # a float and an array square ``x - center`` the same way, so the scalar
    # calls, ``evaluate`` and a batched grid agree bit for bit
    land = GaussianWells1D.default()
    xs = np.linspace(-12, 12, 20001)
    slopes, values = land.slope(xs), land.value(xs)
    assert _bits(slopes) == _bits([land.slope(x) for x in xs])
    assert _bits(values) == _bits([land.value(x) for x in xs])
    evaluated = [land.evaluate(land.as_point(x)) for x in xs]
    assert _bits(values) == _bits([value for value, _ in evaluated])
    assert _bits(slopes) == _bits([grad.values[0] for _, grad in evaluated])


def test_wells_gradients_equal_evaluate_bit_for_bit():
    land = GaussianWells1D.default()
    xs = np.linspace(-12, 12, 20001)
    got = land.gradients(xs[:, None])
    assert got.shape == (xs.size, 1)
    assert got.tobytes() == np.array([land.evaluate(land.as_point(x))[1].values for x in xs]).tobytes()


# the base class's loop over ``evaluate``: a rank-2 block, Rosenbrock and the check suite's MLP
GRADIENTS_CASES = {
    "quadratic-rank-2": (lambda: Quadratic(BlockPartition.of([("a", (3,)), ("w", (2, 2))]), smoothness=1.5), 2.0),
    "rosenbrock": (Rosenbrock, 1.5),
    "mlp-check-suite": (verify._small_mlp, 0.5),
}


@pytest.mark.parametrize("name", GRADIENTS_CASES)
def test_gradients_equal_evaluate_bit_for_bit(name):
    make, scale = GRADIENTS_CASES[name]
    land = make()
    start = land.initial_params().values if isinstance(land, MlpTask) else np.zeros(land.partition.p)
    points = start + np.random.default_rng(len(name)).uniform(-scale, scale, (9, land.partition.p))
    want = np.array([land.evaluate(BlockedVector(row, land.partition))[1].values for row in points])
    assert land.gradients(points).tobytes() == want.tobytes()
    assert land.gradients(points[:0]).shape == (0, land.partition.p)


@pytest.mark.parametrize("name", ["wells1d", "quadratic"])
def test_gradients_refuse_a_non_finite_row(name):
    # at 1e200 the wells' slope is finite but their value is not: evaluate refuses the point
    land = GaussianWells1D.default() if name == "wells1d" else Quadratic(BlockPartition.of([("x", (1,))]))
    points = np.array([[0.5], [1e200], [0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError):
            land.evaluate(BlockedVector(points[1], land.partition))
        with pytest.raises(EvaluationError, match="row 1 of 3" if name == "wells1d" else None):
            land.gradients(points)


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
    # every result is an array of its own: later evaluations, minibatches,
    # losses and accuracy leave earlier results as they were, and give a
    # fresh task's bits
    task = small_mlp(n=200)
    x1 = task.initial_params()
    x2 = BlockedVector(2.0 * x1.values + 0.5, task.partition)
    points = np.vstack([x1.values, x2.values, x1.values - 0.25])
    fresh = small_mlp(n=200)
    losses_want, accuracy_want = fresh.losses(points).tobytes(), fresh.accuracy(x2)

    def losses_and_accuracy_match_a_fresh_task():
        assert task.losses(points).tobytes() == losses_want
        assert task.accuracy(x2) == accuracy_want

    loss1, g1 = task.evaluate(x1)
    kept = g1.values.copy()
    task.evaluate(x2)
    losses_and_accuracy_match_a_fresh_task()
    task.minibatch(x2, np.arange(200))
    task.minibatch(x2, np.arange(7))
    assert np.array_equal(g1.values, kept)
    again = task.evaluate(x1)
    assert again[0] == loss1
    assert np.array_equal(again[1].values, kept)
    # a minibatch gives a fresh task's bits, before and after a full batch
    idx = np.arange(128) * 3 % 200
    loss_want, g_want = small_mlp(n=200).minibatch(x2, idx)
    first = task.minibatch(x2, idx)
    losses_and_accuracy_match_a_fresh_task()
    task.evaluate(x1)
    second = task.minibatch(x2, idx)
    for loss, g in (first, second):
        assert loss == loss_want
        assert g.values.tobytes() == g_want.values.tobytes()


def _task_state(task):
    """Every attribute of ``task``; arrays, the dataset's too, by dtype, shape and bytes."""

    def frozen(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, BlobsDataset):
            return tuple(frozen(getattr(value, name)) for name in ("seed", "xs", "labels", "spread"))
        if isinstance(value, dict):
            return {key: frozen(item) for key, item in value.items()}
        return value

    return {key: frozen(value) for key, value in vars(task).items()}


def test_evaluation_leaves_the_task_as_it_was():
    task = small_mlp(n=60)
    before = _task_state(task)
    x = task.initial_params()
    task.evaluate(x)
    for batch in range(1, 61):
        task.minibatch(x, np.arange(batch))
    task.losses(np.vstack([x.values, 0.5 * x.values]))
    task.accuracy(x)
    task.gradient_noise(x)
    after = _task_state(task)
    assert after.keys() == before.keys()
    assert after == before


# -- stacked losses and the batched finite-difference oracle ------------------------

def _reference_fd_gradient(landscape, x, h):
    # fd_gradient as it was before ``losses``, copied verbatim: two full
    # evaluations per coordinate.  The batched oracle must agree bit for bit.
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


def _losses_task(n, classes, hidden, dim, with_bias, loss_scale):
    if n < classes:  # make_blobs needs n >= classes: one point, labelled with the last class
        xs = np.linspace(-1.0, 1.0, dim)[None, :]
        dataset = BlobsDataset(seed=0, xs=xs, labels=np.array([classes - 1]), spread=0.0)
    else:
        dataset = make_blobs(seed=classes + dim, n=n, classes=classes, dim=dim, spread=0.3)
    return MlpTask(dataset, hidden=hidden, init_seed=dim, loss_scale=loss_scale, with_bias=with_bias)


def _stacked_points(task, m, seed):
    # rows near the start and far from it (saturated tanh, large logits)
    rng = np.random.default_rng(seed)
    x0 = task.initial_params().values
    scales = np.array([0.1, 1.0, 5.0])[np.arange(m) % 3, None]
    return x0 + scales * rng.standard_normal((m, x0.size))


# (n, classes, hidden, input dim, with_bias, loss_scale)
LOSSES_CASES = [
    (1, 3, 8, 2, True, 1.0),
    (1, 2, 1, 1, False, 3.0),
    (50, 2, 1, 1, False, 1.0),
    (50, 9, 8, 3, True, 3.0),
    (120, 3, 8, 2, True, 1.0),
    (120, 9, 1, 3, False, 3.0),
    (2000, 3, 16, 2, True, 1.0),
    (2000, 9, 8, 3, True, 3.0),
    (2000, 2, 1, 1, False, 1.0),
]


@pytest.mark.parametrize("rows_per_chunk", [None, 3], ids=["module-chunks", "3-row-chunks"])
@pytest.mark.parametrize("case", LOSSES_CASES, ids=["n{}-c{}-h{}-d{}-{}-{}".format(*c) for c in LOSSES_CASES])
def test_mlp_losses_bit_identical_to_evaluate(monkeypatch, case, rows_per_chunk):
    task = _losses_task(*case)
    n, hidden = case[0], case[2]
    if rows_per_chunk:
        monkeypatch.setattr(landscapes, "_LOSSES_CHUNK_ELEMENTS", rows_per_chunk * n * hidden)
    # 71 rows are three chunks or more at n * hidden >= 960 (the check suite's task)
    points = _stacked_points(task, 7 if rows_per_chunk else 71, seed=n + hidden)
    got = task.losses(points)
    want = np.array([task.evaluate(BlockedVector(row, task.partition))[0] for row in points])
    assert got.tobytes() == want.tobytes()


FD_CASES = {
    "quadratic": (lambda: Quadratic(BlockPartition.of([("a", (3,)), ("b", (2, 2))])), 1.0),
    # p = 400: more coordinates than one batch of perturbed points holds
    "quadratic-wide": (lambda: Quadratic(BlockPartition.of([("w", (20, 20))]), smoothness=3.0), 1.0),
    "rosenbrock": (Rosenbrock, 1.5),
    "wells1d": (GaussianWells1D.default, 5.0),
    "mlp": (lambda: small_mlp(n=120), 0.5),
    "mlp-nobias-scaled": (lambda: small_mlp(n=50, hidden=3, with_bias=False, loss_scale=3.0), 2.0),
}


@pytest.mark.parametrize("name", FD_CASES)
def test_fd_gradient_bit_identical_to_per_coordinate_loop(name):
    make, scale = FD_CASES[name]
    land = make()
    rng = np.random.default_rng(len(name))
    start = land.initial_params().values if isinstance(land, MlpTask) else np.zeros(land.partition.p)
    for _ in range(4):
        x = BlockedVector(start + rng.uniform(-scale, scale, land.partition.p), land.partition)
        for h in (1e-5, 0.1):
            got = fd_gradient(land, x, h=h)
            assert got.partition == x.partition
            assert got.values.tobytes() == _reference_fd_gradient(land, x, h).values.tobytes()


def test_fd_gradient_makes_one_losses_call_and_no_evaluations(monkeypatch):
    task = small_mlp(n=120)
    calls = []
    original = MlpTask.losses
    monkeypatch.setattr(MlpTask, "losses", lambda self, points: calls.append(points.shape) or original(self, points))
    monkeypatch.setattr(MlpTask, "evaluate", lambda self, x: pytest.fail("fd_gradient evaluated a gradient"))
    fd_gradient(task, task.initial_params(), h=1e-5)
    p = task.partition.p
    assert calls == [(2 * p, p)]


def test_fd_gradient_rejects_a_foreign_partition():
    land = Quadratic(BlockPartition.of([("a", (3,))]))
    other = BlockedVector(np.zeros(3), BlockPartition.of([("b", (3,))]))
    with pytest.raises(ValueError, match="partition mismatch"):
        fd_gradient(land, other, h=1e-5)


FOREIGN_CASES = {
    "quadratic": lambda: Quadratic(BlockPartition.of([("a", (3,)), ("b", (2, 2))])),
    "rosenbrock": Rosenbrock,
    "wells1d": GaussianWells1D.default,
    "mlp": lambda: small_mlp(n=30),
}


@pytest.mark.parametrize("name", FOREIGN_CASES)
def test_evaluate_rejects_a_foreign_partition(name):
    land = FOREIGN_CASES[name]()
    p = land.partition.p
    # the same size under another name, and one element more
    for part in (BlockPartition.of([("other", (p,))]), BlockPartition.of([("other", (p + 1,))])):
        with pytest.raises(ValueError, match="partition mismatch"):
            land.evaluate(BlockedVector(np.zeros(part.p), part))


@pytest.mark.parametrize("name", FOREIGN_CASES)
def test_batch_oracles_take_only_m_by_p_arrays(name):
    land = FOREIGN_CASES[name]()
    p = land.partition.p
    for points in (np.zeros(p), np.zeros(3), np.zeros((2, p + 1)), np.zeros((1, 2, p))):
        for oracle in (land.losses, land.gradients):
            with pytest.raises(ValueError, match=rf"points must have shape \(m, {p}\)"):
                oracle(points)


def test_non_finite_loss_raises_from_losses_and_fd_gradient():
    task = small_mlp(n=60)
    x0 = task.initial_params().values
    points = np.vstack([x0, np.full(x0.size, np.nan), x0])
    with pytest.raises(EvaluationError, match="row 1 of 3"):
        task.losses(points)
    huge = BlockedVector(np.full(x0.size, 1e308), task.partition)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError):
            task.evaluate(huge)
        with pytest.raises(EvaluationError):
            fd_gradient(task, huge, h=1e-5)


def test_fd_gradient_memory_on_a_readme_sized_task():
    # 198 perturbed points of the README task: stacked at once, the hidden
    # activations alone would be 2p * n * hidden * 8 bytes, about 50 MB
    task = MlpTask(make_blobs(seed=0, n=2000, classes=3, dim=2, spread=0.3), hidden=16)
    x = task.initial_params()
    tracemalloc.start()
    try:
        fd_gradient(task, x, h=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
