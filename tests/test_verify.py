import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from singopt import verify
from singopt.config import parse_config
from singopt.demo import run_escape_demo
from singopt.landscapes import MlpTask
from singopt.optimizers import lr_at
from singopt.runner import build_task, run_experiment
from singopt.trace import RunTrace
from singopt.verify import MANIFEST, SUITES, run_suite

SRC = str(Path(verify.__file__).parents[1])


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    records = run_suite(suite)
    assert records
    assert all(rec.check.startswith(f"{suite}.") for rec in records), [rec.check for rec in records]
    failing = [rec for rec in records if not rec.passed]
    assert not failing, [(rec.check, rec.lhs, rec.rhs) for rec in failing]


def test_manifest_matches_suites():
    assert set(MANIFEST) == set(SUITES)


def test_sub_threshold_lr_stays_in_first_well():
    # contrapositive-style observation: with a starting step size below every
    # single-step escape threshold, the standardized run falls into the first
    # well on its path and never leaves (empirical, not an implication of the
    # escape bound, which is one-directional)
    from singopt.landscapes import GaussianWells1D
    from singopt.theory import estimate_basin_radius

    land = GaussianWells1D.default()
    minima = land.local_minima()
    first = minima[0]
    radii = [
        estimate_basin_radius(land, land.as_point(m), r_max=4.0, n_radial=4000)
        for m in minima[:2]
    ]
    eta0 = 0.9 * 2.0 * min(radii)  # below 2 r / sqrt(D) for every narrow well
    cfg = parse_config(
        "task.kind = wells1d\ntask.start = -6.0\noptimizer.kind = sgd\n"
        "sing.enabled = true\nsing.epsilon = 0.0\nschedule.kind = cosine\n"
        f"schedule.base_lr = {eta0!r}\nschedule.total_steps = 400\n"
    )
    result = run_experiment(land, land.as_point(-6.0), cfg)
    final_x = float(result.final_params.values[0])
    assert abs(final_x - first) <= radii[0]


def test_escape_demo_full_grid_recorded():
    demo = run_escape_demo(total_steps=200)
    assert set(demo.sgd_all) == {1e-3, 1e-2, 1e-1}
    assert demo.sgd_lr in demo.sgd_all
    best_loss = demo.sgd.trace.loss[-1]
    assert all(best_loss <= res.trace.loss[-1] for res in demo.sgd_all.values())


def test_convergence_trace_headers_reproduce_their_runs(monkeypatch):
    runs = []

    def spy(landscape, x0, setup, batcher=None):
        result = run_experiment(landscape, x0, setup, batcher)
        runs.append((landscape, x0, setup, result.trace))
        return result

    monkeypatch.setattr(verify, "run_experiment", spy)
    verify.check_convergence(seed=0)
    assert len(runs) == 6  # four quadratic audits, two MLP audits
    for landscape, x0, setup, trace in runs:
        written = RunTrace.loads(trace.dumps())
        header = parse_config("\n".join(f"{k} = {v}" for k, v in written.config.items()))
        assert header.schedule == setup.schedule
        assert header.pipeline == setup.pipeline
        assert header.seed == setup.seed == written.seed
        assert trace.steps == header.schedule.total_steps
        assert np.array_equal(trace.lr, [lr_at(header.schedule, t) for t in range(trace.steps)])

        task, task_x0, batcher = build_task(header)
        assert task.partition == landscape.partition
        if isinstance(landscape, MlpTask):  # the quadratic audits draw their own start point
            assert task.dataset.xs.tobytes() == landscape.dataset.xs.tobytes()
            assert task.dataset.labels.tobytes() == landscape.dataset.labels.tobytes()
            assert task_x0.values.tobytes() == x0.values.tobytes()
            assert run_experiment(task, task_x0, header, batcher).trace.dumps() == trace.dumps()


def test_fd_check_catches_a_slightly_wrong_mlp_gradient(monkeypatch):
    # the fd oracle differences ``MlpTask.losses``, which shares the
    # forward pass but not ``_loss_and_grad``, so an analytic gradient off
    # by 0.1% must still fail its check
    original = MlpTask._loss_and_grad

    def skewed(self, *args):
        loss, grad = original(self, *args)
        return loss, grad * (1.0 + 1e-3)

    monkeypatch.setattr(MlpTask, "_loss_and_grad", skewed)
    records = {rec.check: rec for rec in verify.check_gradients(seed=0)}
    assert not records["gradients.fd_mlp"].passed
    assert records["gradients.fd_mlp"].lhs > 5e-4
    assert records["gradients.fd_quadratic"].passed


def test_check_gradients_records_are_pinned():
    # recorded with numpy 2.4 on x86-64 (OpenBLAS at 1 and 2 threads); the
    # fd oracle's speed-ups must not move a bit of fd_mlp's lhs
    text = "".join(json.dumps(rec.as_json_dict(), sort_keys=True) + "\n" for rec in verify.check_gradients(seed=12))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "2529d81eb70c2eac2faac671c725bf55e56f8b1ce45f1eee6853891515015d42"
    )


def test_importing_verify_loads_no_json():
    # the benchmark's set-up imports singopt.verify; json loads only when a report is written
    code = "import sys, singopt.verify; assert 'json' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})

