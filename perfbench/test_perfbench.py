"""Tests of the benchmark itself: traced counts repeat, tracing restores singopt, probes scale.

Run from the root of a checkout (takes about a minute):

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.pin_blas_threads()  # the recorded digests hold at this thread count
workloads.use_checkout_source()

import run  # noqa: E402
import tracing  # noqa: E402

COUNT_SUFFIXES = (".calls", ".draws", "_per_step", ".mb_computed", ".bytes")


def _counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items() if name.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", workloads.TRAINING)
def test_traced_counts_repeat_and_reproduce_untraced_trace(name, tmp_path):
    workload = workloads.make(name, 0)
    untraced = workload.run_once(workload.prepare(), tmp_path / "untraced.csv")
    first, traced = run.traced_run(workload, tmp_path)
    second, _ = run.traced_run(workload, tmp_path)

    assert traced.digest == untraced.digest
    assert traced.failed == 0
    assert _counts(first) == _counts(second)
    assert first["standardize.centralize_per_step"] == 2.0
    if name == "mlp-readme":
        assert first["landscapes.oracle_per_step"] == 1.0
    else:
        assert first["rng.normals.draws"] == 65536


def _bindings() -> dict:
    """Identity of every singopt module global and class attribute."""
    import singopt.verify  # noqa: F401  (loads every module the tracer patches)

    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "singopt" and not mod_name.startswith("singopt."):
            continue
        for attr, value in vars(mod).items():
            seen[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    seen[(mod_name, attr, cls_attr)] = id(cls_value)
    return seen


def test_uninstall_restores_every_binding():
    from singopt import optimizers, runner, standardize

    before = _bindings()
    step, centralize, transform = runner.step, standardize.centralize, optimizers.sing_transform
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert runner.step is not step and runner.step.__wrapped__ is step
            # the runner's logging call is told apart from the transform's call
            assert runner.centralize is not standardize.centralize
            assert runner.centralize.__wrapped__ is standardize.centralize.__wrapped__ is centralize
            assert optimizers.sing_transform.__wrapped__ is transform
            raise ZeroDivisionError
    assert _bindings() == before


def test_interleaved_scales_each_call_by_the_probes_around_it(monkeypatch):
    probes = iter([0.35, 0.70, 0.35])
    monkeypatch.setattr(run, "probe_s", lambda: next(probes))
    calls = iter([(2.0, "a"), (3.0, "b")])
    samples = run.interleaved(lambda: next(calls), lambda done: len(done) < 2)

    assert [(s.seconds, s.probe_before, s.probe_after, s.result) for s in samples] == [
        (2.0, 0.35, 0.70, "a"),
        (3.0, 0.70, 0.35, "b"),
    ]
    assert samples[0].scaled == pytest.approx(2.0 * run.PROBE_REF_S / 0.525)
    # a probe that takes twice its reference time halves the time of the call
    assert run.Sample(3.0, 2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S).scaled == pytest.approx(1.5)
