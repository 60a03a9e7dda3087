"""singopt benchmark: one workload, timed from outside, plus an optional traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mlp-readme --seed 0 --seconds 40 --trace 0

``BENCHMARK.json`` lists the workloads ``mlp-readme`` and ``check-all``;
``quad-wide`` runs the same way by hand (see ``workloads.py`` and
``NOTES.md``).  One run, in one single-threaded process:

1. with ``--trace 0``, time the set-up in at least 5 fresh interpreters
   (``setup_probe.py``), for at least 3 s;
2. set up once more and run one operation, both untimed (the first
   operation in a process is often the slowest), then repeat the workload's
   operation, one caller in a closed loop, until ``--seconds`` have passed,
   checking every output;
3. with ``--trace 1``, set up and run one more operation with every singopt
   layer boundary wrapped (``tracing.py``), and report per-layer metrics.

The speed of the machine drifts by a quarter and more within minutes, so
every timed set-up and operation sits between two timings of a fixed
probe (``probe_s``), and is scaled to the speed at which the probe takes
``PROBE_REF_S``.  ``setup_s`` and ``run_s`` are the medians of the scaled
times; the measured medians, the probe times and ``tracing_overhead_s``
(traced minus untraced measured time) are printed on ``#`` comment lines.

It prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Outputs go
to ``.perfbench_out/`` in the checkout.  A checkout without ``src/singopt``
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# set-up is timed at least SETUP_SAMPLES times and for at least SETUP_SECONDS
SETUP_SAMPLES = 5
SETUP_SECONDS = 3.0
# the probe's time at the reference speed, to which run_s and setup_s are scaled
PROBE_REF_S = 0.35
PROBE_STEPS = 800


def probe_s() -> float:
    """Time a fixed reference workload: a small numpy MLP trained by SGD.

    It lives here, not in singopt, so no change to the program moves it.
    Its mix is that of the operations: bytecode, numpy calls on arrays of a
    few thousand elements, and 256 KB temporaries.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 2))
    y = rng.integers(0, 3, 2000)
    w1 = rng.standard_normal((2, 16)) * 0.3
    w2 = rng.standard_normal((16, 3)) * 0.3
    rows = np.arange(128)
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        idx = rng.permutation(2000)[:128]
        xb = x[idx]
        h = np.tanh(xb @ w1)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y[idx]] -= 1.0
        g2 = h.T @ p / 128
        g1 = xb.T @ ((p @ w2.T) * (1.0 - h * h)) / 128
        for g in (g1, g2):
            g -= g.mean()
            g /= np.linalg.norm(g) + 1e-8
        w1 -= 1e-3 * g1
        w2 -= 1e-3 * g2
        full = np.tanh(x @ w1) @ w2
        float(np.log(np.exp(full - full.max(axis=1, keepdims=True)).sum(axis=1)).mean())
    return time.perf_counter() - start


@dataclass
class Sample:
    """One timed call, with the probe timed just before and just after it."""

    seconds: float
    probe_before: float
    probe_after: float
    result: object = None

    @property
    def scaled(self) -> float:
        """``seconds`` at the reference speed, at which the probe takes ``PROBE_REF_S``."""
        return self.seconds * 2.0 * PROBE_REF_S / (self.probe_before + self.probe_after)


def interleaved(call, more) -> list[Sample]:
    """Time ``call()`` (it returns ``(seconds, result)``) while ``more(samples)`` holds, the probe between calls."""
    samples: list[Sample] = []
    before = probe_s()
    while more(samples):
        seconds, result = call()
        after = probe_s()
        samples.append(Sample(seconds, before, after, result))
        before = after
    return samples


def setup_samples(name: str, seed: int) -> list[Sample]:
    """Time fresh set-ups, at least ``SETUP_SAMPLES`` of them and for at least ``SETUP_SECONDS``."""

    def one():
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1]), None

    start = time.perf_counter()
    return interleaved(one, lambda done: len(done) < SETUP_SAMPLES or time.perf_counter() - start < SETUP_SECONDS)


def measure(workload, state, seconds: float, out: Path) -> list[Sample]:
    """Closed loop, one caller: run operations until ``seconds`` have passed."""

    def one():
        outcome = workload.run_once(state, out)
        return outcome.seconds, outcome

    start = time.perf_counter()
    return interleaved(one, lambda done: not done or time.perf_counter() - start < seconds)


def traced_run(workload, out_dir: Path):
    """Set up and run one operation with tracing on; return (layer metrics, outcome)."""
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        outcome = workload.run_once(workload.prepare(), out_dir / f"{workload.name}-traced.out")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.bytes"] = outcome.trace_bytes
    tracing.write_spans(tracer.spans, out_dir / f"{workload.name}-{workload.seed}-spans.csv")
    return metrics, outcome


def emit(spec: dict, key: str, values: dict, correct: bool, attempted: int, failed: int) -> None:
    """Print every value by name with its unit, then the result line with the metrics of ``spec[key]``."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = {m["name"] for m in spec[key]}
    for name in sorted(set(values) - names):
        # off the result line: layer times that read 0 on a workload that never calls the
        # layer, the measured (unscaled) medians, and the probe times and the tracing
        # overhead, which are not singopt's
        unit = units.get(name, "us" if name.endswith("_us") else "s")
        print(f"# {name} = {values[name]:.6g} {unit}")
    metrics = {}
    for m in spec[key]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.pin_blas_threads()  # before the first numpy import; set-up probes inherit it
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads.use_checkout_source()
        import numpy as np

        workloads.check_origin()
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed)

    setup = setup_samples(args.workload, args.seed) if not args.trace else []
    out = OUT / f"{args.workload}.out"
    state = workload.prepare()
    # one untimed operation first: the first one in a process is often the slowest
    warmup = workload.run_once(state, out)
    samples = measure(workload, state, args.seconds, out)
    outcomes = [sample.result for sample in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = statistics.median(o.seconds for o in outcomes)
    values = {
        "run_s": statistics.median(sample.scaled for sample in samples),
        "run_measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if setup:
        values["setup_s"] = statistics.median(sample.scaled for sample in setup)
        values["setup_measured_s"] = statistics.median(sample.seconds for sample in setup)
    values["host.probe_s"] = samples[0].probe_before
    values["host.probe_after_s"] = samples[-1].probe_after
    first = warmup.digest
    # every operation must reproduce the first one's bytes, traced or not
    failed = sum(o.failed or o.digest != first for o in [warmup] + outcomes)
    attempted = sum(o.attempted for o in [warmup] + outcomes)
    if args.trace:
        layers, traced = traced_run(workload, OUT)
        values.update(layers)
        values["tracing_overhead_s"] = traced.seconds - measured_s
        attempted += traced.attempted
        failed += traced.failed or traced.digest != first

    print(
        f"# {args.workload} seed={args.seed} cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={workloads.BLAS_THREADS} operations={len(outcomes)}"
    )
    print(f"# warm-up operation (untimed): {warmup.seconds:.4f} s")
    for name, taken in (("run_s", samples), ("setup_s", setup)):
        if taken:
            print(f"# {name} samples (measured s, scaled s, probe before s, probe after s):")
            for sample in taken:
                print(f"#   {sample.seconds:.4f} {sample.scaled:.4f} {sample.probe_before:.4f} {sample.probe_after:.4f}")
    print(f"# failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    emit(spec, "per_layer" if args.trace else "end_to_end", values, failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
