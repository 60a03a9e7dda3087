"""The benchmark's workloads: set-up, one timed operation, and its check.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation is

- ``mlp-readme`` / ``quad-wide``: ``runner.run_experiment`` on the config
  in ``configs/<name>.cfg`` plus writing its trace CSV;
- ``check-all``: the five ``verify`` suites plus writing the JSON-lines
  report that ``singopt check all`` writes.

This module imports only the standard library at import time, so that
``setup_probe.py`` can time ``import singopt`` after loading it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# Traces are byte-identical only at a fixed BLAS thread count: OpenBLAS
# splits long reductions across threads, which changes their rounding (the
# quad-wide trace differs between 1 and 2 threads).  One thread holds on
# every machine and is within any core count.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SUITES = ("lemmas", "invariance", "escape", "convergence", "gradients")
TRAINING = ("mlp-readme", "quad-wide")
NAMES = TRAINING + ("check-all",)


def pin_blas_threads() -> None:
    """Set the BLAS thread count; call before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


class SetupError(RuntimeError):
    """The checkout has no usable ``src/singopt``."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "singopt" / "__init__.py").is_file():
        raise SetupError(f"no singopt package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin() -> None:
    """Refuse a ``singopt`` imported from anywhere but this checkout."""
    import singopt

    origin = Path(singopt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"singopt was imported from {origin}, not from {SRC}")


def config_text(name: str) -> str:
    return (HERE / "configs" / f"{name}.cfg").read_text(encoding="utf-8")


def time_setup(name: str, seed: int) -> float:
    """Seconds for ``import singopt`` plus, for training, parsing and ``build_task``."""
    start = time.perf_counter()
    if name == "check-all":
        import singopt.verify  # noqa: F401
    else:
        import singopt  # noqa: F401
        from singopt import config, runner

        runner.build_task(config.parse_config(config_text(name), {"seed": str(seed)}))
    return time.perf_counter() - start


@dataclass
class Outcome:
    """One operation: its timed seconds, its check, and the digest of what it wrote."""

    seconds: float
    attempted: int
    failed: int
    digest: str
    trace_bytes: int = 0


class Training:
    """A ``singopt run`` workload; its trace bytes are checked against a digest."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        expected = EXPECTED[name]
        self.digest = expected["trace_sha256"].get(str(seed))
        self.max_final_loss = expected["max_final_loss"]

    def prepare(self):
        """Parse the config and build the task (looked up through the modules, so tracing sees it)."""
        from singopt import config, runner

        setup = config.parse_config(config_text(self.name), {"seed": str(self.seed)})
        return setup, runner.build_task(setup)

    def run_once(self, state, out: Path) -> Outcome:
        from singopt import runner

        setup, (landscape, x0, batcher) = state
        # the batcher's generator advances during a run; each run starts from a fresh copy
        batcher = copy.deepcopy(batcher)
        start = time.perf_counter()
        result = runner.run_experiment(landscape, x0, setup, batcher)
        result.trace.write(out)
        seconds = time.perf_counter() - start
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if result.diverged:
            ok = False
        elif self.digest is not None:
            ok = digest == self.digest
        else:
            ok = result.trace.rows[-1][2] <= self.max_final_loss
        return Outcome(seconds, 1, int(not ok), digest, len(data))


class CheckAll:
    """All five verification suites; every record that does not pass is a failure."""

    def __init__(self, seed: int):
        self.name = "check-all"
        self.seed = seed
        self.records = EXPECTED["check-all"]["records"]

    def prepare(self):
        return None

    def run_once(self, state, out: Path) -> Outcome:
        from singopt import verify

        start = time.perf_counter()
        records = []
        for suite in SUITES:
            # run_suite takes no seed, so call each suite the way it would
            try:
                records.extend(getattr(verify, f"check_{suite}")(seed=self.seed))
            except Exception as exc:  # a crashed suite is a failed record, as in run_suite
                records.append(
                    verify.CheckRecord(f"{suite}.suite_crashed", 1.0, 0.0, False, {"error": repr(exc)})
                )
        lines = [json.dumps({"manifest": s, "covers": verify.MANIFEST[s]}, sort_keys=True) for s in SUITES]
        lines += [json.dumps(rec.as_json_dict(), sort_keys=True) for rec in records]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        seconds = time.perf_counter() - start
        data = out.read_bytes()
        missing = max(0, self.records - len(records))
        failed = sum(not rec.passed for rec in records) + missing
        return Outcome(seconds, len(records) + missing, failed, hashlib.sha256(data).hexdigest())


def make(name: str, seed: int):
    if name in TRAINING:
        return Training(name, seed)
    if name == "check-all":
        return CheckAll(seed)
    raise KeyError(name)
