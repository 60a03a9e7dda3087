"""Record the trace digests that the benchmark checks training runs against.

Usage (from the root of a checkout):

    python3 perfbench/record_expected.py

For each training workload and each seed in ``0 .. SEEDS-1`` it runs one
operation and stores the sha256 of its trace bytes in ``expected.json``.
It prints the final loss of every run, the figure that ``max_final_loss``
bounds for seeds without a digest.  Re-record only when a change to the
program is meant to change the traces, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

SEEDS = 32


def main() -> int:
    workloads.pin_blas_threads()
    workloads.use_checkout_source()
    workloads.check_origin()
    from singopt.trace import RunTrace

    expected = workloads.EXPECTED
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        out = Path(tmp) / "trace.csv"
        for name in workloads.TRAINING:
            digests = {}
            for seed in range(SEEDS):
                workload = workloads.Training(name, seed)
                outcome = workload.run_once(workload.prepare(), out)
                final_loss = float(RunTrace.read(out).loss[-1])
                print(f"{name} seed={seed} final_loss={final_loss!r} sha256={outcome.digest}", flush=True)
                digests[str(seed)] = outcome.digest
            expected[name]["trace_sha256"] = digests
    path = workloads.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
