"""Time one fresh set-up of a workload; print the seconds on stdout.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` starts this script several times per run, each in a fresh
interpreter, because ``import singopt`` is only paid once per process.
numpy is imported before the clock starts, so the figure is singopt's own.
"""

import sys

import numpy  # noqa: F401  (outside the timed region on purpose)

import workloads


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    workloads.use_checkout_source()
    seconds = workloads.time_setup(name, seed)
    workloads.check_origin()
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
