"""Command-line front end.

Subcommands:

* ``run --config FILE --out FILE [--seed N]``: run one experiment, write
  its trace.
* ``check SUITE [--report FILE] [--seed N]``: run a verification suite
  (seed 0 by default), emit a JSON-lines report (manifest lines first,
  then one line per check).
* ``escape-demo --out DIR``: the side-by-side narrow-well escape
  experiment; writes both traces and an overlay plot.
* ``plot --trace FILE [--trace FILE ...] --out FILE --cols a,b``: render
  trace columns as an SVG line plot.

Exit codes: 0 success, 1 check failure, 2 usage/config error (also a
path that cannot be read or written), 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import parse_config_file
from .demo import run_escape_demo
from .optimizers import ConfigError
from .runner import run_setup
from .svgplot import PlotError, render_columns, render_escape_overlay
from .trace import RunTrace, TraceFormatError
from .verify import MANIFEST, report, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _cmd_run(args) -> int:
    overrides = {"seed": str(args.seed)} if args.seed is not None else None
    result = run_setup(parse_config_file(args.config, overrides))
    result.trace.write(args.out)
    if result.diverged:
        print(f"diverged at step {result.trace.diverged_at}: {result.cause}; partial trace in {args.out}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote {result.trace.steps} steps to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    records = run_suite(args.suite, args.seed)
    text = report(args.suite, records)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    failed = [rec for rec in records if not rec.passed]
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.check}: lhs={rec.lhs:.6g} rhs={rec.rhs:.6g}", file=sys.stderr)
    print(
        f"{len(records) - len(failed)}/{len(records)} checks passed in suite {args.suite!r}",
        file=sys.stderr,
    )
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _cmd_escape_demo(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    demo = run_escape_demo()
    demo.sing.trace.write(outdir / "sing.csv")
    demo.sgd.trace.write(outdir / "sgd.csv")

    xs = np.linspace(-8.0, 8.0, 1200)
    iterates = {
        "sing": _iterate_positions(demo.sing.trace, demo.sing.final_params.values[0]),
        f"sgd(lr={demo.sgd_lr:g})": _iterate_positions(demo.sgd.trace, demo.sgd.final_params.values[0]),
    }
    svg = render_escape_overlay(xs, np.asarray(demo.landscape.value(xs)), iterates, demo.landscape.value)
    (outdir / "overlay.svg").write_text(svg, encoding="utf-8")
    print(
        f"eta0={demo.eta0:.4g}; sing final x={demo.sing_final_x:.4f} "
        f"(wide minimum {demo.wide_minimum:.4f}); sgd final x={demo.sgd_final_x:.4f}"
    )
    print(f"wrote sing.csv, sgd.csv, overlay.svg to {outdir}")
    return EXIT_OK


def _iterate_positions(trace: RunTrace, final_x: float) -> np.ndarray:
    # 1-D runs log |x| as the block norm; recover signed positions from the
    # mean column, which for a single scalar block is x itself.
    xs = trace.column("param_mean")
    return np.append(xs, final_x)


def _cmd_plot(args) -> int:
    traces = []
    labels = []
    for path in args.trace:
        traces.append(RunTrace.read(path))
        labels.append(Path(path).stem)
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    svg = render_columns(traces, columns, labels)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _check_seed(text: str) -> int:
    """A ``check --seed``: the suites seed numpy generators, which take no negative seed."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="singopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write its trace")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="run a verification suite")
    check_p.add_argument("suite", choices=sorted(MANIFEST) + ["all"])
    check_p.add_argument("--report", default=None)
    check_p.add_argument("--seed", type=_check_seed, default=0)
    check_p.set_defaults(func=_cmd_check)

    demo_p = sub.add_parser("escape-demo", help="narrow-well escape comparison")
    demo_p.add_argument("--out", required=True)
    demo_p.set_defaults(func=_cmd_escape_demo)

    plot_p = sub.add_parser("plot", help="render trace columns as SVG")
    plot_p.add_argument("--trace", action="append", required=True)
    plot_p.add_argument("--out", required=True)
    plot_p.add_argument("--cols", default="loss")
    plot_p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, PlotError, OSError) as exc:
        # bad config or trace input, an unplottable column, or a user path
        # that cannot be read or written: one line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
