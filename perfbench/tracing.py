"""Outside-in tracing: wrap singopt's module-level bindings, record spans.

The program is not changed.  :class:`Tracer` replaces each traced function
in every ``singopt`` module namespace that binds it (``from .x import f``
makes one binding per importing module), and each traced method on its
class, with a wrapper that records a span: name, start, end, parent span
and an optional amount (bytes or draws).  :meth:`Tracer.uninstall` puts
every original back.  Spans stay in memory until :func:`write_spans`.

Two bindings get their own span names so that logging work is told apart
from transform work: the runner's ``centralize`` (the ``grad_phi`` log) is
``runner.log_centralize``, while the call inside ``sing_transform`` is
``standardize.centralize``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

from workloads import SUITES

THEORY = ("estimate_basin_radius", "single_step_escape_check", "estimate_smoothness", "convergence_audit")

# (defining module, function, span name, amount per call)
FUNCTIONS = (
    ("runner", "build_task", "runner.build_task", None),
    ("runner", "run_experiment", "runner.run_experiment", None),
    ("config", "parse_config", "config.parse", None),
    ("optimizers", "step", "optimizers.step", None),
    ("optimizers", "apply_weight_decay", "optimizers.apply_weight_decay", None),
    ("optimizers", "host_update", "optimizers.host_update", None),
    ("optimizers", "lookahead_step", "optimizers.lookahead_step", None),
    # bytes computed: read g, write the result, as float64
    ("standardize", "sing_transform", "standardize.sing_transform", lambda g, *_a, **_k: 16 * g.partition.p),
    ("standardize", "centralize", "standardize.centralize", None),
    ("standardize", "gamma", "standardize.gamma", None),
    ("landscapes", "fd_gradient", "landscapes.fd_gradient", None),
)
FUNCTIONS += tuple(("theory", fn, f"theory.{fn}", None) for fn in THEORY)
FUNCTIONS += tuple(("verify", f"check_{suite}", f"verify.{suite}", None) for suite in SUITES)

# (defining module, class, method, span name, amount per call)
METHODS = (
    ("landscapes", "Quadratic", "evaluate", "landscapes.evaluate", None),
    ("landscapes", "Rosenbrock", "evaluate", "landscapes.evaluate", None),
    ("landscapes", "GaussianWells1D", "evaluate", "landscapes.evaluate", None),
    ("landscapes", "MlpTask", "evaluate", "landscapes.evaluate", None),
    ("landscapes", "MlpTask", "minibatch", "landscapes.minibatch", None),
    ("landscapes", "MlpTask", "gradient_noise", "landscapes.gradient_noise", None),
    ("runner", "EpochBatcher", "next_indices", "runner.batch", None),
    ("rng", "Xoshiro256", "normals", "rng.normals", lambda _self, count: count),
    ("rng", "Xoshiro256", "permutation", "rng.permutation", None),
    ("trace", "RunTrace", "append", "trace.append", None),
    ("trace", "RunTrace", "write", "trace.write", None),
)

RENAMED = {("runner", "centralize"): "runner.log_centralize"}

RUN = "runner.run_experiment"


class Tracer:
    """Records spans at singopt's layer boundaries while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, amount]
        self.spans: list[list] = []
        self.vectors_in_runs = 0
        self._stack: list[int] = []
        self._runs = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, amount):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_run = name == RUN

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, amount(*args, **kwargs) if amount else 0]
            stack.append(len(spans))
            spans.append(rec)
            if is_run:
                self._runs += 1
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if is_run:
                    self._runs -= 1

        traced.__wrapped__ = fn
        return traced

    def _count_vectors(self, init):
        def counted(vec, *args, **kwargs):
            if self._runs:
                self.vectors_in_runs += 1
            init(vec, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name in {t[0] for t in FUNCTIONS + METHODS}:
            importlib.import_module(f"singopt.{mod_name}")
        modules = {name: mod for name, mod in sys.modules.items() if name == "singopt" or name.startswith("singopt.")}
        for mod_name, fn_name, span, amount in FUNCTIONS:
            fn = getattr(modules[f"singopt.{mod_name}"], fn_name)
            wrapped = self._wrap(fn, span, amount)
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        renamed = RENAMED.get((name.rpartition(".")[2], attr))
                        self._patch(mod, attr, self._wrap(fn, renamed, amount) if renamed else wrapped)
        for mod_name, cls_name, method, span, amount in METHODS:
            cls = getattr(modules[f"singopt.{mod_name}"], cls_name)
            self._patch(cls, method, self._wrap(vars(cls)[method], span, amount))
        vector = modules["singopt.blocked"].BlockedVector
        self._patch(vector, "__init__", self._count_vectors(vector.__init__))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def write_spans(spans, path) -> None:
    """Write spans as CSV: index, name, start_s, end_s, parent, amount."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,amount\n")
        for i, (name, start, end, parent, amount) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{amount}\n")


def _quantile_us(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy time, self time, latency percentiles and counts."""
    spans = tracer.spans
    durations: dict[str, list[float]] = defaultdict(list)
    busy: Counter = Counter()
    self_s: Counter = Counter()
    amounts: Counter = Counter()
    in_run: Counter = Counter()  # calls made inside run_experiment, directly or not
    direct_in_run: Counter = Counter()
    child_s = [0.0] * len(spans)
    under_run = [False] * len(spans)
    for i, (name, start, end, parent, amount) in enumerate(spans):
        if parent >= 0:  # a parent always precedes its children
            child_s[parent] += end - start
            under_run[i] = under_run[parent] or spans[parent][0] == RUN
    for i, (name, start, end, parent, amount) in enumerate(spans):
        durations[name].append(end - start)
        busy[name] += end - start
        self_s[name] += end - start - child_s[i]
        amounts[name] += amount
        if under_run[i]:
            in_run[name] += 1
            direct_in_run[name] += spans[parent][0] == RUN

    steps = in_run["optimizers.step"]

    def per_step(count: float) -> float:
        return count / steps if steps else 0.0

    out: dict[str, float] = {
        "runner.self_s": self_s[RUN],
        "runner.batch_s": busy["runner.batch"],
        "runner.build_task_s": busy["runner.build_task"],
        "runner.log_centralize_s": busy["runner.log_centralize"],
        "landscapes.oracle_per_step": per_step(direct_in_run["landscapes.evaluate"]),
        "standardize.centralize.calls": len(durations["standardize.centralize"]),
        "standardize.centralize_per_step": per_step(in_run["standardize.centralize"] + in_run["runner.log_centralize"]),
        "standardize.sing_transform.mb_computed": amounts["standardize.sing_transform"] / 1e6,
        "optimizers.step.self_s": self_s["optimizers.step"],
        "blocked.vectors_per_step": per_step(tracer.vectors_in_runs),
        "rng.normals.calls": len(durations["rng.normals"]),
        "rng.normals.draws": amounts["rng.normals"],
        "rng.permutation.calls": len(durations["rng.permutation"]),
        "config.parse_s": busy["config.parse"],
    }
    for name in ("landscapes.minibatch", "landscapes.evaluate", "standardize.sing_transform", "optimizers.step"):
        d = durations[name]
        out[f"{name}.calls"] = len(d)
        out[f"{name}.s"] = busy[name]
        out[f"{name}.p50_us"] = _quantile_us(d, 50)
        out[f"{name}.p99_us"] = _quantile_us(d, 99)
    busy_only = (
        "landscapes.fd_gradient", "landscapes.gradient_noise", "standardize.centralize", "standardize.gamma",
        "optimizers.host_update", "optimizers.apply_weight_decay", "optimizers.lookahead_step",
        "rng.normals", "rng.permutation", "trace.append", "trace.write",
    )
    for name in busy_only + tuple(f"verify.{s}" for s in SUITES) + tuple(f"theory.{f}" for f in THEORY):
        out[f"{name}.s"] = busy[name]
    return out
