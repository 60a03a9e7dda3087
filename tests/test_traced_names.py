"""Every singopt name the benchmark's tracer wraps must exist.

``perfbench/tracing.py`` wraps functions and methods by name; a rename in
singopt would otherwise surface only in a traced benchmark run.  The
tracer module is read, not imported: only its name tables are executed.
The tracer's per-step centralize count is checked here the same way, by
wrapping the two module bindings it wraps.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from singopt import runner, standardize
from singopt.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TABLES = ("THEORY", "FUNCTIONS", "METHODS")


def _tables() -> dict:
    """Run the statements of tracing.py that build its name tables."""
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    (suites,) = [
        node.value
        for node in workloads.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SUITES"]
    ]
    namespace = {"SUITES": ast.literal_eval(suites)}
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tracing.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id in TABLES for t in targets):
            exec(compile(ast.Module(body=[node], type_ignores=[]), "tracing.py", "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_in_singopt():
    tables = _tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    for mod_name, fn_name, *_ in tables["FUNCTIONS"]:
        module = importlib.import_module(f"singopt.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"singopt.{mod_name}.{fn_name}"
    for mod_name, cls_name, method, *_ in tables["METHODS"]:
        cls = getattr(importlib.import_module(f"singopt.{mod_name}"), cls_name)
        assert callable(vars(cls).get(method)), f"singopt.{mod_name}.{cls_name}.{method}"


def test_a_sing_step_and_its_log_centralize_once_each(monkeypatch):
    calls = Counter()
    for module in (standardize, runner):
        def counted(g, fn=module.centralize, name=module.__name__):
            calls[name] += 1
            return fn(g)

        monkeypatch.setattr(module, "centralize", counted)
    setup = parse_config("task.kind = mlp\ntask.n = 60\ntask.hidden = 4\ntask.batch_size = 16\nschedule.total_steps = 3\n")
    assert len(runner.run_setup(setup).trace.loss) == 3
    assert calls == {"singopt.standardize": 3, "singopt.runner": 3}
