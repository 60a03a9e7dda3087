"""``import singopt`` imports no submodule; each exported name is imported on first use.

A fresh interpreter is the only place where nothing has been imported yet,
so the checks run in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import singopt

loaded = sorted(name for name in sys.modules if name.startswith("singopt."))
assert not loaded, f"import singopt loaded {loaded}"
from singopt import config, runner  # submodules import by name, and only what they need
assert "singopt.theory" not in sys.modules
assert dir(singopt) == sorted(singopt.__all__)
for name in singopt.__all__:
    value = getattr(singopt, name)
    if name != "__version__":
        assert value.__module__.startswith("singopt."), (name, value.__module__)
        assert getattr(sys.modules[value.__module__], name) is value, name
try:
    singopt.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_import_singopt_compiles_no_submodule():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
