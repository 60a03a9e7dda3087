"""Session checks for the test suite.

perfbench/ pins BLAS to one thread when its modules load; once tests/
has loaded numpy the pin comes too late and a perfbench digest reads
its two-thread value.  A session that collects tests/ and perfbench/
together is refused before anything runs.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _collects(items, name: str) -> bool:
    return any(ROOT / name in item.path.resolve().parents for item in items)


def pytest_collection_modifyitems(config, items):
    if _collects(items, "tests") and _collects(items, "perfbench"):
        raise pytest.UsageError("tests/ and perfbench/ cannot share a session: run `python3 -m pytest -q perfbench` on its own")
