"""Shared test setup: subprocesses that run the package find its sources."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _sources_on_subprocess_path(monkeypatch):
    # pytest puts src on this process's sys.path (pyproject's pythonpath);
    # a CLI started as a subprocess reads PYTHONPATH instead
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", SRC + os.pathsep + path if path else SRC)
