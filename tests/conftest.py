"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import consolidate
from consolidate import truncated_poisson


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this checkout's
    package; returns the finished process, which must exit 0."""
    package_root = str(Path(consolidate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, check=True)

    return run


@pytest.fixture
def special_bound():
    """Bind scipy.special, which loads on the first Poisson tail, so that a
    memory peak traced afterwards is the test's own and not the import's."""
    truncated_poisson.poisson_tail(1.0, 1)
