"""The mypy gate, exercised when mypy is installed (CI always installs it).

The pinned configuration (``mypy.ini``) covers the determinism-critical
modules: the recovery math, the protocol layer whose attributes the cell
cache fingerprints, the lint subsystem itself, the cache/shard pair and
the cell executor.
Locally the test skips when mypy is absent — it is a dev/CI tool, not a
runtime dependency.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_mypy_gate_is_clean():
    pytest.importorskip("mypy")
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, f"mypy gate failed:\n{result.stdout}{result.stderr}"


def test_mypy_config_is_pinned():
    """The config keeps the knobs the gate depends on."""
    config = (REPO_ROOT / "mypy.ini").read_text()
    assert "check_untyped_defs = True" in config
    assert "warn_unused_ignores = True" in config
    for scoped in ("src/repro/core", "src/repro/protocols", "src/repro/lint",
                   "src/repro/sim/cache.py", "src/repro/sim/cells.py",
                   "src/repro/sim/shard.py",
                   "src/repro/sim/engine.py", "src/repro/sim/scenarios.py",
                   "src/repro/sim/figures.py"):
        assert scoped in config


def test_compiled_kernel_loader_is_in_the_gate():
    """The ctypes loader of the compiled kernel is type-checked: it lives in a
    package the gate lists (a second, file-level entry for it would be a
    duplicate module to mypy)."""
    config = (REPO_ROOT / "mypy.ini").read_text()
    files = config.split("files =", 1)[1].split("mypy_path", 1)[0]
    gated = [entry.strip().rstrip(",") for entry in files.splitlines() if entry.strip()]
    loader = pathlib.PurePosixPath("src/repro/protocols/kernel.py")
    assert (REPO_ROOT / loader).is_file()
    assert any(entry == str(loader) or pathlib.PurePosixPath(entry) in loader.parents
               for entry in gated), gated
