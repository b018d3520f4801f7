"""Lint/type gate for the strictly-checked subsystems.

Runs ``ruff check`` and ``mypy`` over the strictly-checked scope, which
is written down only in pyproject.toml (``[tool.mypy] files``; the CI
lint job reads the same list). Both tools are optional dependencies:
when they are not installed the corresponding test is skipped, so the
tier-1 suite stays runnable in minimal environments — the CI lint job
hard-fails on the same commands instead.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _checked_paths():
    """The scope from pyproject.toml (``tomllib`` is stdlib from Python
    3.11; older interpreters need ``tomli`` or skip)."""
    try:
        import tomllib
    except ImportError:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["tool"]["mypy"]["files"]


def _have(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


@pytest.mark.skipif(not _have("ruff"), reason="ruff is not installed")
def test_ruff_clean():
    proc = _run(["ruff", "check", *_checked_paths()])
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}{proc.stderr}"


@pytest.mark.skipif(not _have("mypy"), reason="mypy is not installed")
def test_mypy_clean():
    proc = _run(["mypy"])
    assert proc.returncode == 0, f"mypy findings:\n{proc.stdout}{proc.stderr}"


def test_scope_names_existing_paths():
    paths = _checked_paths()
    assert "src/repro/core/divergence.py" in paths
    assert len(set(paths)) == len(paths)
    for path in paths:
        assert (REPO_ROOT / path).exists(), path
