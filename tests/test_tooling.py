"""Checks on the code and the test configuration themselves.

Every module under ``src/`` and ``tests/`` uses each name it imports, and the
warning filters of ``pyproject.toml`` let a failing property test be reported
as a failure while every other warning still fails the run.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, less those it re-exports in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = """
        import math
        import os.path
        from fractions import Fraction as F
        from typing import Sequence
        __all__ = ["Sequence"]
        print(math.pi)
    """
    assert unused_imports(textwrap.dedent(source)) == ["F", "os"]


def run_pytest(tmp_path, source):
    """The summary line of a pytest run, under this project's configuration, of one test file."""
    (tmp_path / "test_sample.py").write_text(textwrap.dedent(source))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_a_failing_property_test_is_one_failure(tmp_path):
    # Hypothesis warns while it reports the failing example; that must not end the run.
    summary = run_pytest(
        tmp_path,
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """,
    )
    assert summary.startswith("1 failed, 1 passed")


def test_any_other_warning_still_fails(tmp_path):
    summary = run_pytest(
        tmp_path,
        """
        import warnings

        def test_warns():
            warnings.warn("some other deprecation", DeprecationWarning)

        def test_passes():
            pass
        """,
    )
    assert summary.startswith("1 failed, 1 passed")
