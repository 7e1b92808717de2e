"""Checks on the code and the test configuration themselves.

Every module under ``src/`` and ``tests/`` uses each name it imports, every
private top-level name under ``src/`` is read somewhere under ``src/``, and the
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
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The top-level ``_name``s, as "module:name", that no module of ``sources`` reads.

    A read is a loaded name, an attribute, an imported name or a string
    constant equal to the name (a registry entry or a ``getattr`` by name).
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            private = (name for name in names if name.startswith("_") and not name.startswith("__"))
            unread += [f"{module}:{name}" for name in private if name not in read]
    return sorted(unread)


def test_every_private_name_in_src_is_read_in_src():
    # Reads from the tests do not count: a private name only a test reads is test-only code in src/.
    sources = {str(path.relative_to(ROOT / "src")): path.read_text() for path in SOURCES}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_caught():
    defining = """
        _TABLE = {"entry": "_by_name"}
        _orphan_constant: int = 3
        _written = 0

        def _by_name():
            pass

        def _loaded():
            pass

        def _imported():
            pass

        def _attribute():
            pass

        def _orphan():
            # Reads live names, but nothing reads it: a helper whose last caller went.
            global _written
            _written = _loaded()

        class _Orphan:
            pass

        print(_TABLE)
    """
    reading = """
        import a
        from a import _imported

        print(a._attribute, _imported)
    """
    sources = {"a.py": textwrap.dedent(defining), "b.py": textwrap.dedent(reading)}
    assert unread_private_names(sources) == ["a.py:_Orphan", "a.py:_orphan", "a.py:_orphan_constant", "a.py:_written"]


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
