"""Checks on the code and the test configuration themselves.

Every module under ``src/`` and ``tests/`` uses each name it imports, every
private top-level name under ``src/`` is read somewhere under ``src/``, no
class under ``src/`` writes its own ``__eq__`` or ``__repr__``, no method of
a class under ``src/`` changes its object after construction, no function
under ``src/`` mutates module-level state but the shared binomial rows, and
the warning filters of ``pyproject.toml`` let a failing property test be
reported as a failure while every other warning still fails the run. The
autouse fixture of ``tests/conftest.py`` fails a test that leaves a child
process running or unreaped.
"""

import ast
import os
import shutil
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


def hand_written_record_methods(source: str) -> list[str]:
    """``Class.method`` for each ``__eq__`` or ``__repr__`` that a class of the module defines or assigns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                names = [getattr(target, "id", None) for target in getattr(item, "targets", [])]
                names.append(getattr(item, "name", None))
                found += [f"{node.name}.{name}" for name in names if name in ("__eq__", "__repr__")]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_no_class_in_src_writes_its_own_equality_or_repr(path):
    # Records are NamedTuples, which give equality and repr by field.
    assert hand_written_record_methods(path.read_text()) == []


def test_a_hand_written_equality_or_repr_is_caught():
    source = """
        def __eq__(a, b):
            return a is b

        class Plain:
            def __hash__(self):
                return 0

        class Record:
            def __eq__(self, other):
                return True

            __repr__ = object.__repr__

            class Inner:
                def __repr__(self):
                    return "inner"
    """
    assert hand_written_record_methods(textwrap.dedent(source)) == ["Inner.__repr__", "Record.__eq__", "Record.__repr__"]


MUTATING_METHODS = {"append", "extend", "insert", "setdefault", "update", "pop", "clear"}


def _root(node: ast.expr) -> str | None:
    """The name an expression such as ``x``, ``x[i]`` or ``x.a[i]`` starts from, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_mutations(sources: dict[str, str]) -> list[str]:
    """The module-level names, as "module:name", that some function of their module mutates.

    A mutation is a call of a mutating container method or of a method that a
    class of the same module defines, an item assignment or deletion, or a
    ``global`` rebinding. It counts on the name itself and on a local alias
    (``rows = _TABLE`` or ``row = _TABLE[i]``), reported under the aliased name.
    """
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        module_names = set()
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            module_names.update(target.id for target in targets if isinstance(target, ast.Name))
        # A property's value is what gets called, so a property is not a method here.
        mutators = MUTATING_METHODS | {
            item.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(getattr(decorator, "id", None) == "property" for decorator in item.decorator_list)
        }
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(function))
            declared = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
            bound = {node.arg for node in nodes if isinstance(node, ast.arg)}
            bound |= {node.id for node in nodes if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
            # origin[name] is the module-level name that a name in this function refers to.
            origin = {name: name for name in module_names if name not in bound or name in declared}
            assignments = [
                (target.id, node.value)
                for node in nodes
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name) and target.id not in declared
            ]
            grown = True
            while grown:
                aliases = {name: origin[_root(value)] for name, value in assignments if _root(value) in origin}
                grown = not aliases.items() <= origin.items()
                origin.update(aliases)
            for node in nodes:
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in mutators:
                        name = _root(node.func.value)
                    else:
                        continue
                elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    name = _root(node)
                elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) and node.id in declared:
                    name = node.id
                else:
                    continue
                if name in origin:
                    found.add(f"{module}:{origin[name]}")
    return sorted(found)


def test_no_function_in_src_mutates_module_state_but_the_binomial_rows():
    # The rows every EGF product of a call reads are the one thing kept between calls.
    sources = {str(path.relative_to(ROOT / "src")): path.read_text() for path in SOURCES}
    assert module_state_mutations(sources) == ["polycauchy2/exact.py:_EVEN_BINOMIALS"]


def test_a_module_state_mutation_is_caught():
    source = """
        _DIRECT = []
        _ALIASED = {}
        _COUNT = 0
        _READ = (1, 2)
        _SHADOWED = []

        class Grower:
            def grow(self, n):
                pass

        _GROWN = Grower()

        def direct(x):
            _DIRECT.append(x)

        def aliased(key):
            table = _ALIASED
            entry = table
            entry[key] = len(_READ)

        def by_method():
            _GROWN.grow(3)

        def rebinds():
            global _COUNT
            _COUNT = _COUNT + 1

        def local_only():
            _SHADOWED = []
            _SHADOWED.append(sum(_READ))
            return _SHADOWED
    """
    assert module_state_mutations({"a.py": textwrap.dedent(source)}) == [
        "a.py:_ALIASED", "a.py:_COUNT", "a.py:_DIRECT", "a.py:_GROWN"
    ]


def object_mutations(source: str) -> list[str]:
    """``Class.method`` for each method that changes its object, outside ``__init__`` and ``__new__``.

    The object is the method's first parameter; a static method has none. A
    change is an assignment, augmented assignment or ``del`` of an attribute
    or item rooted at it, or a call of a mutating container method on it.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name in ("__init__", "__new__"):
                continue
            parameters = [*method.args.posonlyargs, *method.args.args]
            if not parameters or any(getattr(d, "id", None) == "staticmethod" for d in method.decorator_list):
                continue
            for inner in ast.walk(method):
                if isinstance(inner, (ast.Attribute, ast.Subscript)) and not isinstance(inner.ctx, ast.Load):
                    target = inner
                elif isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) in MUTATING_METHODS:
                    target = inner.func.value
                else:
                    continue
                if _root(target) == parameters[0].arg:
                    found.add(f"{node.name}.{method.name}")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_no_method_in_src_changes_its_object(path):
    # A record is fixed when built: a different value is a new record.
    assert object_mutations(path.read_text()) == []


def test_a_method_that_changes_its_object_is_caught():
    source = """
        class Grows:
            def __init__(self):
                self.items = []
                self.count = 0

            def add(self, x):
                self.items.append(x)

            def bump(this):
                this.count += 1

            def put(self, key, x):
                self.items[key] = x

            def drop(self):
                del self.items[0]

            def rename(self):
                self.items = ()

            @classmethod
            def share(cls):
                cls.shared = 0

        class Fixed(tuple):
            def __new__(cls, x):
                self = super().__new__(cls, (x,))
                self.__dict__.update()
                return self

            def read(self, other):
                copy = list(self)
                copy.append(self[0])
                other.items[0] = len(self)
                return copy

            @staticmethod
            def fill(items):
                items.append(0)
    """
    assert object_mutations(textwrap.dedent(source)) == [
        "Grows.add", "Grows.bump", "Grows.drop", "Grows.put", "Grows.rename", "Grows.share"
    ]


def run_pytest(tmp_path, source):
    """The summary line of a pytest run, under this project's configuration, of one test file."""
    (tmp_path / "test_sample.py").write_text(textwrap.dedent(source))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])},
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


def test_a_child_left_unreaped_fails_its_test(tmp_path):
    # The autouse fixture of tests/conftest.py fails the test that leaves a
    # child process behind, and only that test.
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    summary = run_pytest(
        tmp_path,
        """
        import os

        def test_leaves_a_child():
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped

        def test_reaps_its_child():
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
        """,
    )
    assert summary.startswith("2 passed, 1 error")
