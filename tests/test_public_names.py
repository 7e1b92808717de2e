"""Every name in a public ``__all__`` resolves, so a deleted or moved name cannot linger there.

``from polycauchy2 import *`` reads these lists, and so does the benchmark's
tracer when it wraps each module's public functions. README's list of the
package's exports is ``polycauchy2.__all__`` as a set, so a deleted name
cannot linger in the README either.
"""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import polycauchy2

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["polycauchy2", *(f"polycauchy2.{info.name}" for info in pkgutil.iter_modules(polycauchy2.__path__))]

def unresolved(module) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert unresolved(module) == []


def test_a_lingering_name_is_caught():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "deleted"]
    assert unresolved(module) == ["deleted"]


def readme_exports(text: str) -> set[str]:
    """The backticked names between "`polycauchy2` exports" and "Its modules add"."""
    listing = text.split("`polycauchy2` exports", 1)[1].split("Its modules add", 1)[0]
    return set(re.findall(r"`([^`]+)`", listing))


def test_readme_lists_the_package_exports():
    assert readme_exports(README.read_text(encoding="utf-8")) == set(polycauchy2.__all__)


def test_a_name_left_in_the_readme_is_caught():
    text = "`polycauchy2` exports `kept` and\n`deleted`. Its modules add `other` (`polycauchy2.x`)."
    assert readme_exports(text) == {"kept", "deleted"}
    assert readme_exports(text) != {"kept"}
