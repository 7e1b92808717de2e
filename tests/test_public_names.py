"""Every name in a public ``__all__`` resolves, so a deleted or moved name cannot linger there.

``from polycauchy2 import *`` reads these lists, and so does the benchmark's
tracer when it wraps each module's public functions.
"""

import importlib
import pkgutil
import types

import pytest

import polycauchy2

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
