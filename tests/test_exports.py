"""Every exported name resolves, and the package imports nothing but the
standard library and numpy.  The benchmark's span tracer wraps the names in
each module's `__all__` and skips a missing one without a word, so a stale
export would silently drop its spans."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import weylsym

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(weylsym.__path__))


def test_package_exports_resolve():
    assert [name for name in weylsym.__all__ if not hasattr(weylsym, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"weylsym.{name}")
    assert [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)] == []



def test_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; scipy and the like stay in the tests
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = set()
    for path in Path(weylsym.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert sorted(f for f in found if f[1] not in allowed) == []
