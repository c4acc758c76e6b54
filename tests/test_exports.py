"""Every exported name resolves, and the package imports nothing but the
standard library and numpy.  The benchmark's span tracer wraps the names in
each module's `__all__` and skips a missing one without a word, so a stale
export would silently drop its spans.  The README's table of fast routes
names routes that exist and oracles that the tests define."""

import ast
import importlib
import pkgutil
import re
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


def oracle_table():
    """(routes, oracles) of each row of the README's table of fast routes,
    read from the backticked names of its second and third columns."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    policy = readme[readme.index("## Numerical policy"):]
    rows = [line.strip().split("|")[1:-1] for line in policy.splitlines() if line.strip().startswith("|")]
    return [(re.findall(r"`([^`]+)`", r[1]), re.findall(r"`([^`]+)`", r[2])) for r in rows[2:]]


def test_every_fast_route_names_one_oracle_defined_in_the_tests():
    table = oracle_table()
    assert len(table) >= 17
    routes = [route for row_routes, _ in table for route in row_routes]
    assert len(routes) == len(set(routes))
    for row_routes, oracles in table:
        assert len(oracles) == 1, row_routes
        for route in row_routes:
            module, *attrs = route.split(".")
            obj = importlib.import_module(f"weylsym.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        module, name = oracles[0].split(".")
        tree = ast.parse((Path(__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, oracles
