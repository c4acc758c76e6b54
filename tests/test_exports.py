"""Every exported name resolves, and the package imports nothing but the
standard library and numpy.  The benchmark's span tracer wraps the names in
each module's `__all__` and skips a missing one without a word, so a stale
export would silently drop its spans.  The README's table of fast routes
names routes that exist and oracles that the tests define, and its table
of claims names registered sweeps and defined acceptance tests."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import weylsym
from weylsym.diag import EXPERIMENTS

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


def readme_table(heading):
    """The backticked names in each cell of each row of the table in the
    README's section under `heading`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(heading):].split("\n## ")[0]
    rows = [re.split(r"(?<!\\)\|", line.strip())[1:-1] for line in section.splitlines() if line.strip().startswith("|")]
    return [[re.findall(r"`([^`]+)`", cell) for cell in row] for row in rows[2:]]


def test_every_fast_route_names_one_oracle_defined_in_the_tests():
    table = [(row[1], row[2]) for row in readme_table("## Numerical policy")]
    assert len(table) >= 19
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


def test_every_claim_names_registered_sweeps_and_defined_acceptance_tests():
    # a fold of the tests must not drop the one acceptance test of a claim
    table = [(row[1], row[2]) for row in readme_table("## Claims and their checks")]
    assert len(table) >= 9
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for sweeps, tests in table:
        assert sorted(set(sweeps) - set(EXPERIMENTS)) == [], sweeps
        assert tests and sorted(set(tests) - defined) == [], tests


def test_only_scale_reads_the_block_rule():
    # one block rule for every symbol evaluation: a module that read the
    # block size, the rule (`_blocks`) or a `_table_rows` table rule of its
    # own could cut its calls by a second one
    rule = {"_BLOCK_CELLS", "_blocks", "_table_rows"}
    for path in sorted(Path(weylsym.__file__).parent.glob("*.py")):
        if path.name == "scale.py":
            continue
        read = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
        assert sorted(read & rule) == [], path.name


def test_only_the_operator_type_calls_the_operator_routes():
    # one entry for the operator symbol, `FiniteRankOperator.symbol`: a
    # second caller of a route could hand it its own hbar, L or block rule
    routes = {"_box_operator_symbol", "_oscillator_operator_symbol"}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name in routes:
                found.add((path.name, ".".join(scope), name))
            visit(child, scope)

    for path in sorted(Path(weylsym.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    assert sorted(found) == [("moyal.py", "FiniteRankOperator.symbol", name) for name in sorted(routes)]


def test_oracles_import_only_the_descriptors():
    # an oracle that called a route of the program would share its code
    # with what it checks; the descriptors name a model or hold a band
    allowed = {"EigenBasis", "Model", "LadderBand"}
    for path in sorted(Path(__file__).parent.glob("*_oracle.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names if a.name.split(".")[0] == "weylsym")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylsym":
                imported.update(a.name for a in node.names)
        assert sorted(imported - allowed) == [], path.name
