import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["qhflux", "qhflux.oracle", "qhflux.harness"])
def test_every_exported_name_resolves(module):
    # a deletion must not leave a name in __all__ that `import *` cannot find
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy costs most of the start-up
    code = ("import sys, qhflux, qhflux.cli, qhflux.harness.suites, qhflux.oracle; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


ROOT = Path(__file__).resolve().parents[1]
# public names that no command, suite or oracle calls, each kept for a reason
KEPT_WITHOUT_CALLER = {
    "load_samples": "the reader of the documented `mcmc --dump` format",
    "vanishing_subspace": "ROADMAP item 13's exact sampler of the conditioned bath needs it",
    "theta": "the paper's Schur-complement density Theta(z|w), documented in the README "
             "and the subject of the Schur-identity tests",
}


def _uses(tree: ast.Module, strings: bool) -> tuple[set, set]:
    """(names a module uses from any module, bare names it references
    outside their own top-level definition): imports and attribute reads,
    and string constants where `strings` is set, count for any module; a
    bare name counts only for its own."""
    outer, local = set(), set()
    for stmt in tree.body:
        name = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                outer.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                outer.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                outer.add(node.value)
            elif isinstance(node, ast.Name) and node.id != name:
                local.add(node.id)
    return outer, local


def test_every_public_definition_has_a_caller():
    # a top-level def or class that only the tests name belongs in
    # tests/helpers.py; a name counts as used when src/qhflux, demos/ or
    # bench/*.py imports it or reads it as an attribute, or its own module
    # names it outside its definition, but not through the __init__
    # re-exports or a local variable of the same name elsewhere; bench names
    # the functions its tracer wraps as strings (bench/tracing.py), which count
    library = sorted((ROOT / "src" / "qhflux").rglob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in library + sorted((ROOT / "demos").glob("*.py")) + bench:
        if path.name != "__init__.py":
            used |= _uses(ast.parse(path.read_text()), path in bench)[0]
    uncalled = set()
    for path in library:
        tree = ast.parse(path.read_text())
        local = _uses(tree, False)[1]
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used | local):
                uncalled.add(node.name)
    assert sorted(uncalled - set(KEPT_WITHOUT_CALLER)) == []
