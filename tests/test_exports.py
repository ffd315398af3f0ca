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
}


def test_every_public_definition_has_a_caller():
    # a top-level def or class that only the tests name belongs in
    # tests/helpers.py; a name counts as used when a line of src/qhflux,
    # demos/ or bench/*.py other than its definition and the __init__
    # re-exports names it (bench/tracing.py names vanishing_subspace as a
    # string today)
    library = sorted((ROOT / "src" / "qhflux").rglob("*.py"))
    lines = [(path, number, line)
             for path in library + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py")) if path.name != "__init__.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)]
    uncalled = set()
    for path in library:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(re.search(rf"\b{node.name}\b", line)
                                for where, number, line in lines
                                if (where, number) != (path, node.lineno))):
                uncalled.add(node.name)
    assert sorted(uncalled - set(KEPT_WITHOUT_CALLER)) == []
