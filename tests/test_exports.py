import importlib
import subprocess
import sys

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
