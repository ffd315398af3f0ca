import importlib

import pytest


@pytest.mark.parametrize("module", ["qhflux", "qhflux.oracle", "qhflux.harness"])
def test_every_exported_name_resolves(module):
    # a deletion must not leave a name in __all__ that `import *` cannot find
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
