"""Every name a dprkit module exports in `__all__` must exist on it.

A name left in `__all__` after its definition is deleted breaks
`from dprkit.<module> import *` with an AttributeError at import time.
"""

import importlib
import pkgutil

import dprkit


def test_every_exported_name_resolves():
    names = ["dprkit", *(info.name for info in pkgutil.iter_modules(dprkit.__path__, "dprkit."))]
    assert "dprkit.fixedpoint" in names
    missing = []
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []
