"""The benchmark's tracer patches dprkit by name; these names must resolve.

`perfbench/tracing.py` is loaded as it stands (not edited, not imported as a
package).  A renamed entry point would make its layer read 0 without any
error, so every `LAYERS` entry must name an attribute of its module, and
the lru_caches whose statistics the tracer reads must still exist.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dprkit import fgl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_entry_resolves(tracing):
    missing = []
    for layer, (module_name, entries) in tracing.LAYERS.items():
        module = importlib.import_module(module_name)
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                missing.append(f"{layer}: {module_name}.{entry}")
    assert missing == []


def test_fgl_caches_keep_their_statistics():
    for cached in (fgl.inverse_series, fgl.n_fold_sum):
        assert callable(cached.cache_info)
