"""The benchmark's tracer patches dprkit by name; these names must resolve.

`perfbench/tracing.py` is loaded as it stands (not edited, not imported as a
package).  A renamed entry point would make its layer read 0 without any
error, so every `LAYERS` entry must name an attribute of its module, and
the lru_caches whose statistics the tracer reads must still exist.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
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
    for cached in (fgl.inverse_series, fgl._n_fold_sums):
        assert callable(cached.cache_info)


# a fresh `import dprkit.cli`, then what the tracer reads straight after it
_IMPORT_CLI_THEN_REPORT = """
import sys
import dprkit.cli
cli, dpr = sys.modules["dprkit.cli"], sys.modules["dprkit.dpr"]
sys.stdout.write(repr((sorted(name for name in sys.modules if name.startswith("dprkit.")),
                       cli.build_gx is dpr.build_gx,
                       cli._BUILDERS["GX"] is dpr.build_gx)))
"""


def test_a_fresh_cli_import_registers_every_traced_module(tracing, cli_env):
    # Tracer.install reads each layer's module from sys.modules right after
    # `import dprkit.cli`, and patches the builders where cli holds them
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI_THEN_REPORT],
                          capture_output=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded, same_builder, same_table_entry = ast.literal_eval(proc.stdout.decode())
    assert {module for module, _ in tracing.LAYERS.values()} <= set(loaded)
    assert same_builder and same_table_entry
