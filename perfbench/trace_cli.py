"""`dprkit` with the layer wrappers installed, for the traced CLI workload.

    python3 perfbench/trace_cli.py SPANS_PATH DPRKIT_ARGS...

Runs dprkit.cli.main on the arguments as `python -m dprkit.cli` would, with
the same stdout and exit code, then writes the spans to SPANS_PATH.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import dprkit.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.item = 0
    try:
        return tracer.traced("item", dprkit.cli.main)(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(sys.argv[1], import_s)


if __name__ == "__main__":
    raise SystemExit(main())
