"""The dprkit benchmark: four seeded workloads, one command.

    python3 perfbench/run.py --workload {verify,expand,series,cli}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root; it runs dprkit from `src/`.  One client
makes one call at a time (a closed loop, no concurrency).  Every pass runs in
a fresh interpreter, so dprkit's build cache and the fgl lru_caches start
empty, as they do for every CLI call, and work moved into import time shows
in `setup_s`.  A run repeats the same pass a number of times set by
`--seconds` (see PASSES).

With --trace 0 it reports the end-to-end metrics.  Times are in
reference-host seconds (see hostspeed.py): each is scaled by a calibration
timed next to it, so that the shared host's slow phases cancel out.

  setup_s      median time of the `import dprkit.cli` launches made before
               and between the passes
  wall_s       time of one pass: the sum over its items of each item's
               median time over the run's passes (an item is one timed
               library call, or one `dprkit` process on `cli`)
  peak_rss_mb  largest peak resident memory of any process of the run
  cmd_p50_ms,  median and 90th percentile of the per-item times that sum to
  cmd_p90_ms   wall_s: per command on `cli`, per library call elsewhere

With --trace 1, untraced and traced passes alternate, half as many of
each as an end-to-end run makes.  The per-layer metrics
are the medians over the traced passes (see tracing.py); trace.overhead_s is
the traced pass time minus the untraced one.  These times are not scaled.

Every output is checked.  An item that raises or fails its check counts in
`failed`, and every pass of a run must give the same digest of canonical
outputs.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Nominal seconds per pass on the reference host, and the fewest passes.
# A run makes max(minimum, round(seconds / nominal)) passes: the count
# depends on --seconds only, never on how fast the code is, so two commits
# compared at one --seconds take the same number of samples.
PASSES = {"verify": (5.5, 3), "expand": (5.0, 3), "series": (6.5, 3), "cli": (3.6, 7)}
FIRST_SETUP_LAUNCHES = 4
PROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "cmd_p50_ms": "ms", "cmd_p90_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(dict.fromkeys(tracing.COUNTER_NAMES, "count"))
    units.update({"algebra.json.bytes": "B", "operators.attempts": "count",
                  "operators.accept_ratio": "ratio", "cli.stdout_bytes": "B",
                  "cli.import_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(args: list[str], env) -> subprocess.CompletedProcess:
    return subprocess.run(args, env=env, cwd=ROOT, capture_output=True,
                          timeout=PROCESS_TIMEOUT_S)


# a bare interpreter start and exit, which imports no dprkit, is the
# calibration for process times; its time at full speed on the reference host
BARE_LAUNCH_S = 0.05


def launch_clock(env) -> hostspeed.Clock:
    bare = [sys.executable, "-c", "pass"]
    return hostspeed.Clock(lambda: launch(bare, env), BARE_LAUNCH_S, interval_s=0.5)


def setup_launch(env, clock: hostspeed.Clock) -> float:
    """Time from a fresh interpreter to `import dprkit.cli` done, scaled."""
    proc, _, scaled = clock.timed(
        lambda: launch([sys.executable, "-c", "import dprkit.cli"], env))
    if proc.returncode != 0:
        sys.exit(f"perfbench: cannot import dprkit.cli:\n{proc.stderr.decode()}")
    return scaled


def _spans_path() -> str:
    OUT.mkdir(exist_ok=True)
    return str(OUT / f"spans-{os.getpid()}-{time.perf_counter_ns()}.json")


def _read_dump(path: str) -> dict:
    with open(path) as f:
        dump = json.load(f)
    os.remove(path)
    return dump


def worker_pass(workload: str, seed: int, env, traced: bool) -> dict:
    """One in-process pass, in a fresh worker interpreter."""
    spans = _spans_path() if traced else None
    args = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    proc = launch(args + ([spans] if spans else []), env)
    if proc.returncode != 0:
        count = len(inputs.ITEMS[workload](seed))
        return {"attempted": count, "failed": count, "latencies": None, "scaled": None,
                "digest": None, "errors": [proc.stderr.decode()[-2000:]], "dumps": [],
                "import_times": []}
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["dumps"] = [_read_dump(spans)] if spans else []
    result["import_times"] = [result.pop("import_s")]
    return result


def _cli_ok(stdout: bytes) -> bool:
    payload = json.loads(stdout)
    if not isinstance(payload, dict):
        return False
    for verdict in ("pass", "equal", "holds"):
        if verdict in payload:
            return payload[verdict] is True
    return bool(payload)


def cli_pass(commands: list[list[str]], env, traced: bool) -> dict:
    """Each command as its own `dprkit` process, which must exit 0 and print
    JSON; a verification-style command must also report its check true."""
    clock = launch_clock(env)
    digest = hashlib.sha256()
    timings, errors, dumps = [], [], []
    stdout_bytes = 0
    for index, args in enumerate(commands):
        spans = _spans_path() if traced else None
        if spans:
            cmd = [sys.executable, str(HERE / "trace_cli.py"), spans, *args]
        else:
            cmd = [sys.executable, "-m", "dprkit.cli", *args]
        clock.calibrate()
        start = time.perf_counter()
        proc = launch(cmd, env)
        timings.append((start, time.perf_counter() - start))
        stdout_bytes += len(proc.stdout)
        try:
            ok = proc.returncode == 0 and _cli_ok(proc.stdout)
        except ValueError:
            ok = False
        if not ok:
            errors.append(f"dprkit {' '.join(args)}: exit {proc.returncode}: "
                          f"{proc.stderr.decode()[-500:]}")
        digest.update(f"{index} {proc.returncode}\n".encode() + proc.stdout)
        if spans and os.path.exists(spans):
            dumps.append(_read_dump(spans))
    clock.calibrate(force=True)
    return {"attempted": len(commands), "failed": len(errors), "errors": errors,
            "latencies": [seconds for _, seconds in timings],
            "scaled": [clock.scale(start, seconds) for start, seconds in timings],
            "digest": digest.hexdigest(),
            "dumps": dumps,
            "import_times": [d["import_s"] for d in dumps], "stdout_bytes": stdout_bytes}


def pass_count(workload: str, seconds: float) -> int:
    nominal, minimum = PASSES[workload]
    return max(minimum, round(seconds / nominal))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def one_pass(workload: str, seed: int, env, traced: bool) -> dict:
    if workload == "cli":
        return cli_pass(inputs.cli_items(seed), env, traced)
    return worker_pass(workload, seed, env, traced)


def end_to_end(workload: str, seed: int, seconds: float, env):
    clock = launch_clock(env)
    setup_launch(env, clock)  # compiles the bytecode once, untimed
    # set-up is sampled between the passes too, so that its median spans
    # the host's slow and fast phases
    setup = [setup_launch(env, clock) for _ in range(FIRST_SETUP_LAUNCHES)]
    passes = []
    for _ in range(pass_count(workload, seconds)):
        passes.append(one_pass(workload, seed, env, traced=False))
        setup.append(setup_launch(env, clock))
    complete = [p for p in passes if p["scaled"] is not None]
    if not complete:
        return {}, passes, {}
    typical = [statistics.median(times) for times in zip(*(p["scaled"] for p in complete))]
    raw = sum(statistics.median(times) for times in zip(*(p["latencies"] for p in complete)))
    print(f"wall_s before scaling to reference-host seconds: {raw:.4f} s")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cmd_p50_ms": percentile(typical, 50) * 1000,
        "cmd_p90_ms": percentile(typical, 90) * 1000,
    }
    per_item = f"{len(typical)} items, each the median of {len(complete)} passes"
    samples = {"setup_s": f"median of {len(setup)} launches",
               "wall_s": per_item,
               "peak_rss_mb": "max over every process of the run",
               "cmd_p50_ms": per_item,
               "cmd_p90_ms": per_item}
    return metrics, passes, samples


def per_layer(workload: str, seed: int, seconds: float, env):
    # half the passes of an end-to-end run, each traced and untraced
    pairs = [(one_pass(workload, seed, env, traced=False),
              one_pass(workload, seed, env, traced=True))
             for _ in range(max(1, pass_count(workload, seconds) // 2))]
    passes = [p for pair in pairs for p in pair]
    if any(p["latencies"] is None for p in passes):
        return {}, passes, {}
    rows = []
    for _, traced in pairs:
        row = tracing.layer_metrics(traced["dumps"])
        row["cli.stdout_bytes"] = traced.get("stdout_bytes", 0)
        row["cli.import_s"] = statistics.median(traced["import_times"])
        row["trace.wall_s"] = sum(traced["latencies"])
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        sum(plain["latencies"]) for plain, _ in pairs)
    samples = dict.fromkeys(metrics, f"median of {len(rows)} traced passes")
    return metrics, passes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dprkit" / "cli.py").is_file():
        sys.exit(f"perfbench: no dprkit source at {ROOT / 'src' / 'dprkit'}")

    measure = per_layer if args.trace else end_to_end
    metrics, passes, samples = measure(args.workload, args.seed, args.seconds, child_env())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    notes = [e for p in passes for e in p["errors"]]
    if len(digests) != 1 or None in digests:
        notes.append(f"the passes of one seed gave {len(digests)} different output digests")
    correct = failed == 0 and len(digests) == 1 and None not in digests and bool(metrics)
    units = END_TO_END_UNITS | per_layer_units()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  fail_ratio {failed / attempted:g} "
          f"({failed} failed / {attempted} attempted)")
    print(f"digest {' '.join(sorted(str(d) for d in digests))}")
    for note in notes:
        print(f"error: {note}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]:6s} {samples[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
