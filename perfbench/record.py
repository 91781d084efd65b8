"""Record a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/record.py --runs 10 --seconds 20 --out perfbench/baseline.json

Runs `run.py --trace 0` on seeds 1..runs and `run.py --trace 1` on seed 1
for each workload, then writes, per end-to-end metric, the median, the
quartiles and the spread (quartile distance over median), and the
per-layer values of the traced run.  The traced run on seed 1 must print
the same output digest as the untraced run on seed 1.  Also records the
interpreter and numpy versions, the git commit and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_EFFECTS = {
    "dpr.eval.*": "wall_s and peak_rss_mb on verify",
    "dpr.build.*": "wall_s and peak_rss_mb on expand",
    "dpr.check.self_s": "wall_s on expand",
    "dpr.export.*": "wall_s on expand; cmd_p90_ms on cli",
    "operators.*": "wall_s on verify",
    "fixedpoint.mixed.*, fixedpoint.allbad.*": "wall_s and peak_rss_mb on verify",
    "fixedpoint.table.*, fixedpoint.guard.contexts": "wall_s on expand",
    "fgl.*": "wall_s on series",
    "algebra.*": "wall_s on expand and series; cmd_p50_ms on cli",
    "cli.*": "cmd_p50_ms and setup_s on cli",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def environment() -> dict:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(inputs.WORKLOADS))
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"environment": environment(), "runs_per_workload": args.runs,
              "run_seconds": args.seconds, "layer_effects": LAYER_EFFECTS, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests = {}
        ok = True
        for seed in range(1, args.runs + 1):
            result, digests[seed] = run_once(workload, seed, args.seconds, 0)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, traced_digest = run_once(workload, 1, args.seconds, 1)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals),
                             "bound": bounds[name], "values": vals}
        record["workloads"][workload] = {
            "why": why[workload],
            "all_correct": ok and traced["correct"],
            "same_seed_same_digest": traced_digest == digests[1],
            "end_to_end": summary,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in summary.items():
            print(f"{workload:7s} {name:12s} median {s['median']:10.4g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
