"""Tests of the benchmark itself (not part of the package suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import dprkit.cli  # noqa: E402
from dprkit import algebra, dpr  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# one small item of every in-process kind
SMALL_ITEMS = [
    ("step", 3, 2, 11), ("full", 2, 2, 2, 12), ("mixed", 2, 2, 2, 13), ("allbad", 3, 3),
    ("grid", 3, 2), ("padding", 2, 2), ("json", 2, 2), ("claim1", 1), ("guard", [2]),
    ("inverse", ["universal"], 6), ("division", ["universal"], 3, 6),
    ("associativity", ["universal"], 6), ("evaldim", ["universal"], 6, 3),
    ("division", ["custom", [[1, 1, 2], [1, 2, -1]]], 5, 6),
]


def test_small_items_pass_their_checks():
    result = worker.run_pass(SMALL_ITEMS)
    assert result["errors"] == []
    assert result["attempted"] == len(SMALL_ITEMS)


def test_forced_false_and_raising_items_count_as_failed():
    def make(item):
        if item[0] == "forced-false":
            return (lambda: {"equal": False}), worker._flag("equal")
        if item[0] == "raises":
            return (lambda: 1 // 0), worker._flag("equal")
        return worker.runner(item)

    items = [("claim1", 2), ("forced-false",), ("guard", [2]), ("raises",)]
    result = worker.run_pass(items, make=make)
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert len(result["latencies"]) == 4


def test_same_outputs_give_same_digest():
    assert worker.run_pass(SMALL_ITEMS[:4])["digest"] == worker.run_pass(SMALL_ITEMS[:4])["digest"]


def test_layer_self_times_fit_in_traced_wall():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = worker.run_pass(SMALL_ITEMS, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    metrics = tracing.layer_metrics([{"spans": tracer.spans, "counts": tracer.counts}])
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= sum(result["latencies"])
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] > 0 or layer == "cli.main", layer
    assert metrics["operators.trials"] == 4
    assert metrics["operators.accept_ratio"] == 4 / metrics["operators.attempts"]
    assert metrics["fixedpoint.guard.contexts"] == 4
    assert metrics["dpr.build.terms"] > 0 and metrics["dpr.eval.terms"] > 0


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert tracing.self_times(spans) == {"a": (2, 7.0), "b": (2, 3.0)}


def test_uninstall_restores_every_patched_name():
    before = (dpr.build_gx, dprkit.cli.build_gx, dprkit.cli._BUILDERS["GX"],
              algebra.Polynomial.__dict__["__radd__"], dprkit.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert dprkit.cli._BUILDERS["GX"] is not before[2]
    assert algebra.Polynomial.__dict__["__radd__"] is algebra.Polynomial.__dict__["__add__"]
    tracer.uninstall()
    after = (dpr.build_gx, dprkit.cli.build_gx, dprkit.cli._BUILDERS["GX"],
             algebra.Polynomial.__dict__["__radd__"], dprkit.cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_traced_cli_prints_what_the_cli_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = ["fixedpoint", "claim1", "--case", "3"]
    plain = subprocess.run([sys.executable, "-m", "dprkit.cli", *args],
                           env=env, capture_output=True, check=True)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "trace_cli.py"), str(spans), *args],
                            env=env, capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    dump = json.loads(spans.read_text())
    assert {s[0] for s in dump["spans"]} >= {"item", "cli.main", "fixedpoint.table"}


def test_clock_scales_by_the_bracketing_calibrations():
    # calibrations read 20 ms and 40 ms against a 30 ms reference: factor 1
    lengths = iter([0.02, 0.04])
    clock = hostspeed.Clock(lambda: time.sleep(next(lengths)), reference_s=0.03)
    clock.calibrate()
    start = time.perf_counter()
    time.sleep(0.01)
    seconds = time.perf_counter() - start
    clock.calibrate(force=True)
    assert clock.scale(start, seconds) == pytest.approx(seconds, rel=0.2)
    with pytest.raises(ValueError):
        clock.scale(time.perf_counter(), 0.001)  # no calibration after it yet


def test_same_seed_gives_same_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.ITEMS[workload](7) == inputs.ITEMS[workload](7)


def test_other_seed_changes_verifier_seeds_and_command_mix():
    def verifier_seeds(items):
        return sorted(item[-1] for item in items if item[0] in ("step", "full", "mixed"))

    def shapes(items):
        return sorted(item[:-1] if item[0] in ("step", "full", "mixed") else item
                      for item in items)

    one, two = inputs.verify_items(1), inputs.verify_items(2)
    assert verifier_seeds(one) != verifier_seeds(two)
    assert shapes(one) == shapes(two)  # the seed moves values, not the amount of work
    assert inputs.cli_items(1) != inputs.cli_items(2)
    assert len(inputs.cli_items(2)) == inputs.CLI_PASS_COMMANDS
