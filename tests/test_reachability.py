"""The reachability gate: every code object in `src/dprkit` is run by the CLI
or allowlisted with a reason.

The commands are one pinned command per leaf of the CLI in both formats
(`selftest` included; the mixed verifier has three, since no one (n, m)
takes all of its branches) and every error command of
`tests/test_cli_contract.py` (`ERRORS` and `USAGE_ERRORS`).  Two fresh interpreters share them out;
each installs a call-only `sys.setprofile` hook before `import dprkit.cli`
and runs its first command through `python -m dprkit`'s `__main__`, the
rest through `cli.main`.  Every `.py` file of the package is then compiled
and its code objects walked through `co_consts`.  Each is keyed
"module:Qualified.name" from the nesting, with "#2", "#3", ... on a name
that repeats in one scope, such as a second lambda.  A code object counts
as reached when a frame of it started: the hook matches frames to compiled
code by file, first line and name, and the line never enters a key.

Code nested inside an allowlisted entry is covered by the entry.  An entry
that is reached, or that names code which no longer exists, fails the gate
too, so the list cannot go stale.

A line probe checks that the mixed runs reach the mixed verifier's blocks
that start no code object of their own (`MIXED_BLOCKS`).

`selftest` alone, in both formats, is traced the same way: the library code
it never starts is pinned in `SELFTEST_UNREACHED`, so that list cannot grow
silently.
"""

import importlib.util
import inspect
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dprkit import cli, fixedpoint
from test_cli_contract import (ERRORS, LEAVES, MIXED_ALL_GOOD, MIXED_ONE_GOOD, PINNED,
                               USAGE_ERRORS)

SRC = Path(cli.__file__).resolve().parents[1]

# one pinned command per leaf, each run in both formats; where a leaf has
# several, the one that takes a path the others and `selftest` do not.  The
# mixed verifier has three: no one (n, m) takes both the m == 1 branch and
# the last-class solve (see `MIXED_BLOCKS`)
LEAF_RUNS = [
    "fgl show --mode multiplicative --order 4",
    "fgl inverse --mode universal --order 4",
    "fgl nfold --mode universal -n 3 --order 3",
    "fgl divide -n 3 --order 6 --denominator-profile",
    "fgl relations --order 5",
    "gdpr build GX -n 2 -m 1",
    "gdpr check padding -n 2 -m 2 --big-n 4 --big-m 3",
    "verify step -n 3 --seed 9 --trials 4",
    "verify full -n 2 -m 3 --seed 5 --trials 4 --range 50",
    "verify mixed -n 3 -m 2 --seed 5 --trials 4",
    MIXED_ALL_GOOD,
    MIXED_ONE_GOOD,
    "fixedpoint claim1 --case 1",
    "fixedpoint allbad -n 2 -m 1",
    "fixedpoint guard --group 2",
    "selftest",
]

COMMANDS = ([f"{run} --format {fmt}" for run in LEAF_RUNS for fmt in ("json", "text")]
            + list(ERRORS) + USAGE_ERRORS)

_TRACED_FOR = "named by perfbench/tracing.py LAYERS, which a benchmark change must re-point first"

# code no command runs: key -> why it stays
ALLOWED = {
    "dpr:DprPolynomial.sorted_terms": f"the tests' export oracle; {_TRACED_FOR}",
    "fixedpoint:fprime_eval": f"the table applied to a whole polynomial, a test oracle; {_TRACED_FOR}",
    "algebra:Polynomial.__rsub__": f"int - Polynomial; {_TRACED_FOR}",
    "algebra:Polynomial.evaluate_rational": f"the tests' slow evaluation of a table image; "
                                            f"{_TRACED_FOR}",
    "fgl:custom_mode": "a benchmark input (perfbench/worker.py); the CLI has no custom mode",
    "algebra:Immutable.__setattr__": "the one guard of the value classes: it runs only on a "
                                     "mistaken assignment",
    **dict.fromkeys(["algebra:CoeffRing.__repr__", "algebra:VarSymbol.__repr__",
                     "algebra:Monomial.__repr__", "algebra:Polynomial.__repr__",
                     "dpr:DprPolynomial.__repr__", "fgl:FglMode.__repr__",
                     "fgl:TruncatedSeries.__repr__", "operators:VerificationReport.__repr__"],
                    "a repr, for debugging and test failure messages"),
}

_NO_CRITERION = "no selftest criterion runs {}: ROADMAP item 10"

# library code outside ALLOWED that `selftest` never starts, in either format:
# key -> why; code nested in a listed key is not listed again
SELFTEST_UNREACHED = {
    **dict.fromkeys(["fixedpoint:verify_mixed_contexts", "fixedpoint:_mixed_trial",
                     "fixedpoint:_mixed_context", "fixedpoint:_walk",
                     "fixedpoint:_sample_degenerate", "fixedpoint:_image_value"],
                    _NO_CRITERION.format("the mixed verifier")),
    **dict.fromkeys(["dpr:ordered_terms", "dpr:dpr_to_json",
                     "dpr:DprPolynomial.distinct_coefficients",
                     "dpr:_flat_rows", "dpr:_names_down"],
                    _NO_CRITERION.format("relation output")),
    **dict.fromkeys(["algebra:VarSymbol.__str__", "algebra:Monomial.__str__",
                     "algebra:Polynomial.__str__", "algebra:coeff_to_json",
                     "algebra:canonical_json", "fgl:series_to_json",
                     "operators:VerificationReport.to_json"],
                    "renders a single document: output, not a check"),
    **dict.fromkeys(["fgl:multiplicative_mode", "fixedpoint:parse_group_spec"],
                    "reads a CLI input that selftest does not take"),
}

# runs in a fresh interpreter: the commands come in as a JSON list of argv
# lists in sys.argv[1], and {key: reached} goes out on stdout
_TRACE = r"""
import io, json, os, runpy, sys, types

commands = json.loads(sys.argv[1])
started = set()


def hook(frame, event, arg):
    if event == "call":
        started.add(frame.f_code)


sys.setprofile(hook)
import dprkit.cli

out, err = sys.stdout, sys.stderr
for i, argv in enumerate(commands):
    sys.stdout = sys.stderr = io.StringIO()
    try:
        if i == 0:
            sys.argv = ["dprkit", *argv]
            runpy.run_module("dprkit", run_name="__main__")
        else:
            dprkit.cli.main(argv)
    except SystemExit:
        pass
sys.setprofile(None)
sys.stdout, sys.stderr = out, err

reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in started}


def keyed(code, prefix, out):
    repeats = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            count = repeats[const.co_name] = repeats.get(const.co_name, 0) + 1
            key = prefix + const.co_name + ("" if count == 1 else f"#{count}")
            out[key] = const
            keyed(const, key + ".", out)
    return out


package = os.path.dirname(os.path.realpath(dprkit.cli.__file__))
result = {}
for name in sorted(os.listdir(package)):
    if name.endswith(".py"):
        path = os.path.join(package, name)
        with open(path) as f:
            top = compile(f.read(), path, "exec", dont_inherit=True)
        module = name[:-3]
        codes = keyed(top, module + ":", {module + ":<module>": top})
        for key, code in codes.items():
            result[key] = (path, code.co_firstlineno, code.co_name) in reached
json.dump({"package": package, "reached": result}, sys.stdout)
"""


def trace(src: Path, commands: list[str] = COMMANDS) -> dict[str, bool]:
    """{key: reached} for the dprkit package under `src`.

    The commands are dealt to two interpreters that run side by side (with
    `COMMANDS`, one `selftest` each), and a code object counts as reached
    if either ran it.
    """
    procs = [subprocess.Popen([sys.executable, "-c", _TRACE,
                               json.dumps([c.split() for c in commands[half::2]])],
                              cwd=src, env={**os.environ, "PYTHONPATH": str(src)},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for half in (0, 1)]
    outputs = [proc.communicate() for proc in procs]
    reached: dict[str, bool] = {}
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err.decode()
        doc = json.loads(out)
        assert Path(doc["package"]) == (src / "dprkit").resolve()
        for key, hit in doc["reached"].items():
            reached[key] = reached.get(key, False) or hit
    return reached


def failures(reached: dict[str, bool], allowed: dict[str, str]) -> list[str]:
    out = [f"unreached: {key}" for key, hit in reached.items()
           if not hit and not any(key == a or key.startswith(a + ".") for a in allowed)]
    for key in allowed:
        if key not in reached:
            out.append(f"allowlisted but missing: {key}")
        elif reached[key]:
            out.append(f"allowlisted but reached: {key}")
    return out


@pytest.fixture(scope="module")
def reached():
    return trace(SRC)


def test_the_commands_are_pinned_one_per_leaf_and_format():
    # every leaf in order; a leaf with several runs lists them together
    leaves = [" ".join(run.split()[:1 if run == "selftest" else 2]) for run in LEAF_RUNS]
    assert [leaf for leaf, _ in itertools.groupby(leaves)] == LEAVES
    assert all(command in PINNED for command in COMMANDS[:2 * len(LEAF_RUNS)])


# blocks of the mixed verifier that start no code object of their own, so
# the gate above counts them as run once their function starts: name ->
# (function, the block's one line that only it runs)
MIXED_BLOCKS = {
    "_walk's all-good step": (fixedpoint._walk, "p, q = blow_up(p, q, c, s1, p2 - p3)"),
    "_mixed_trial's m == 1 branch": (fixedpoint._mixed_trial,
                                     "point[c_symbol(y_names[0])] = t"),
    "_mixed_trial's last-class solve": (fixedpoint._mixed_trial,
                                        "point[c_symbol(last)] = a if b == 1 else Fraction(a, b)"),
}


def _line_of(function, text: str) -> int:
    lines, first = inspect.getsourcelines(function)
    found = [first + i for i, line in enumerate(lines) if line.strip() == text]
    assert len(found) == 1, (function.__name__, text)
    return found[0]


def test_the_mixed_runs_reach_every_mixed_block(capsys):
    # a line probe over the pinned mixed runs, in process
    wanted = {name: (function.__code__, _line_of(function, text))
              for name, (function, text) in MIXED_BLOCKS.items()}
    codes = {code for code, _ in wanted.values()}
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code in codes else None)
    try:
        for run in LEAF_RUNS:
            if run.startswith("verify mixed"):
                assert cli.main(run.split()) == 0, run
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert [name for name, line in wanted.items() if line not in ran] == []


def test_every_code_object_is_reached_or_allowlisted(reached):
    assert failures(reached, ALLOWED) == []
    assert all(ALLOWED.values())


def test_what_selftest_never_starts_is_pinned():
    # the list may shrink as selftest grows, but never grow silently
    reached = trace(SRC, ["selftest --format json", "selftest --format text"])
    unreached = [f.removeprefix("unreached: ") for f in failures(reached, ALLOWED)
                 if f.startswith("unreached: ") and not f.startswith("unreached: cli:")]
    outermost = {key for key in unreached
                 if not any(key.startswith(other + ".") for other in unreached)}
    assert outermost == set(SELFTEST_UNREACHED)
    assert all(SELFTEST_UNREACHED.values())


def test_gate_names_an_added_function_nothing_calls(tmp_path):
    shutil.copytree(SRC / "dprkit", tmp_path / "dprkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "dprkit" / "dpr.py", "a") as f:
        f.write("\n\ndef _nothing_calls_this():\n    return 0\n")
    assert failures(trace(tmp_path), ALLOWED) == ["unreached: dpr:_nothing_calls_this"]


def test_gate_fails_on_stale_allowlist_entries(reached):
    stale = {**ALLOWED, "dpr:gone": "deleted code", "cli:main": "reached code"}
    assert failures(reached, stale) == ["allowlisted but missing: dpr:gone",
                                        "allowlisted but reached: cli:main"]


def test_traced_entries_are_named_by_the_tracer():
    # an entry kept only for the tracer goes once the tracer stops naming it;
    # tracing.py is loaded by path and only read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    named = {f"{module.removeprefix('dprkit.')}:{entry}"
             for module, entries in tracing.LAYERS.values() for entry in entries}
    traced = [key for key, why in ALLOWED.items() if _TRACED_FOR in why]
    assert traced and [key for key in traced if key not in named] == []
