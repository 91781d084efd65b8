"""End-to-end checks of the command-line interface.

Most tests drive main() in process and parse the captured JSON; a couple go
through a real subprocess to pin down byte determinism of stdout.
"""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from dprkit import cli, dpr, fgl, fixedpoint, operators
from dprkit.acceptance import CRITERIA, report_json, report_text, run_all
from dprkit.algebra import Monomial, Polynomial, canonical_json


def run(argv):
    # Usage errors surface as SystemExit(2) from argparse; normalize.
    try:
        return cli.main(argv)
    except SystemExit as e:
        return int(e.code)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, json.loads(out.out) if out.out else None, out.err


def test_build_gx_2_1_matches_expected_terms(capsys):
    code, doc, err = run_json(capsys, ["gdpr", "build", "GX", "-n", "2", "-m", "1"])
    assert code == 0 and err == ""
    monos = [term["monomial"] for term in doc["terms"]]
    assert {"X[1]": 1} in monos and {"X[2]": 1} in monos
    assert {"X[1]": 1, "X[2]": 1, "U[1][1]": 1} in monos
    assert {"X[1]": 1, "X[2]": 1, "Y[1]": 1, "U[2][2]": 1} in monos
    assert {"X[1]": 1, "X[2]": 1, "Y[1]": 1, "U[3][2]": 1} in monos
    assert len(monos) == 5


def test_divide_by_two_first_coefficient_is_one_half(capsys):
    code, doc, _ = run_json(capsys, ["fgl", "divide", "-n", "2", "--order", "1"])
    assert code == 0
    assert doc["vars"] == ["u"] and doc["order"] == 1
    (entry,) = doc["coeffs"]
    assert entry["exp"] == [1]
    (term,) = entry["poly"]["terms"]
    assert term["coeff"] == {"num": "1", "den": "2"} and term["monomial"] == {}


def test_claim1_case_five_reports_equality(capsys):
    code, doc, _ = run_json(capsys, ["fixedpoint", "claim1", "--case", "5"])
    assert code == 0
    assert doc == {"case": 5, "lhs": 1, "rhs": 1, "equal": True}


def test_verify_step_requires_seed(capsys):
    code, doc, err = run_json(capsys, ["verify", "step", "-n", "3", "--trials", "2"])
    assert code == 2 and doc is None
    assert "--seed" in json.loads(err)["error"]


def test_verify_commands_report_pass(capsys):
    code, doc, _ = run_json(
        capsys, ["verify", "step", "-n", "3", "--seed", "9", "--trials", "4"])
    assert code == 0 and doc["pass"] is True and doc["seed"] == 9
    code, doc, _ = run_json(
        capsys, ["verify", "full", "-n", "2", "-m", "3", "--seed", "5",
                 "--trials", "4", "--range", "50"])
    assert code == 0 and doc["pass"] is True
    assert doc["identity"] == "full" and doc["sample_range"] == 50


@pytest.mark.parametrize("extra", [["--trials", "0"], ["--trials", "-5"], ["--range", "0"]])
def test_verify_rejects_checks_that_cannot_fail(capsys, extra):
    # no trial at all, or samples only at the origin, would report a pass
    code, doc, err = run_json(capsys, ["verify", "step", "-n", "3", "--seed", "1", *extra])
    assert code == 2 and doc is None
    assert json.loads(err)["error"].startswith("ValueError")


def test_gdpr_checks_all_pass(capsys):
    for which in ("multilinear", "bounds", "weight", "mirror"):
        code, doc, _ = run_json(capsys, ["gdpr", "check", which, "-n", "3", "-m", "2"])
        assert code == 0 and doc["pass"] is True, which
    code, doc, _ = run_json(
        capsys, ["gdpr", "check", "padding", "-n", "2", "-m", "2",
                 "--big-n", "4", "--big-m", "3"])
    assert code == 0 and doc["pass"] is True and doc["big_n"] == 4


def test_padding_needs_embedding_counts(capsys):
    code, doc, err = run_json(capsys, ["gdpr", "check", "padding", "-n", "2", "-m", "2"])
    assert code == 2 and doc is None
    assert "--big-n" in json.loads(err)["error"]


def test_guard_group_specs(capsys):
    code, doc, _ = run_json(capsys, ["fixedpoint", "guard", "--group", "2x2"])
    assert code == 0
    assert doc == {"group": [2, 2], "contexts": 16, "holds": True}
    code, doc, err = run_json(capsys, ["fixedpoint", "guard", "--group", "banana"])
    assert code == 2 and "banana" in json.loads(err)["error"]


def test_guard_reports_an_exactly_one_bad_context(capsys, monkeypatch):
    # A + B reads bad even when A and B are good: exactly one bad member
    real = fixedpoint.GoodnessContext.good
    monkeypatch.setattr(fixedpoint.GoodnessContext, "good",
                        lambda ctx, combo: real(ctx, combo) and tuple(combo) != ("A", "B"))
    code = run(["fixedpoint", "guard", "--group", "2"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert json.loads(out.out) == {"group": [2], "contexts": 4, "holds": False}


def test_allbad_equality_and_values(capsys):
    code, doc, _ = run_json(capsys, ["fixedpoint", "allbad", "-n", "2", "-m", "1"])
    assert code == 0 and doc["equal"] is True and doc["lhs"] == 1
    code, doc, _ = run_json(capsys, ["fixedpoint", "allbad", "-n", "2", "-m", "2"])
    assert code == 0 and doc["equal"] is True and doc["lhs"] == 0


def test_domain_error_exits_two(capsys):
    code, doc, err = run_json(capsys, ["gdpr", "build", "GX", "-n", "0", "-m", "1"])
    assert code == 2 and doc is None
    assert json.loads(err)["error"].startswith("ValueError")


def test_index_past_the_mask_form_exits_two_at_once(capsys):
    # the mask form holds indices 1 to 16: index 17 is refused before any
    # term is built, where the recursion would start on 3^16 flat terms
    start = time.perf_counter()
    code, doc, err = run_json(capsys, ["gdpr", "build", "EX", "-n", "17"])
    elapsed = time.perf_counter() - start
    assert code == 2 and doc is None
    assert json.loads(err)["error"].startswith("ValueError")
    assert elapsed < 0.5, elapsed


def test_inconsistent_solve_exits_three(capsys, monkeypatch):
    # a broken invariant is a bug in dprkit, not a false check: exit 3.  A
    # chain walk whose last step has a bad combined class, which pins the
    # value to 1, returns 2
    real = fixedpoint._walk

    def tampered(ctx, names, classes, *rest):
        value = real(ctx, names, classes, *rest)
        if classes < 2:
            return value
        case, _ = fixedpoint._step_goodness(ctx, names, classes)
        return value if case in ("all", "full") else Fraction(2)

    monkeypatch.setattr(fixedpoint, "_walk", tampered)
    code, doc, err = run_json(capsys, ["verify", "mixed", "-n", "2", "-m", "2", "--seed", "1"])
    assert code == 3 and doc is None
    assert json.loads(err)["error"] == ("InconsistentSolve: first-family chain gave 2 where a "
                                        "bad total class pins it to 1")


@pytest.mark.parametrize("error, code", [(MemoryError, 2), (BrokenPipeError, 2), (TypeError, 3)])
def test_unforeseen_errors_do_not_exit_one(capsys, monkeypatch, error, code):
    # exit 1 means a check found false; running out of memory is a limit the
    # command hit, like a domain error, and so is a stdout whose reader has
    # gone; any other escape is a bug.  An in-process caller keeps its stdout
    def fail(case):
        raise error("from the handler")

    monkeypatch.setattr(fixedpoint, "claim1_case_check", fail)
    stdout = sys.stdout
    got, doc, err = run_json(capsys, ["fixedpoint", "claim1", "--case", "5"])
    assert sys.stdout is stdout
    assert got == code and doc is None
    assert json.loads(err) == {"error": f"{error.__name__}: from the handler"}


@pytest.mark.parametrize("args", [["gdpr", "build", "GX", "-n", "5", "-m", "5"],
                                  ["fixedpoint", "claim1", "--case", "5"]])
@pytest.mark.parametrize("close_stderr", [False, True])
def test_a_closed_stdout_exits_two(cli_env, args, close_stderr):
    # a reader that has gone, as `| head` leaves it, is a usage of the pipe,
    # not a bug: exit 2 with the OS message, and nothing more at shutdown.
    # A long document meets it in a large write; a short one is still
    # buffered when the command returns, and meets it at main's flush.  With
    # stderr closed as well nothing raises, so the exit code stays 2
    env = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
    read_out, write_out = os.pipe()
    os.close(read_out)
    read_err, write_err = os.pipe()
    if close_stderr:
        os.close(read_err)
    with subprocess.Popen([sys.executable, "-m", "dprkit", *args],
                          stdout=write_out, stderr=write_err, env=env) as proc:
        os.close(write_out)
        os.close(write_err)
        if not close_stderr:
            with os.fdopen(read_err, "rb") as err:
                assert err.read() == canonical_json(
                    {"error": "BrokenPipeError: [Errno 32] Broken pipe"}).encode()
        assert proc.wait(timeout=60) == 2


def test_stray_m_rejected(capsys):
    code, _, err = run_json(capsys, ["gdpr", "build", "EX", "-n", "2", "-m", "1"])
    assert code == 2 and "-m" in json.loads(err)["error"]


def test_stray_embedding_counts_rejected(capsys):
    # --big-n and --big-m mean something to padding only
    for which in ("multilinear", "bounds", "weight", "mirror"):
        for flag in ("--big-n", "--big-m"):
            code, doc, err = run_json(
                capsys, ["gdpr", "check", which, "-n", "2", "-m", "2", flag, "5"])
            assert code == 2 and doc is None, (which, flag)
            assert json.loads(err)["error"] == f"{flag} does not apply to {which}"


def test_gx_requires_m(capsys):
    code, _, err = run_json(capsys, ["gdpr", "build", "GX", "-n", "2"])
    assert code == 2 and "-m" in json.loads(err)["error"]


def test_unknown_command_exits_two(capsys):
    code, _, err = run_json(capsys, ["nosuch"])
    assert code == 2 and "error" in json.loads(err)


def test_text_format_listing(capsys):
    code = run(["gdpr", "build", "EX", "-n", "2", "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == "-1  X[1]*X[2]*U[1][1]\n"
    code = run(["fgl", "relations", "--order", "4", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(1,1,2)" in out and "(2,1,1)" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_relation_output_makes_no_monomial(capsys, monkeypatch, fmt):
    # both renderings format what dpr.ordered_terms gives; the Polynomial
    # route is only the tests' oracle
    def refuse(*args, **kwargs):
        raise AssertionError("a Monomial or Polynomial was made")

    argv = ["gdpr", "build", "GX", "-n", "3", "-m", "2", "--format", fmt]
    assert run(argv) == 0
    before = capsys.readouterr().out
    for owner, name in ((dpr.DprPolynomial, "to_polynomial"), (dpr.DprPolynomial, "sorted_terms"),
                        (Monomial, "__init__"), (Monomial, "_raw"),
                        (Polynomial, "__init__"), (Polynomial, "_raw")):
        monkeypatch.setattr(owner, name, refuse)
    assert run(argv) == 0
    assert capsys.readouterr() == (before, "")


def test_nfold_scales_the_linear_coefficient(capsys):
    code, doc, _ = run_json(capsys, ["fgl", "nfold", "-n", "3", "--order", "2"])
    assert code == 0
    linear = [c for c in doc["coeffs"] if c["exp"] == [1]]
    (term,) = linear[0]["poly"]["terms"]
    assert term == {"coeff": {"num": "3", "den": "1"}, "monomial": {}}


@pytest.mark.parametrize("argv", [
    ["fgl", "nfold", "-n", "600", "--order", "3"],
    ["fgl", "divide", "-n", "600", "--order", "2"],
])
def test_many_summands_do_not_overflow_the_stack(capsys, argv):
    code, doc, err = run_json(capsys, argv)
    assert code == 0 and err == ""
    (term,) = doc["coeffs"][0]["poly"]["terms"]
    assert term["coeff"] == ({"num": "600", "den": "1"} if argv[1] == "nfold"
                             else {"num": "1", "den": "600"})


def test_denominator_profile_shape(capsys):
    code, doc, _ = run_json(
        capsys, ["fgl", "divide", "-n", "2", "--order", "4",
                 "--denominator-profile"])
    assert code == 0 and doc["n"] == 2
    profile = doc["profile"]
    assert [i for i, _ in profile] == [1, 2, 3, 4]
    assert profile[0] == [1, 1]
    ks = [k for _, k in profile]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_inverse_series_command(capsys):
    code, doc, _ = run_json(capsys, ["fgl", "inverse", "--order", "3"])
    assert code == 0 and doc["vars"] == ["u"]
    linear = [c for c in doc["coeffs"] if c["exp"] == [1]]
    (term,) = linear[0]["poly"]["terms"]
    assert term["coeff"] == {"num": "-1", "den": "1"}


def test_repeat_runs_are_identical_in_process(capsys):
    first = run(["verify", "full", "-n", "2", "-m", "2", "--seed", "42"])
    out1 = capsys.readouterr().out
    second = run(["verify", "full", "-n", "2", "-m", "2", "--seed", "42"])
    out2 = capsys.readouterr().out
    assert (first, out1) == (second, out2) and first == 0


def test_subprocess_output_is_byte_deterministic(cli_env):
    argv = [sys.executable, "-m", "dprkit.cli", "fgl", "show",
            "--mode", "universal", "--order", "4"]
    runs = [subprocess.run(argv, capture_output=True, env=cli_env) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
    assert runs[0].stderr == b""


def test_python_m_dprkit_runs_the_cli(cli_env):
    args = ["fgl", "show", "--order", "3"]
    package = subprocess.run([sys.executable, "-m", "dprkit", *args],
                             capture_output=True, env=cli_env)
    module = subprocess.run([sys.executable, "-m", "dprkit.cli", *args],
                            capture_output=True, env=cli_env)
    assert package.returncode == 0 and package.stderr == b""
    assert package.stdout == module.stdout and package.stdout
    usage = subprocess.run([sys.executable, "-m", "dprkit", "nosuch"],
                           capture_output=True, env=cli_env)
    assert usage.returncode == 2 and "error" in json.loads(usage.stderr)


# runs one command the way `python -m dprkit.cli` does, then reports on
# stderr the top-level packages outside the standard library that it
# imported (site .pth files may load some before dprkit, so only the
# modules new since the start count), the dprkit modules it executed (a
# layer the command never used is still a lazy stub, not a plain module),
# and which of dataclasses, inspect and json, slow to import, it loaded
_MAIN_THEN_REPORT_IMPORTS = """
import sys, types
before = set(sys.modules)
import dprkit.cli
code = dprkit.cli.main(sys.argv[1:])
new = set(sys.modules) - before
roots = {name.partition(".")[0] for name in new}
executed = {name for name, module in sys.modules.items()
            if name.startswith("dprkit.") and type(module) is types.ModuleType}
heavy = new & {"dataclasses", "inspect", "json"}
sys.stderr.write(repr((sorted(roots - sys.stdlib_module_names), sorted(executed),
                       sorted(heavy))))
raise SystemExit(code)
"""

# the dprkit modules each command group, or a command named apart,
# executes; cli imports these three
_EAGER = {"dprkit.cli", "dprkit.algebra", "dprkit.dpr"}
_EXECUTED = {
    "fgl": _EAGER | {"dprkit.fgl"},
    "gdpr": _EAGER,
    "verify": _EAGER | {"dprkit.operators"},
    "verify mixed": _EAGER | {"dprkit.operators", "dprkit.fixedpoint"},
    "fixedpoint": _EAGER | {"dprkit.operators", "dprkit.fixedpoint"},
    "selftest": _EAGER | {"dprkit.fgl", "dprkit.operators", "dprkit.fixedpoint",
                      "dprkit.acceptance"},
}


def run_reporting_imports(cli_env, argv):
    return subprocess.run([sys.executable, "-c", _MAIN_THEN_REPORT_IMPORTS, *argv],
                          capture_output=True, env=cli_env)


@pytest.mark.parametrize("argv", [
    ["fgl", "show", "--order", "4"],
    ["fgl", "divide", "-n", "3", "--order", "4", "--denominator-profile"],
    ["fgl", "relations", "--order", "4"],
    ["verify", "step", "-n", "3", "--seed", "1"],
    ["verify", "full", "-n", "2", "-m", "3", "--seed", "1"],
    ["verify", "mixed", "-n", "2", "-m", "3", "--seed", "1"],
    ["fixedpoint", "allbad", "-n", "3", "-m", "2"],
    ["fixedpoint", "guard", "--group", "2x2"],
    ["fixedpoint", "claim1", "--case", "1"],
    ["gdpr", "build", "GX", "-n", "3", "-m", "2"],
    ["gdpr", "build", "EX", "-n", "9"],
    ["gdpr", "check", "mirror", "-n", "4", "-m", "4"],
    ["gdpr", "check", "padding", "-n", "1", "-m", "2", "--big-n", "4", "--big-m", "4"],
    # the structural checks run on int masks at every size
    *[pytest.param(["gdpr", "check", which, "-n", "8", "-m", "8"],
                   id=f"gdpr check {which} -n 8 -m 8")
      for which in ("multilinear", "bounds", "weight", "mirror")],
    pytest.param(["gdpr", "check", "padding", "-n", "2", "-m", "2", "--big-n", "9", "--big-m", "2"],
                 id="gdpr check padding --big-n 9 --big-m 2"),
    ["selftest"],
], ids=lambda argv: " ".join(argv[:3]))
def test_commands_import_only_the_standard_library(cli_env, argv):
    # the README contract: dprkit imports nothing outside the standard
    # library, a command executes only the layers it calls, and JSON output
    # loads neither dataclasses (and the inspect it imports) nor json
    proc = run_reporting_imports(cli_env, argv)
    assert proc.returncode == 0 and proc.stdout
    roots, executed, heavy = ast.literal_eval(proc.stderr.decode())
    assert roots == ["dprkit"]
    assert set(executed) == _EXECUTED.get(" ".join(argv[:2]), _EXECUTED[argv[0]])
    assert heavy == []
    if argv[:2] == ["gdpr", "check"]:
        assert json.loads(proc.stdout)["pass"] is True


def test_only_text_output_loads_json(cli_env):
    # --format text writes nested values with json.dumps, so json loads there
    proc = run_reporting_imports(cli_env, ["fixedpoint", "claim1", "--case", "1",
                                           "--format", "text"])
    assert proc.returncode == 0 and proc.stdout
    roots, executed, heavy = ast.literal_eval(proc.stderr.decode())
    assert roots == ["dprkit"]
    assert heavy == ["json"]


def test_build_prints_the_mask_engine_expansion(capsys):
    for argv, poly in [(["GX", "-n", "3", "-m", "2"], dpr.build_gx(3, 2)),
                       (["GY", "-n", "1", "-m", "4"], dpr.build_gy(1, 4)),
                       (["FY", "-n", "4"], dpr.build_fy(4)),
                       (["EX", "-n", "1"], dpr.build_ex(1))]:
        assert run(["gdpr", "build", *argv]) == 0
        assert capsys.readouterr().out == canonical_json(dpr.dpr_to_json(poly)), argv


def test_json_output_is_streamed_in_chunks(monkeypatch):
    # a long document reaches stdout a chunk at a time, never whole
    chunks = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=chunks.append,
                                                             flush=lambda: None))
    assert run(["gdpr", "build", "GX", "-n", "5", "-m", "5"]) == 0
    text = canonical_json(dpr.dpr_to_json(dpr.build_gx(5, 5)))
    assert len(chunks) > 2 and "".join(chunks) == text


def test_checks_pass_at_every_size(capsys):
    # one engine at every size: small, lopsided, and past index 8
    for n, m in [(1, 1), (4, 4), (5, 4), (1, 7), (2, 7), (9, 2), (2, 9)]:
        for which in ("multilinear", "bounds", "weight", "mirror"):
            code, doc, _ = run_json(capsys, ["gdpr", "check", which, "-n", str(n), "-m", str(m)])
            assert code == 0 and doc["pass"] is True, (which, n, m)
    for big_n, big_m in [(4, 4), (5, 4), (9, 3)]:
        code, doc, _ = run_json(capsys, ["gdpr", "check", "padding", "-n", "2", "-m", "3",
                                         "--big-n", str(big_n), "--big-m", str(big_m)])
        assert code == 0 and doc["pass"] is True, (big_n, big_m)


def test_failing_check_exits_one(capsys, monkeypatch):
    # a mirror that forgets the markers: the check is false, not an error.
    # Chains built afresh hold the tampered mirrors, not the cached ones.
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    monkeypatch.setattr(dpr, "_U", 0)
    monkeypatch.setattr(dpr, "_V", 0)
    code, doc, err = run_json(capsys, ["gdpr", "check", "mirror", "-n", "3", "-m", "2"])
    assert code == 1 and doc["pass"] is False and err == ""


def _subparser(parser, *names):
    for name in names:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return parser


def test_pair_checks_are_declared_once(capsys, monkeypatch):
    # `gdpr check` and criterion 2 both read dpr.PAIR_CHECKS
    (which,) = [a for a in _subparser(cli.build_parser(), "gdpr", "check")._actions
                if a.dest == "which"]
    assert which.choices == (*dpr.PAIR_CHECKS, "padding")
    monkeypatch.setitem(dpr.PAIR_CHECKS, "weight", lambda *a: False)
    assert not CRITERIA[2]().passed
    assert cli.main("gdpr check weight -n 2 -m 2".split()) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_selftest_prints_the_report_in_both_formats(capsys, monkeypatch):
    results = run_all()
    assert run(["selftest"]) == 0
    assert capsys.readouterr().out == canonical_json(report_json(results))
    assert run(["selftest", "--format", "text"]) == 0
    assert capsys.readouterr().out == report_text(results)
    # a wrong all-bad table turns criterion 6 red and the command exits 1
    table = dict(fixedpoint.ALL_BAD_VALUES)
    table["U", 1] = table["V", 1] = 3
    monkeypatch.setattr(fixedpoint, "ALL_BAD_VALUES", table)
    code = run(["selftest"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert '"pass": false' in out.out
    doc = json.loads(out.out)
    assert doc["pass"] is False
    assert [c["number"] for c in doc["criteria"] if not c["pass"]] == [6]


def test_resample_limit_exits_two(capsys, monkeypatch):
    # a trial whose every draw is degenerate is a domain error, not a fail
    def degenerate(t, f):
        raise operators.DegenerateSample("forced")

    monkeypatch.setattr(operators, "_solve_chain_value", degenerate)
    code = run(["verify", "step", "-n", "3", "--seed", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == canonical_json({"error": "ResampleLimitExceeded: trial 0 of step n=3"})


def test_mode_choices_cover_specializations(capsys):
    code, doc, _ = run_json(
        capsys, ["fgl", "show", "--mode", "additive", "--order", "5"])
    assert code == 0
    nonlinear = [c for c in doc["coeffs"] if sum(c["exp"]) > 1]
    assert nonlinear == []
    code, doc, _ = run_json(
        capsys, ["fgl", "show", "--mode", "multiplicative", "--order", "2"])
    assert code == 0
    cross = [c for c in doc["coeffs"] if c["exp"] == [1, 1]]
    (term,) = cross[0]["poly"]["terms"]
    assert term["monomial"] == {"beta": 1}


def test_mode_choices_are_the_law_names():
    # spelled out in cli so that building the parser does not execute fgl
    _, kwargs = cli._MODE
    assert kwargs["choices"] == tuple(sorted(fgl.MODE_NAMES))


# one entry point of each layer that dprkit.cli executes on first use
_LAZY_LAYERS = {"fgl": "law_series", "operators": "verify_step_identity",
                "fixedpoint": "all_bad_evaluation", "acceptance": "run_all"}


@pytest.mark.parametrize("form", [("import dprkit.{0}", "dprkit.{0}.{1}"),
                                  ("from dprkit import {0}", "{0}.{1}")],
                         ids=["import", "from"])
@pytest.mark.parametrize("name", _LAZY_LAYERS)
def test_lazy_layers_import_through_the_package(cli_env, name, form):
    # once dprkit.cli has put the layer in sys.modules unexecuted, either
    # import form executes it, as a first import would, and binds it on the
    # package; the benchmark's worker loads its layers this way
    statement, entry = (part.format(name, _LAZY_LAYERS[name]) for part in form)
    script = "\n".join([
        "import sys, types",
        "import dprkit.cli",
        f"module = sys.modules['dprkit.{name}']",
        "assert type(module) is not types.ModuleType",
        statement,
        "assert type(module) is types.ModuleType",
        f"assert dprkit.{name} is module",
        f"assert {entry} is vars(module)['{_LAZY_LAYERS[name]}']",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_lazy_returns_an_imported_module_unchanged():
    for name in _LAZY_LAYERS:
        module = importlib.import_module(f"dprkit.{name}")
        assert cli._lazy(name) is module
