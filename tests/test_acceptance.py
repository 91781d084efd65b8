"""Top-level acceptance run: one test per shipped criterion.

Each test executes the corresponding entry of the acceptance battery,
prints a single timed PASS/FAIL line, and enforces the wall-clock budget.
Criterion 6 checks the all-bad row of the fixed-point table against the
invariant GX(n, m) = GY(m, n) = c*(1 - F^X_n*F^Y_m), where c is the value of
the total class: with every divisor bad the chains solve at c = 1 with
F_n = [n >= 2], so the common value is 1 when min(n, m) = 1 and 0 otherwise.
A tampered table must turn the criterion red, and `dprkit selftest` exits 0.
"""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dprkit import acceptance, dpr, fgl, fixedpoint
from dprkit.acceptance import run_criterion
from dprkit.algebra import Polynomial, VarSymbol

BUDGETS = {1: 1.0, 2: 10.0, 3: 30.0, 4: 10.0, 5: 60.0, 6: 10.0, 7: 2.0}


def run_timed(number):
    start = time.perf_counter()
    result = run_criterion(number)
    elapsed = time.perf_counter() - start
    budget = BUDGETS[number]
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {number}: {verdict} in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"
    assert result.passed, "; ".join(result.details)


def test_criterion_1_base_cases():
    run_timed(1)


def test_criterion_2_structural_invariants():
    run_timed(2)


def test_criterion_3_formal_group_law_arithmetic():
    run_timed(3)


def test_criterion_4_associativity_residues():
    run_timed(4)


def test_criterion_5_sampled_reduction_identities():
    run_timed(5)


def test_criterion_results_are_immutable():
    result = run_criterion(1)
    with pytest.raises(AttributeError):
        result.passed = False
    with pytest.raises(AttributeError):
        result.details = ()


def test_criterion_6_fixed_point_evaluation_table():
    # All-bad common value c*(1 - F^X_n*F^Y_m) at c = 1: it is 0 once min(n, m) >= 2.
    run_timed(6)


@pytest.mark.parametrize("marker, value", [(1, 3), (3, 4)])
def test_criterion_6_fails_on_a_tampered_table(monkeypatch, marker, value):
    table = dict(fixedpoint.ALL_BAD_VALUES)
    table["U", marker] = table["V", marker] = value
    monkeypatch.setattr(fixedpoint, "ALL_BAD_VALUES", table)
    result = run_criterion(6)
    assert result.passed is False
    failed = [d for d in result.details if d.startswith("FAIL")]
    assert any("chain closed form" in d for d in failed), result.details
    assert any("c*(1 - F^X_n*F^Y_m)" in d for d in failed), result.details


def test_criterion_7_dimension_truncated_evaluation():
    run_timed(7)


# criterion, the name it reads, a wrong stand-in, the one FAIL line expected
TAMPERED_INPUTS = [
    (1, "build_gy", lambda m, n: dpr.build_gx(m, n), "FAIL: one-and-two mirrored form"),
    (3, "inverse_series", lambda mode, order: fgl.n_fold_sum(mode, 2, order),
     "FAIL: inverse cancels"),
    # a residue a11 survives the multiplicative law (a11 -> beta) only
    (4, "associativity_relations",
     lambda mode, order: {**fgl.associativity_relations(mode, order),
                          (2, 2, 2): Polynomial.variable(VarSymbol("a", (1, 1)))},
     "FAIL: multiplicative specialization vanishes"),
    (7, "additive_mode", fgl.universal_mode, "FAIL: additive law sums the classes"),
]


@pytest.mark.parametrize("number, name, tampered, line", TAMPERED_INPUTS,
                         ids=[f"{t[0]}-{t[1]}" for t in TAMPERED_INPUTS])
def test_criterion_fails_on_a_tampered_input(monkeypatch, number, name, tampered, line):
    monkeypatch.setattr(acceptance, name, tampered)
    result = run_criterion(number)
    assert result.passed is False
    assert [d for d in result.details if d.startswith("FAIL")] == [line], result.details


def test_criterion_8_selftest_byte_determinism(cli_env):
    argv = [sys.executable, "-m", "dprkit.cli", "selftest"]
    start = time.perf_counter()
    first = subprocess.run(argv, capture_output=True, env=cli_env)
    second = subprocess.run(argv, capture_output=True, env=cli_env)
    elapsed = time.perf_counter() - start
    print(f"criterion 8: two selftest runs in {elapsed:.2f}s")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert [c["number"] for c in doc["criteria"]] == list(range(1, 8))
    assert doc["pass"] is True


def test_invariants_are_typed_errors_not_asserts(cli_env):
    # `python -O` strips assert statements, so a check written as one would
    # silently vanish; the selftest must print the same bytes either way
    runs = [subprocess.run([sys.executable, *flags, "-m", "dprkit", "selftest"],
                           capture_output=True, env=cli_env) for flags in ([], ["-O"])]
    assert [r.returncode for r in runs] == [0, 0] and runs[0].stdout
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr == b""
    package = Path(fixedpoint.__file__).parent
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
