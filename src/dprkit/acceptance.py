"""The package's acceptance suite: seven numbered criteria, one result each.

Every criterion is exact (integer or rational arithmetic, no tolerances) and
deterministic, so the rendered report is byte-stable across runs.  The
functions return structured results, and `report_json`/`report_text` turn
them into the JSON payload and the aligned text that `dprkit selftest`
prints through `cli._emit`.

Criterion 6 checks the all-bad row of the fixed-point table against the
relation it must respect.  Write T_n = S_n + E_n for a chain of n classes
(class sum plus excess) and F_n for its tower correction; the chain relation
is T_n + c*F_n = c, with c the value of the total class.  Since
GX(n, m) = T^X_n + T^Y_m * F^X_n, both chains meeting at c give
GX(n, m) = GY(m, n) = c*(1 - F^X_n * F^Y_m).  With every divisor bad the
table gives T_n = [n = 1] and F_n = [n >= 2], which solves the chain at
c = 1, the image of a bad total class; so the common value is 1 exactly
when min(n, m) = 1 and 0 otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from . import fixedpoint
from .algebra import Immutable, Polynomial, VarSymbol
from .dpr import (
    PAIR_CHECKS,
    build_ex,
    build_ey,
    build_fx,
    build_fy,
    build_gx,
    build_gy,
    padding_check,
)
from .fgl import (
    BETA,
    TruncatedSeries,
    additive_mode,
    associativity_relations,
    denominator_profile,
    division_series,
    eval_dim_truncated,
    f_minus,
    inverse_series,
    law_series,
    n_fold_sum,
    series_apply,
    universal_mode,
)
from .fixedpoint import (
    DEFAULT_GUARD_GROUPS,
    all_bad_evaluation,
    claim1_case_check,
    guard_report,
)
from .operators import verify_full_identity, verify_step_identity

__all__ = [
    "CriterionResult",
    "run_all",
    "report_json",
    "report_text",
    "CRITERIA",
]


class CriterionResult(Immutable):
    """One criterion's verdict and its `ok:`/`FAIL:` detail lines."""

    __slots__ = ("number", "name", "passed", "details")

    def __init__(self, number: int, name: str, passed: bool, details: tuple[str, ...]):
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "details", details)


class _Checks:
    """The detail lines of one criterion and whether all its checks hold."""

    def __init__(self):
        self.ok = True
        self.details: list[str] = []

    def __call__(self, label: str, good: bool, failure: str | None = None) -> None:
        """Record one check as `ok: label`, or as `FAIL: ` and the failure
        text (the label unless one is given)."""
        self.ok &= good
        self.details.append(f"ok: {label}" if good else f"FAIL: {failure or label}")

    def result(self, number: int, name: str) -> CriterionResult:
        return CriterionResult(number, name, self.ok, tuple(self.details))


def _var(family: str, *indices: int) -> Polynomial:
    return Polynomial.variable(VarSymbol(family, indices))


def run_criterion_1() -> CriterionResult:
    """Base-case relation polynomials match their explicit forms."""
    check = _Checks()
    x1, x2, y1 = _var("X", 1), _var("X", 2), _var("Y", 1)
    u11, u22, u32 = _var("U", 1, 1), _var("U", 2, 2), _var("U", 3, 2)

    check("first-level corrections vanish",
          len(build_ex(1)) == 0 and len(build_fx(1)) == 0
          and len(build_ey(1)) == 0 and len(build_fy(1)) == 0)
    check("two-class excess", build_ex(2).to_polynomial() == -(x1 * x2 * u11))
    check("two-class tower correction",
          build_fx(2).to_polynomial() == x1 * x2 * u22 - x1 * x2 * u32)
    check("two-and-one combined form",
          build_gx(2, 1).to_polynomial() == (x1 + x2 - x1 * x2 * u11
                                             + y1 * x1 * x2 * u22 - y1 * x1 * x2 * u32))
    check("one-and-two mirrored form", build_gy(1, 2).to_polynomial() == y1)
    return check.result(1, "base-case relation polynomials")


def run_criterion_2() -> CriterionResult:
    """Structural invariants across the full build grid."""
    ok = True
    pairs = 0
    for n in range(1, 9):
        for m in range(1, 9):
            gx = build_gx(n, m)
            gy = build_gy(m, n)
            ok &= all(check(gx, gy, n, m) for check in PAIR_CHECKS.values())
            pairs += 1
    paddings = 0
    for n in range(1, 7):
        for m in range(1, 7):
            for big_n in range(n, 7):
                for big_m in range(m, 7):
                    ok &= padding_check(n, m, big_n, big_m)
                    paddings += 1
    details = (
        f"multilinearity, bounds, weight, mirror on {pairs} build pairs",
        f"padding invariance on {paddings} embeddings",
    )
    return CriterionResult(2, "structural invariants of the relation builders", ok, details)


def run_criterion_3() -> CriterionResult:
    """Formal group law arithmetic at order 10, exact equality throughout."""
    order = 10
    mode = universal_mode()
    check = _Checks()

    law = law_series(mode, order)
    check("unit law", all(
        (poly == (1 if sum(exp) == 1 else 0))
        for exp, poly in law.coefficients()
        if 0 in exp
    ))
    check("commutativity", all(
        law.coefficient((j, i)) == poly
        for (i, j), poly in law.coefficients()
    ))

    u = TruncatedSeries.variable("u", ("u",), order)
    gamma = inverse_series(mode, order)
    check("inverse cancels", series_apply(law, [u, gamma]).is_zero())
    check("difference law vanishes on the diagonal",
          series_apply(f_minus(mode, order), [u, u]).is_zero())

    divisions = {}
    for n in (2, 3, 5):
        nf = n_fold_sum(mode, n, order)
        div = divisions[n] = division_series(n, mode, order)
        check(f"division by {n} round-trips", (
            series_apply(div, [nf]) == TruncatedSeries.variable("u", ("u",), order, div.ring)
            and series_apply(nf, [div]) == TruncatedSeries.variable("u", ("u",), order, div.ring)
        ))
        check(f"first division coefficient is 1/{n}", div.coefficient((1,)) == Fraction(1, n))

    check("n-fold sums lead with n", all(
        n_fold_sum(mode, n, order).coefficient((1,)) == n for n in range(1, 8)
    ))

    for n in (2, 3):
        profile = denominator_profile(divisions[n])
        check(f"1/{n} denominators stay within the triangular bound",
              all(k <= i * (i + 1) // 2 for i, k in profile if i <= 8))
    return check.result(3, "formal group law arithmetic")


def run_criterion_4() -> CriterionResult:
    """Associativity residues appear late and die under both special laws."""
    rels = associativity_relations(universal_mode(), 6)
    low = [exp for exp in rels if sum(exp) <= 2]
    a11 = VarSymbol("a", (1, 1))
    beta = Polynomial.variable(BETA)
    additive_dead = True
    multiplicative_dead = True
    for rel in rels.values():
        syms = rel.symbols()
        additive_dead &= rel.substitute({s: 0 for s in syms}).is_zero()
        multiplicative_dead &= rel.substitute(
            {s: (beta if s == a11 else 0) for s in syms}
        ).is_zero()
    check = _Checks()
    check.details.append(f"{len(rels)} residues at order 6, lowest degree "
                         f"{min((sum(e) for e in rels), default=0)}")
    if low:
        check(f"residues of degree <= 2 at {', '.join(map(str, low))}", False)
    check("additive specialization vanishes", additive_dead)
    check("multiplicative specialization vanishes", multiplicative_dead)
    return check.result(4, "associativity residues")


def run_criterion_5() -> CriterionResult:
    """Sampled reduction identities with exact rationals, seed 42."""
    ok = True
    resamples = 0
    for n in range(2, 9):
        report = verify_step_identity(n, trials=20, seed=42)
        ok &= report.passed
        resamples += report.resamples
    full_pairs = 0
    for n in range(1, 6):
        for m in range(1, 6):
            report = verify_full_identity(n, m, trials=20, seed=42)
            ok &= report.passed
            resamples += report.resamples
            full_pairs += 1
    details = (
        "single-step chains for 2 <= n <= 8, 20 trials each",
        f"full identities on {full_pairs} class-count pairs, 20 trials each",
        f"{resamples} resamples, no inconsistent solves",
    )
    return CriterionResult(5, "sampled reduction identities", ok, details)


def run_criterion_6() -> CriterionResult:
    """Fixed-point evaluation table: base cases, all-bad values, the guard."""
    check = _Checks()
    check("five base goodness patterns agree",
          all(claim1_case_check(case)["equal"] for case in range(1, 6)))

    # A bad total class maps to 1; T and F are the closed forms the all-bad
    # table must produce for a chain of n classes on either side.
    c = 1
    closed_t = {n: int(n == 1) for n in range(1, 9)}
    closed_f = {n: int(n >= 2) for n in range(1, 9)}

    table = fixedpoint.ALL_BAD_VALUES
    off_chain = []
    for side, build_e, build_f in (("X", build_ex, build_fx), ("Y", build_ey, build_fy)):
        for n in range(1, 9):
            t = n * table[side] + build_e(n).substitute_families(table)
            f = build_f(n).substitute_families(table)
            if t != closed_t[n] or f != closed_f[n] or t + c * f != c:
                off_chain.append((side, n, t, f))
    failure = None
    if off_chain:
        side, n, t, f = off_chain[0]
        failure = (f"all-bad table misses the chain closed form on {len(off_chain)} "
                   f"of 16 chains; first {side}{n}: S_n + E_n = {t}, F_n = {f}")
    check("all-bad table solves both chains at c = 1 for n <= 8: "
          "S_n + E_n = [n = 1], F_n = [n >= 2], S_n + E_n + c*F_n = c",
          not off_chain, failure)

    mismatched = []
    off_identity = []
    for n in range(1, 9):
        for m in range(1, 9):
            report = all_bad_evaluation(n, m)
            if not report["equal"]:
                mismatched.append((n, m))
            if report["lhs"] != c * (1 - closed_f[n] * closed_f[m]):
                off_identity.append((n, m, report["lhs"]))
    check("all-bad evaluation, sides agree on all 64 pairs", not mismatched)
    failure = None
    if off_identity:
        n, m, value = off_identity[0]
        failure = (f"all-bad common value misses c*(1 - F^X_n*F^Y_m) at c = 1 on "
                   f"{len(off_identity)} of 64 pairs; first (n, m) = ({n}, {m}) gives {value}")
    check("all-bad common value is c*(1 - F^X_n*F^Y_m) at c = 1 on all 64 pairs",
          not off_identity, failure)

    check(f"never exactly one bad divisor, exhaustive over {len(DEFAULT_GUARD_GROUPS)} groups",
          all(guard_report(group)["holds"] for group in DEFAULT_GUARD_GROUPS))
    return check.result(6, "fixed-point evaluation table")


def run_criterion_7() -> CriterionResult:
    """Dimension-truncated evaluation collapses to first Chern class facts."""
    check = _Checks()
    c = VarSymbol("c")
    mode = universal_mode()

    check("p-fold sums restrict to p*c on a curve", all(
        eval_dim_truncated(n_fold_sum(mode, p, 8), c, 1) == Polynomial.variable(c) * p
        for p in range(1, 8)
    ))

    killed = True
    for d in range(0, 5):
        power = TruncatedSeries.variable("u", ("u",), 8)
        for r in range(2, 7):
            power = power * TruncatedSeries.variable("u", ("u",), 8)
            if r > d:
                killed &= eval_dim_truncated(power, c, d).is_zero()
    check("high powers die past the dimension", killed)

    c1, c2 = VarSymbol("c", (1,)), VarSymbol("c", (2,))
    law = law_series(additive_mode(), 6)
    check("additive law sums the classes", all(
        eval_dim_truncated(law, [c1, c2], d)
        == Polynomial.variable(c1) + Polynomial.variable(c2)
        for d in (1, 4)
    ))
    return check.result(7, "dimension-truncated evaluation")


CRITERIA = {
    1: run_criterion_1,
    2: run_criterion_2,
    3: run_criterion_3,
    4: run_criterion_4,
    5: run_criterion_5,
    6: run_criterion_6,
    7: run_criterion_7,
}


def run_all() -> list[CriterionResult]:
    return [CRITERIA[k]() for k in sorted(CRITERIA)]


def report_json(results: list[CriterionResult]) -> dict:
    return {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "pass": r.passed,
                "details": list(r.details),
            }
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }


def report_text(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"criterion {r.number}  {'PASS' if r.passed else 'FAIL'}  {r.name}")
        for d in r.details:
            lines.append(f"  {d}")
    overall = all(r.passed for r in results)
    lines.append(f"overall      {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"

