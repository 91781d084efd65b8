"""Randomized exact verification of the operator identities behind the
relation polynomials.

The relation polynomials assert identities between operators attached to
class sums: a two-class correction law (the H expression) and its n-class
iteration.  Verification substitutes random rational values for the free
generators, solves the side conditions exactly (every solve is affine
because the polynomials are multilinear), and compares both sides as
Fractions.  Values come from the recursion itself (`dpr.chain_values`), not
from the expanded polynomials.  Nothing is approximate: a pass means
bit-equal rationals, and a disagreement between the two admissible solve
orders raises rather than passes silently.

`RelationSystem.run` is the one trial loop: it seeds every draw per
(seed, trial, retry), so reports are reproducible byte for byte, retries a
degenerate draw up to `RESAMPLE_LIMIT` times, counts the resamples and
builds the report.  Each verifier supplies only the trial itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import Coeff, Polynomial, VarSymbol
from .dpr import chain_symbols, chain_values

__all__ = [
    "DegenerateSample",
    "ResampleLimitExceeded",
    "InconsistentSolve",
    "RESAMPLE_LIMIT",
    "RelationSystem",
    "VerificationReport",
    "h_expression",
    "blow_up",
    "verify_step_identity",
    "verify_full_identity",
]


# degenerate draws a trial may discard before it gives up
RESAMPLE_LIMIT = 50


class DegenerateSample(ArithmeticError):
    """A solve denominator vanished at the sampled point."""


class ResampleLimitExceeded(RuntimeError):
    """Too many degenerate draws in a single trial."""


class InconsistentSolve(AssertionError):
    """The two admissible solve orders disagreed; the relation evaluation is broken."""


def h_expression() -> Polynomial:
    """The two-class correction law
    cL + cM - cL cM sigma1 + cL cM cLM (sigma2 - sigma3) - cLM.
    """
    cl = Polynomial.variable(VarSymbol("cL"))
    cm = Polynomial.variable(VarSymbol("cM"))
    clm = Polynomial.variable(VarSymbol("cLM"))
    s1 = Polynomial.variable(VarSymbol("sigma1"))
    s2 = Polynomial.variable(VarSymbol("sigma2"))
    s3 = Polynomial.variable(VarSymbol("sigma3"))
    return cl + cm - cl * cm * s1 + cl * cm * clm * (s2 - s3) - clm


class RelationSystem:
    """Deterministic sampling harness shared by the verifiers."""

    __slots__ = ("seed", "trials", "sample_range")

    def __init__(self, seed: int, trials: int = 20, sample_range: int = 1000):
        # zero or negative counts would run no trial, or sample only the
        # origin, and still report a pass
        for name, value in (("trials", trials), ("sample_range", sample_range)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "sample_range", sample_range)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelationSystem is immutable")

    def rng(self, trial: int, retry: int) -> random.Random:
        # string seeding hashes with sha512 and so ignores PYTHONHASHSEED
        return random.Random(f"{self.seed}:{trial}:{retry}")

    def draw(self, rng: random.Random, symbols: list[VarSymbol]) -> dict[VarSymbol, int]:
        r = self.sample_range
        return {s: rng.randint(-r, r) for s in symbols}

    def run(
        self,
        identity: str,
        n: int,
        m: int | None,
        degree_bound: int | None,
        trial: Callable[[int, random.Random], bool],
    ) -> VerificationReport:
        """Run every trial and report whether all of them held.

        `trial(number, rng)` checks the identity at one draw and raises
        DegenerateSample when a solve denominator vanishes there; the draw is
        then retried with the next rng, up to RESAMPLE_LIMIT draws per trial.
        """
        resamples = 0
        passed = True
        for number in range(self.trials):
            for retry in range(RESAMPLE_LIMIT):
                try:
                    held = trial(number, self.rng(number, retry))
                except DegenerateSample:
                    resamples += 1
                    continue
                break
            else:
                counts = f"n={n}" if m is None else f"({n},{m})"
                raise ResampleLimitExceeded(f"trial {number} of {identity} {counts}")
            if not held:
                passed = False
        return VerificationReport(identity, n, m, self.trials, resamples, passed,
                                  self.seed, degree_bound, self.sample_range)


class VerificationReport:
    """What one verifier run found; reports of equal runs compare equal."""

    __slots__ = ("identity", "n", "m", "trials", "resamples", "passed", "seed",
                 "degree_bound", "sample_range")

    def __init__(self, identity: str, n: int, m: int | None, trials: int, resamples: int,
                 passed: bool, seed: int, degree_bound: int | None, sample_range: int):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "resamples", resamples)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "sample_range", sample_range)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VerificationReport is immutable")

    def _fields(self) -> tuple:
        return (self.identity, self.n, self.m, self.trials, self.resamples, self.passed,
                self.seed, self.degree_bound, self.sample_range)

    def __eq__(self, other: object) -> bool:
        if type(other) is not VerificationReport:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"VerificationReport{self._fields()!r}"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "resamples": self.resamples,
            "pass": self.passed,
            "seed": self.seed,
            "degree_bound": self.degree_bound,
            "sample_range": self.sample_range,
        }


def verify_step_identity(
    n: int,
    trials: int = 20,
    seed: int = 0,
    sample_range: int = 1000,
) -> VerificationReport:
    """One induction step: given the class value cC solving the (n-1)-stage
    relation, the blown-up value cB from the two-class law must solve the
    n-stage relation.  Checked exactly at random integer points.
    """
    if n < 2:
        raise ValueError("the step identity needs n >= 2")
    system = RelationSystem(seed, trials, sample_range)
    symbols = chain_symbols("X", n)
    x_n, u1 = VarSymbol("X", (n,)), VarSymbol("U", (1, n - 1))
    u2, u3 = VarSymbol("U", (2, n)), VarSymbol("U", (3, n))

    def trial(number: int, rng: random.Random) -> bool:
        point = system.draw(rng, symbols)
        chain = chain_values("X", n, point)
        c_c = _solve_chain_value(*chain[-2])
        c_b = blow_up(c_c, point[x_n], point[u1], point[u2] - point[u3])
        t_n, f_n = chain[-1]
        return c_b == t_n + c_b * f_n

    return system.run("step", n, None, 2 * n - 1, trial)


def _solve_chain_value(t: Coeff, f: Coeff) -> Fraction:
    """Value cC with  T + cC * F = cC, where T = S + E is the class sum plus
    excess and F the correction of the chain at the point."""
    denom = 1 - f
    if denom == 0:
        raise DegenerateSample("chain denominator vanished")
    return Fraction(t) / denom


def blow_up(c_l: Coeff, c_m: Coeff, s1: Coeff, s23: Coeff) -> Fraction:
    """Value cLM of the blown-up class: `h_expression` solved for cLM, with
    s23 = sigma2 - sigma3."""
    denom = 1 - c_l * c_m * s23
    if denom == 0:
        raise DegenerateSample("blow-up denominator vanished")
    return Fraction(c_l + c_m - c_l * c_m * s1) / denom


def verify_full_identity(
    n: int,
    m: int,
    trials: int = 20,
    seed: int = 0,
    sample_range: int = 1000,
) -> VerificationReport:
    """Both relation polynomials must agree once the two one-sided chains are
    solved consistently.

    Per trial: draw every generator except the last second-family class;
    solve the first-family chain for the common class value cC; solve the
    second-family chain for the last class value (it enters affinely); then
    re-solve the second-family chain for cC — a mismatch there is an
    implementation bug and raises InconsistentSolve.  Finally both full
    relation polynomials, GX(n, m) = T^X_n + T^Y_m * F^X_n and its mirror
    GY(m, n), are evaluated from the chain values and compared exactly.

    That final comparison cannot fail: once both chains are solved to the
    same c, T_x + c*F_x = c and T_y + c*F_y = c, so both sides equal
    c*(1 - F_x*F_y) identically.  A fault in the recursion shows only as
    an InconsistentSolve from the re-solve; a check of the full relation
    that does not run the recursion is still open.
    """
    if n < 1 or m < 1:
        raise ValueError("both class counts must be >= 1")
    system = RelationSystem(seed, trials, sample_range)
    last_y = VarSymbol("Y", (m,))
    symbols = chain_symbols("X", n) + [s for s in chain_symbols("Y", m) if s is not last_y]

    def trial(number: int, rng: random.Random) -> bool:
        point = system.draw(rng, symbols)
        t_x, f_x = chain_values("X", n, point)[-1]
        c_c = _solve_chain_value(t_x, f_x)
        point[last_y] = _solve_last_class(point, c_c, m)
        t_y, f_y = chain_values("Y", m, point)[-1]
        # consistency: the second-family chain must now also produce cC
        c_c_again = _solve_chain_value(t_y, f_y)
        if c_c_again != c_c:
            raise InconsistentSolve(
                f"first-family chain gave {c_c}, second-family chain gave {c_c_again}"
            )
        return t_x + t_y * f_x == t_y + t_x * f_y

    return system.run("full", n, m, 2 * (n + m) - 2, trial)


def _solve_last_class(point: Mapping[VarSymbol, Coeff], c_c: Fraction, m: int) -> Fraction:
    """Value of the last second-family class making its chain hit cC.

    The chain relation  T_m + cC * F_m = cC  is affine in the last class Y_m
    because everything is multilinear; one recursion step gives

        Y_m = (cC - T_{m-1} - cC*F_{m-1})
              / (1 - T_{m-1}*V1_{m-1} - F_{m-1} + cC*T_{m-1}*(V2_m - V3_m)).
    """
    if m == 1:
        return c_c
    t, f = chain_values("Y", m - 1, point)[-1]
    v1 = point[VarSymbol("V", (1, m - 1))]
    v23 = point[VarSymbol("V", (2, m))] - point[VarSymbol("V", (3, m))]
    denom = 1 - t * v1 - f + c_c * t * v23
    if denom == 0:
        raise DegenerateSample("last-class coefficient vanished")
    return (c_c - t - c_c * f) / denom
