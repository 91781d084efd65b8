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

Sampling is deterministic per (seed, trial, retry), so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .algebra import Coeff, Polynomial, VarSymbol
from .dpr import DprPolynomial, chain_symbols, chain_values

__all__ = [
    "DegenerateSample",
    "ResampleLimitExceeded",
    "InconsistentSolve",
    "MissingImage",
    "RESAMPLE_LIMIT",
    "RelationSystem",
    "VerificationReport",
    "h_expression",
    "apply_G",
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


class MissingImage(KeyError):
    """apply_G met a generator with no assigned image."""


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


def apply_G(
    g: Union[DprPolynomial, Polynomial],
    images: Mapping[VarSymbol, Union[Polynomial, Coeff]],
) -> Polynomial:
    """Push a relation polynomial through a symbol-to-expression assignment.

    Every generator of `g` must have an image; the map is applied as a ring
    morphism.
    """
    if isinstance(g, DprPolynomial):
        g = g.to_polynomial()
    missing = [s for s in g.symbols() if s not in images]
    if missing:
        raise MissingImage(", ".join(str(s) for s in sorted(missing)))
    return g.substitute(images)


@dataclass(frozen=True)
class RelationSystem:
    """Deterministic sampling harness shared by the verifiers."""

    seed: int
    trials: int = 20
    sample_range: int = 1000

    def __post_init__(self):
        # zero or negative counts would run no trial, or sample only the
        # origin, and still report a pass
        for name in ("trials", "sample_range"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def rng(self, trial: int, retry: int) -> random.Random:
        # string seeding hashes with sha512 and so ignores PYTHONHASHSEED
        return random.Random(f"{self.seed}:{trial}:{retry}")

    def draw(self, rng: random.Random, symbols: list[VarSymbol]) -> dict[VarSymbol, int]:
        r = self.sample_range
        return {s: rng.randint(-r, r) for s in symbols}


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    n: int
    m: int | None
    trials: int
    resamples: int
    passed: bool
    seed: int
    degree_bound: int | None
    sample_range: int

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

    resamples = 0
    passed = True
    for trial in range(trials):
        sample = None
        for retry in range(RESAMPLE_LIMIT):
            point = system.draw(system.rng(trial, retry), symbols)
            chain = chain_values("X", n, point)
            try:
                c_c = _solve_chain_value(*chain[-2])
                c_b = _blow_up(point, c_c, n)
            except DegenerateSample:
                resamples += 1
                continue
            sample = (c_b, chain[-1])
            break
        if sample is None:
            raise ResampleLimitExceeded(f"trial {trial} of step n={n}")
        c_b, (t_n, f_n) = sample
        if c_b != t_n + c_b * f_n:
            passed = False
    return VerificationReport(
        "step", n, None, trials, resamples, passed, seed, 2 * n - 1, sample_range
    )


def _solve_chain_value(t: Coeff, f: Coeff) -> Fraction:
    """Value cC with  T + cC * F = cC, where T = S + E is the class sum plus
    excess and F the correction of the chain at the point."""
    denom = 1 - f
    if denom == 0:
        raise DegenerateSample("chain denominator vanished")
    return Fraction(t) / denom


def _blow_up(point: Mapping[VarSymbol, Coeff], c_c: Fraction, n: int) -> Fraction:
    """Two-class law solved for the blown-up value after joining class n."""
    x_n = Fraction(point[VarSymbol("X", (n,))])
    s1 = Fraction(point[VarSymbol("U", (1, n - 1))])
    s23 = Fraction(point[VarSymbol("U", (2, n))]) - Fraction(point[VarSymbol("U", (3, n))])
    denom = 1 - c_c * x_n * s23
    if denom == 0:
        raise DegenerateSample("blow-up denominator vanished")
    return (c_c + x_n - c_c * x_n * s1) / denom


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
    """
    if n < 1 or m < 1:
        raise ValueError("both class counts must be >= 1")
    system = RelationSystem(seed, trials, sample_range)
    last_y = VarSymbol("Y", (m,))
    symbols = chain_symbols("X", n) + [s for s in chain_symbols("Y", m) if s is not last_y]

    resamples = 0
    passed = True
    for trial in range(trials):
        sample = None
        for retry in range(RESAMPLE_LIMIT):
            point = dict(system.draw(system.rng(trial, retry), symbols))
            try:
                t_x, f_x = chain_values("X", n, point)[-1]
                c_c = _solve_chain_value(t_x, f_x)
                point[last_y] = _solve_last_class(point, c_c, m)
                t_y, f_y = chain_values("Y", m, point)[-1]
                if f_y == 1:
                    raise DegenerateSample("second-family chain denominator vanished")
            except DegenerateSample:
                resamples += 1
                continue
            sample = (c_c, t_x, f_x, t_y, f_y)
            break
        if sample is None:
            raise ResampleLimitExceeded(f"trial {trial} of full ({n},{m})")
        c_c, t_x, f_x, t_y, f_y = sample
        # consistency: the second-family chain must now also produce cC
        c_c_again = Fraction(t_y) / (1 - f_y)
        if c_c_again != c_c:
            raise InconsistentSolve(
                f"first-family chain gave {c_c}, second-family chain gave {c_c_again}"
            )
        if t_x + t_y * f_x != t_y + t_x * f_y:
            passed = False
    return VerificationReport(
        "full", n, m, trials, resamples, passed, seed, 2 * (n + m) - 2, sample_range
    )


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
