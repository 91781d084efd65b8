"""Randomized exact verification of the operator identities behind the
relation polynomials.

The relation polynomials assert identities between operators attached to
class sums: a two-class correction law (the H expression) and its n-class
iteration.  Verification substitutes random integers for the free
generators, solves the side conditions exactly (every solve is affine
because the polynomials are multilinear), and compares both sides
exactly.  The draws and the arithmetic on them stay in int; a Fraction
enters only where a solve divides: `blow_up`, `last_class` and the step
solve.  Values come from the recursion itself (`dpr.chain_values`,
`dpr.relation_values`), not from the expanded polynomials, and the class
values they are compared at come from the blow-up law (`blow_up`,
`last_class`), not from the recursion.  Nothing is approximate: a pass
means bit-equal rationals.

`RelationSystem.run` is the one trial loop: it seeds every draw per
(seed, trial, retry), so reports are reproducible byte for byte, retries a
degenerate draw up to `RESAMPLE_LIMIT` times, counts the resamples and
builds the report.  Each verifier supplies only the trial itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import Coeff, Immutable, Polynomial, VarSymbol
from .dpr import chain_symbols, chain_values, relation_values

__all__ = [
    "DegenerateSample",
    "ResampleLimitExceeded",
    "RESAMPLE_LIMIT",
    "RelationSystem",
    "VerificationReport",
    "h_expression",
    "blow_up",
    "last_class",
    "verify_step_identity",
    "verify_full_identity",
]


# degenerate draws a trial may discard before it gives up
RESAMPLE_LIMIT = 50


class DegenerateSample(ArithmeticError):
    """A solve denominator vanished at the sampled point."""


class ResampleLimitExceeded(RuntimeError):
    """Too many degenerate draws in a single trial."""


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


class RelationSystem(Immutable):
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


class VerificationReport(Immutable):
    """What one verifier run found; `to_json` renders it."""

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

    def __repr__(self) -> str:
        return f"VerificationReport({self.to_json()!r})"

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
    return Fraction(t, denom)


def blow_up(c_l: Coeff, c_m: Coeff, s1: Coeff, s23: Coeff) -> Fraction:
    """Value cLM of the blown-up class: `h_expression` solved for cLM, with
    s23 = sigma2 - sigma3.  It is worked over c_l = p/q: the numerator and
    denominator of (c_l + c_m - c_l c_m s1) / (1 - c_l c_m s23) are taken
    times q > 0, so one Fraction is normalised and the denominator vanishes
    exactly when the plain one does."""
    p, q = c_l.numerator, c_l.denominator
    denom = q - p * c_m * s23
    if denom == 0:
        raise DegenerateSample("blow-up denominator vanished")
    return Fraction(p + q * c_m - p * c_m * s1, denom)


def last_class(c: Coeff, c_l: Coeff, s1: Coeff, s23: Coeff) -> Fraction:
    """Value cM of the last class that makes the blow-up law reach c from
    the combined class value c_l: `blow_up(c_l, cM, s1, s23) == c` solved
    for cM, which enters affinely.  Worked over c_l = p/q like `blow_up`:
    the numerator and denominator of (c - c_l) / (1 - c_l s1 + c c_l s23)
    taken times q > 0."""
    p, q = c_l.numerator, c_l.denominator
    denom = q - p * s1 + c * p * s23
    if denom == 0:
        raise DegenerateSample("last-class denominator vanished")
    return Fraction(q * c - p, denom)


def _markers(point: Mapping[VarSymbol, int], symbols: list[VarSymbol], n: int,
             k: int) -> tuple[int, int]:
    """(U1_{k-1}, U2_k - U3_k) of a chain of n classes at `point`, read by
    index from its `chain_symbols` list: first marker k - 1 at n + k - 2,
    second and third markers k at 2n + k - 3 and 3n + k - 4."""
    return (point[symbols[n + k - 2]],
            point[symbols[2 * n + k - 3]] - point[symbols[3 * n + k - 4]])


def _walk(point: Mapping[VarSymbol, int], symbols: list[VarSymbol], n: int,
          classes: int) -> Coeff:
    """Combined value of the first `classes` classes of a chain of n classes,
    by the blow-up law from the first class on (class k sits at k - 1 in
    `symbols`)."""
    c = point[symbols[0]]
    for k in range(2, classes + 1):
        c = blow_up(c, point[symbols[k - 1]], *_markers(point, symbols, n, k))
    return c


def verify_full_identity(
    n: int,
    m: int,
    trials: int = 20,
    seed: int = 0,
    sample_range: int = 1000,
) -> VerificationReport:
    """Both relation polynomials must agree where the two chains meet.

    Per trial: draw every generator except the last second-family class;
    take the total class value c from the blow-up law along the
    first-family chain, walk the second-family chain's first m - 1 classes
    the same way, and set its last class by `last_class` so that it too
    reaches c.  Then both full relation polynomials, GX(n, m) =
    T^X_n + T^Y_m * F^X_n and its mirror GY(m, n), are evaluated by
    `relation_values` and compared exactly.  With R = T + c*F - c per chain,

        GX - GY = (1 - F^Y_m) * R^X - (1 - F^X_n) * R^Y,

    so the comparison fails whenever the recursion stops solving the
    blow-up law at the sample.
    """
    if n < 1 or m < 1:
        raise ValueError("both class counts must be >= 1")
    system = RelationSystem(seed, trials, sample_range)
    x_symbols, y_symbols = chain_symbols("X", n), chain_symbols("Y", m)
    last_y = y_symbols[m - 1]
    symbols = x_symbols + [s for s in y_symbols if s is not last_y]

    def trial(number: int, rng: random.Random) -> bool:
        point = system.draw(rng, symbols)
        c = _walk(point, x_symbols, n, n)
        if m == 1:
            point[last_y] = c
        else:
            c_l = _walk(point, y_symbols, m, m - 1)
            point[last_y] = last_class(c, c_l, *_markers(point, y_symbols, m, m))
        gx, gy = relation_values(n, m, point)
        return gx == gy

    return system.run("full", n, m, 2 * (n + m) - 2, trial)
