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
`last_class`), not from the recursion.  Both read each step's class and
markers from `dpr.chain_steps`.  Nothing is approximate: a pass
means bit-equal rationals.

`run_trials` is the one trial loop: it seeds every draw per (seed, trial,
retry), so reports are reproducible byte for byte, retries a degenerate
draw up to `RESAMPLE_LIMIT` times, counts the resamples and builds the
report.  Each verifier supplies only the trial itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import Coeff, Immutable, Polynomial, VarSymbol
from .dpr import chain_steps, chain_symbols, chain_values, relation_symbols, relation_values

__all__ = [
    "DegenerateSample",
    "ResampleLimitExceeded",
    "RESAMPLE_LIMIT",
    "run_trials",
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


def _trial_rng(seed: int, trial: int, retry: int) -> random.Random:
    # string seeding hashes with sha512 and so ignores PYTHONHASHSEED
    return random.Random(f"{seed}:{trial}:{retry}")


def _draw(rng: random.Random, symbols: tuple[VarSymbol, ...],
          sample_range: int) -> dict[VarSymbol, int]:
    return {s: rng.randint(-sample_range, sample_range) for s in symbols}


def run_trials(identity: str, n: int, m: int | None, degree_bound: int | None,
               trial: Callable[[int, random.Random], bool], seed: int, trials: int,
               sample_range: int) -> VerificationReport:
    """Run every trial and report whether all of them held.

    `trial(number, rng)` checks the identity at one draw and raises
    DegenerateSample when a solve denominator vanishes there; the draw is
    then retried with the next rng, up to RESAMPLE_LIMIT draws per trial.
    """
    # zero or negative counts would run no trial, or sample only the
    # origin, and still report a pass
    for name, value in (("trials", trials), ("sample_range", sample_range)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    resamples = 0
    passed = True
    for number in range(trials):
        for retry in range(RESAMPLE_LIMIT):
            try:
                held = trial(number, _trial_rng(seed, number, retry))
            except DegenerateSample:
                resamples += 1
                continue
            break
        else:
            counts = f"n={n}" if m is None else f"({n},{m})"
            raise ResampleLimitExceeded(f"trial {number} of {identity} {counts}")
        if not held:
            passed = False
    return VerificationReport(identity, n, m, trials, resamples, passed,
                              seed, degree_bound, sample_range)


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
    symbols, last_step = chain_symbols("X", n), chain_steps("X", n)[-1:]

    def trial(number: int, rng: random.Random) -> bool:
        point = _draw(rng, symbols, sample_range)
        chain = chain_values("X", n, point)
        c_b = _walk(point, _solve_chain_value(*chain[-2]), last_step)
        t_n, f_n = chain[-1]
        return c_b == t_n + c_b * f_n

    return run_trials("step", n, None, 2 * n - 1, trial, seed, trials, sample_range)


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


def _walk(point: Mapping[VarSymbol, int], first: Coeff,
          steps: tuple[tuple[VarSymbol, ...], ...]) -> Coeff:
    """Combined class value after `steps`, a run of a chain's `chain_steps`,
    by the blow-up law from the class value `first` on."""
    c = first
    for x, u1, u2, u3 in steps:
        c = blow_up(c, point[x], point[u1], point[u2] - point[u3])
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
    x_symbols, y_symbols = chain_symbols("X", n), chain_symbols("Y", m)
    x_steps, y_steps = chain_steps("X", n), chain_steps("Y", m)
    last_y = y_steps[-1][0] if y_steps else y_symbols[0]
    symbols = tuple(s for s in relation_symbols(n, m) if s is not last_y)

    def trial(number: int, rng: random.Random) -> bool:
        point = _draw(rng, symbols, sample_range)
        c = _walk(point, point[x_symbols[0]], x_steps)
        if m == 1:
            point[last_y] = c
        else:
            c_l = _walk(point, point[y_symbols[0]], y_steps[:-1])
            _, u1, u2, u3 = y_steps[-1]
            point[last_y] = last_class(c, c_l, point[u1], point[u2] - point[u3])
        gx, gy = relation_values(n, m, point)
        return gx == gy

    return run_trials("full", n, m, 2 * (n + m) - 2, trial, seed, trials, sample_range)
