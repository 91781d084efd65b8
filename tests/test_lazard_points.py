"""The universal series at points of the Lazard variety.

Any rational logarithm l(u) = u + sum over k >= 2 of m_k u^k defines an
associative law F_l(u, v) = l^-1(l(u) + l(v)).  Its coefficients c_ij are a
point of the Lazard variety: there every associativity residue of the
universal law vanishes, and the universal inverse, n-fold sum and division
series take the values the logarithm gives them, l^-1(-l(u)),
l^-1(n l(u)) and l^-1(l(u) / n) (Lazard 1955; Hazewinkel, "Formal Groups
and Applications", 1978, ch. 1).

The oracle below is plain Fraction list arithmetic: one univariate
reversion and one truncated two-variable power sum.  It shares nothing with
the packed series kernel or its online solves.
"""

import random
from fractions import Fraction

import pytest

from dprkit.algebra import VarSymbol
from dprkit.fgl import (associativity_relations, division_series, inverse_series, n_fold_sum,
                        universal_mode)


def logarithm(seed: int, order: int) -> list[Fraction]:
    """l[0..order] of a seeded l(u) = u + sum of m_k u^k, m_k in {-5..5}/{1..4}."""
    rng = random.Random(seed)
    return [Fraction(0), Fraction(1)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                         for _ in range(2, order + 1)]


def times(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """p * q modulo u^len(p), for lists of one length."""
    out = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        if a:
            for j in range(len(p) - i):
                out[i + j] += a * q[j]
    return out


def compose(outer: list[Fraction], inner: list[Fraction]) -> list[Fraction]:
    """outer(inner(u)) modulo u^len(outer), inner without a constant term."""
    out = [Fraction(0)] * len(outer)
    power = [Fraction(1)] + [Fraction(0)] * (len(outer) - 1)
    for c in outer:
        out = [a + c * b for a, b in zip(out, power)]
        power = times(power, inner)
    return out


def reversion(log: list[Fraction]) -> list[Fraction]:
    """e with l(e(u)) = u: e = u - sum of m_k e^k, one more degree exact each round."""
    u = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(log) - 2)
    e = u
    for _ in range(len(log)):
        e = [a - b for a, b in zip(u, compose([Fraction(0), Fraction(0), *log[2:]], e))]
    return e


def law_point(log: list[Fraction], exp: list[Fraction]) -> dict[tuple[int, int], Fraction]:
    """The coefficients of F_l(u, v) = e(l(u) + l(v)) up to total degree
    order, keyed (i, j): the power sum of e_k s^k with s = l(u) + l(v)."""
    order = len(log) - 1
    s = {key: c for k, c in enumerate(log) if c for key in ((k, 0), (0, k))}
    law: dict[tuple[int, int], Fraction] = {}
    power = {(0, 0): Fraction(1)}
    for c in exp:
        for key, d in power.items():
            law[key] = law.get(key, 0) + c * d
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a, b), d in power.items():
            for (x, y), f in s.items():
                if a + b + x + y <= order:
                    nxt[a + x, b + y] = nxt.get((a + x, b + y), 0) + d * f
        power = nxt
    return {key: c for key, c in law.items() if c}


def universal_point(law: dict[tuple[int, int], Fraction], order: int) -> dict[VarSymbol, Fraction]:
    """a_ij = c_ij for every universal coefficient up to total degree order."""
    return {VarSymbol("a", (i, j)): law.get((i, j), Fraction(0))
            for i in range(1, order) for j in range(i, order - i + 1)}


def values(series, point: dict[VarSymbol, Fraction]) -> list[Fraction]:
    """The coefficients of a one-variable series, u^0 to u^order, at point."""
    return [series.coefficient((k,)).evaluate_rational(point) for k in range(series.order + 1)]


def lazard_case(seed: int, order: int):
    log = logarithm(seed, order)
    exp = reversion(log)
    law = law_point(log, exp)
    return log, exp, law, universal_point(law, order)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_oracle_law_is_a_formal_group_law(seed):
    # e reverses l, and F_l(u, 0) = u with F_l symmetric, over rationals
    log, exp, law, _ = lazard_case(seed, 8)
    assert compose(log, exp) == compose(exp, log) == [0, 1] + [0] * 7
    assert {key: c for key, c in law.items() if 0 in key} == {(1, 0): 1, (0, 1): 1}
    assert all(law.get((j, i)) == c for (i, j), c in law.items())
    assert any(c.denominator != 1 for c in law.values())


@pytest.mark.parametrize("order", [6, 8, 10, 12])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_universal_series_at_a_point_of_the_lazard_variety(seed, order):
    log, exp, _, point = lazard_case(seed, order)
    mode = universal_mode()
    assert values(inverse_series(mode, order), point) == compose(exp, [-c for c in log])
    for n in (2, 3):
        assert values(n_fold_sum(mode, n, order), point) == compose(exp, [n * c for c in log])
        assert values(division_series(n, mode, order), point) == compose(exp, [c / n for c in log])
    residues = associativity_relations(mode, order)
    assert residues
    assert {e: poly.evaluate_rational(point) for e, poly in residues.items()} == dict.fromkeys(
        residues, 0)
