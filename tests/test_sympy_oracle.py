"""Series arithmetic against an independent sympy solve.

For seeded integer custom laws, the inverse and division series are
recomputed by fixed-point iteration in `sympy.polys.rings` over QQ and
compared coefficient by coefficient with `fgl`.  Each iteration of the
fixed point fixes one more degree, so ORDER iterations reach the answer.
`compose` is checked against sympy's own substitution of a seeded series
into the law as a polynomial in u and v.
"""

import random
from fractions import Fraction

import pytest

sympy_rings = pytest.importorskip("sympy.polys.rings")
from sympy import QQ  # noqa: E402

from dprkit.algebra import ZZ  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    TruncatedSeries, compose, custom_mode, division_series, inverse_series, law_series,
)

ORDER = 8


def _table(seed):
    rng = random.Random(seed)
    return {(i, j): rng.randint(-3, 3)
            for i in range(1, ORDER) for j in range(i, ORDER - i + 1)}


def _oracle(table):
    ring, u = sympy_rings.ring("u", QQ)

    def trunc(p):
        return ring({m: c for m, c in p.items() if m[0] <= ORDER})

    def mul(p, q):
        return trunc(p * q)

    def powers(p):
        out = [ring.one]
        for _ in range(ORDER):
            out.append(mul(out[-1], p))
        return out

    def law(x, y):
        xs, ys = powers(x), powers(y)
        total = x + y
        for (i, j), c in table.items():
            total += c * mul(xs[i], ys[j])
            if i != j:
                total += c * mul(xs[j], ys[i])
        return trunc(total)

    def inverse():
        # F(u, g) = 0 with F = u + v + ..., so g = g - F(u, g)
        g = -u
        for _ in range(ORDER):
            g = trunc(g - law(u, g))
        return g

    def division(n):
        # [n](B) = u with [n](x) = n*x + ..., so B = B + (u - [n](B)) / n
        def nfold(x):
            acc = x
            for _ in range(n - 1):
                acc = law(x, acc)
            return acc

        b = u / n
        for _ in range(ORDER):
            b = trunc(b + (u - nfold(b)) / n)
        return b

    return inverse, division


def _coeffs(series):
    return {exp[0]: Fraction(poly.constant_value()) for exp, poly in series.coefficients()}


def _oracle_coeffs(p):
    return {m[0]: Fraction(int(c.numerator), int(c.denominator)) for m, c in p.items()}


@pytest.mark.parametrize("seed", [1, 2])
def test_inverse_and_division_match_a_sympy_fixed_point(seed):
    table = _table(seed)
    mode = custom_mode(table)
    inverse, division = _oracle(table)
    assert _coeffs(inverse_series(mode, ORDER)) == _oracle_coeffs(inverse())
    for n in (2, 3, 5):
        assert _coeffs(division_series(n, mode, ORDER)) == _oracle_coeffs(division(n)), n


@pytest.mark.parametrize("seed", [1, 2])
def test_compose_matches_sympy_substitution(seed):
    table = _table(seed)
    rng = random.Random(100 + seed)
    inner = {k: rng.randint(-4, 4) for k in range(1, ORDER + 1)}
    ring, u, v = sympy_rings.ring("u,v", QQ)
    law = u + v
    for (i, j), c in table.items():
        law += c * u**i * v**j + (c * u**j * v**i if i != j else 0)
    substituted = law.compose(v, sum(c * u**k for k, c in inner.items()))
    expected = {m[0]: Fraction(int(c.numerator), int(c.denominator))
                for m, c in substituted.items() if m[0] <= ORDER}
    s = TruncatedSeries(("u",), ORDER, ZZ, {(k,): {0: c} for k, c in inner.items() if c})
    got = compose(law_series(custom_mode(table), ORDER), "v", s)
    assert _coeffs(got) == expected
