"""Series arithmetic against an independent sympy solve.

For seeded integer custom laws, the inverse and division series are
recomputed by fixed-point iteration in `sympy.polys.rings` over QQ and
compared coefficient by coefficient with `fgl`.  Each iteration of the
fixed point fixes one more degree, so ORDER iterations reach the answer.
`compose` is checked against sympy's own substitution of a seeded series
into the law as a polynomial in u and v.  The associativity residues are
checked against F(F(u,v),w) - F(u,F(v,w)) with each side expanded on its
own in sympy, over u, v, w and the law's free coefficients.
"""

import random
from fractions import Fraction

import pytest

sympy_rings = pytest.importorskip("sympy.polys.rings")
from sympy import QQ  # noqa: E402

from dprkit.algebra import ZZ, VarSymbol  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    BETA, TruncatedSeries, associativity_relations, compose, custom_mode, division_series,
    inverse_series, law_series, multiplicative_mode, universal_mode,
)

ORDER = 8


def _table(seed, order=ORDER):
    rng = random.Random(seed)
    return {(i, j): rng.randint(-3, 3)
            for i in range(1, order) for j in range(i, order - i + 1)}


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


def _oracle_residues(order, table):
    """F(F(u,v),w) - F(u,F(v,w)) modulo total degree > order in u, v, w, for
    the law whose c_ij (i <= j) are the values of `table`: ints, or
    VarSymbols that become ring generators.  Returns the symbols and
    {(a, b, k): {exponents of the symbols: coefficient}}."""
    symbols = sorted({c for c in table.values() if isinstance(c, VarSymbol)}, key=str)
    ring, u, v, w, *gens = sympy_rings.ring(["u", "v", "w"] + [str(s) for s in symbols], QQ)
    coeffs = {key: gens[symbols.index(c)] if isinstance(c, VarSymbol) else c
              for key, c in table.items()}

    def trunc(p):
        return ring({m: c for m, c in p.items() if sum(m[:3]) <= order})

    def powers(p):
        out = [ring.one]
        for _ in range(order):
            out.append(trunc(out[-1] * p))
        return out

    def law(x, y):
        xs, ys = powers(x), powers(y)
        total = x + y
        for (i, j), c in coeffs.items():
            total += c * trunc(xs[i] * ys[j])
            if i != j:
                total += c * trunc(xs[j] * ys[i])
        return trunc(total)

    out: dict = {}
    for m, c in (law(law(u, v), w) - law(u, law(v, w))).items():
        out.setdefault(m[:3], {})[m[3:]] = Fraction(int(c.numerator), int(c.denominator))
    return symbols, out


def _residues(rels, symbols):
    """The same shape for associativity_relations' output."""
    out: dict = {}
    for exp, poly in rels.items():
        for mono, c in poly.terms.items():
            key = [0] * len(symbols)
            for sym, e in mono.pairs:
                key[symbols.index(sym)] = e
            out.setdefault(exp, {})[tuple(key)] = Fraction(c)
    return out


def _check_associativity(mode, order, table):
    rels = associativity_relations(mode, order)
    assert list(rels) == sorted(rels, key=lambda e: (sum(e), e))
    symbols, expected = _oracle_residues(order, table)
    assert _residues(rels, symbols) == expected
    return rels


@pytest.mark.parametrize("seed", [3, 4])
def test_custom_associativity_matches_a_sympy_expansion(seed):
    table = _table(seed, 12)
    assert _check_associativity(custom_mode(table), 12, table)


def test_universal_associativity_matches_a_sympy_expansion():
    table = {(i, j): VarSymbol("a", (i, j)) for i in range(1, 8) for j in range(i, 9 - i)}
    assert _check_associativity(universal_mode(), 8, table)


def test_multiplicative_associativity_matches_a_sympy_expansion():
    assert _check_associativity(multiplicative_mode(), 12, {(1, 1): BETA}) == {}
