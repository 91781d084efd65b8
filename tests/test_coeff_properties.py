"""Properties of coefficients: an integral coefficient means the same as an
int or a Fraction, and a ring admits exactly the denominators built from the
primes of the integers it inverts."""

from fractions import Fraction
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit.algebra import (  # noqa: E402
    UNIT, CoeffRing, IncompatibleRings, Monomial, Polynomial, VarSymbol, ZZ, poly_to_json,
)

X1 = VarSymbol("X", (1,))


@settings(derandomize=True, database=None, max_examples=200)
@given(
    k=st.integers(min_value=-(1 << 70), max_value=1 << 70),
    d=st.integers(min_value=1, max_value=1 << 40),
)
def test_integral_fraction_and_int_give_the_same_polynomial(k, d):
    mono = Monomial({X1: 1})
    as_fraction = Polynomial(ZZ, {mono: Fraction(k * d, d), UNIT: 1})
    as_int = Polynomial(ZZ, {mono: k, UNIT: 1})
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert poly_to_json(as_fraction) == poly_to_json(as_int)
    assert str(as_fraction) == str(as_int)


def _admits_by_gcd_stripping(inverted, den):
    """Strip every common factor with an inverted integer until none is left."""
    den = abs(den)
    if den == 1:
        return True
    if not inverted:
        return False
    stripped = True
    while stripped and den > 1:
        stripped = False
        for n in inverted:
            g = gcd(den, n)
            while g > 1:
                den //= g
                g = gcd(den, n)
                stripped = True
    return den == 1


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@settings(derandomize=True, database=None, max_examples=300)
@given(
    inverted=st.sets(st.integers(min_value=2, max_value=12), min_size=1, max_size=3),
    exps=st.lists(st.integers(min_value=0, max_value=40), min_size=5, max_size=5),
    foreign=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_denominator_admission_matches_gcd_stripping(inverted, exps, foreign, data):
    ring = CoeffRing(inverted)
    own = [p for p in PRIMES if any(n % p == 0 for n in inverted)]
    den = prod(p ** e for p, e in zip(own, exps))
    if foreign:  # one prime that divides no inverted integer, to a power
        den *= data.draw(st.sampled_from([p for p in PRIMES if p not in own])) ** foreign
    admitted = ring.admits_denominator(den)
    assert admitted == _admits_by_gcd_stripping(inverted, den) == (not foreign)
    assert ring.admits_denominator(-den) == admitted
    c = Fraction(1, den)
    if foreign:
        with pytest.raises(IncompatibleRings):
            ring.check_coeff(c)
    else:
        assert ring.check_coeff(c) is c
