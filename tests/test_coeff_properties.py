"""Property: an integral coefficient means the same as an int or a Fraction."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit.algebra import UNIT, Monomial, Polynomial, VarSymbol, ZZ, poly_to_json  # noqa: E402

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
