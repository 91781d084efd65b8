"""Properties of the solved series over seeded integer custom laws.

The inverse of a symmetric law is an involution, g(g(u)) = u, and the
division series is a two-sided inverse of the n-fold sum.  Both identities
are checked with `series_apply`, which neither solve uses.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit.algebra import ZZ  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    TruncatedSeries, custom_mode, division_series, inverse_series, n_fold_sum, series_apply,
)


@st.composite
def laws(draw):
    order = draw(st.integers(min_value=1, max_value=8))
    table = {(i, j): draw(st.integers(min_value=-5, max_value=5))
             for i in range(1, order) for j in range(i, order - i + 1)}
    return custom_mode(table), order


def _u(order, ring=ZZ):
    return TruncatedSeries.variable("u", ("u",), order, ring)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(law=laws())
def test_inverse_is_an_involution(law):
    mode, order = law
    g = inverse_series(mode, order)
    assert series_apply(g, [g]) == _u(order)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(law=laws(), n=st.integers(min_value=2, max_value=5))
def test_division_inverts_the_n_fold_sum_on_both_sides(law, n):
    mode, order = law
    b = division_series(n, mode, order)
    a = n_fold_sum(mode, n, order)
    assert series_apply(b, [a]) == _u(order, b.ring)
    assert series_apply(a, [b]) == _u(order, b.ring)
