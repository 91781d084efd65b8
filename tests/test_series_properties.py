"""Properties of the solved series over seeded integer custom laws.

The inverse of a symmetric law is an involution, g(g(u)) = u, the
division series is a two-sided inverse of the n-fold sum, and the n-fold
sums are the loop [k](u) = F(u, [k-1](u)) of `compose` calls.  These are
checked with `series_apply` and `compose`, which no solve uses.  The
associativity residues of a symmetric law are antisymmetric under swapping
u and w.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit.algebra import ZZ  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    TruncatedSeries, associativity_relations, compose, custom_mode, division_series,
    inverse_series, law_series, n_fold_sum, series_apply,
)


@st.composite
def laws(draw, min_order=1, max_order=8):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(law=laws(max_order=12), n=st.integers(min_value=2, max_value=9))
def test_n_fold_sums_equal_the_compose_loop(law, n):
    mode, order = law
    f = law_series(mode, order)
    s = _u(order)
    for k in range(2, n + 1):
        s = compose(f, "v", s)
        assert n_fold_sum(mode, k, order) == s, k


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(law=laws(min_order=12, max_order=12))
def test_associativity_residues_are_antisymmetric(law):
    # A(u,v,w) = F(F(u,v),w) - F(u,F(v,w)) has A(w,v,u) = -A(u,v,w) when F
    # is symmetric, so the residue at (i,j,k) is minus the one at (k,j,i)
    # and none sits at i == k
    mode, order = law
    rels = associativity_relations(mode, order)
    for (i, j, k), poly in rels.items():
        assert i != k, (i, j, k)
        assert rels.get((k, j, i)) == -poly, (i, j, k)
