"""Series products and the associativity residues against their plain routes.

`TruncatedSeries.__mul__` visits only the pairs of terms inside the
truncation and shifts the other factor when one is a monomial, and
`associativity_relations` computes each power of the law only at u^a v^b
with a <= b, mirrors the rest, and stops the powers past the first one
degree below the order.  The oracles below are the routes those replace:
every pair of terms, each checked against the order, and every coefficient
of every power.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit import fgl  # noqa: E402
from dprkit.algebra import ZZ  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    TruncatedSeries, additive_mode, associativity_relations, custom_mode, law_series,
    multiplicative_mode, universal_mode,
)


def product_oracle(s, t):
    """s * t over every pair of terms, each pair checked against the order."""
    assert s.vars == t.vars and s.order == t.order
    out = {}
    for e1, d1 in s._coeffs.items():
        for e2, d2 in t._coeffs.items():
            if sum(e1) + sum(e2) <= s.order:
                fgl._pmul_into(out.setdefault(tuple(a + b for a, b in zip(e1, e2)), {}), d1, d2)
    return TruncatedSeries(s.vars, s.order, s.ring.join(t.ring), fgl._nonzero(out))


def associativity_oracle(mode, order):
    """The residues read off every coefficient of every power of F(u, v)."""
    law = law_series(mode, order)
    powers = [TruncatedSeries(law.vars, order, law.ring, {(0, 0): {0: 1}})]
    while len(powers) <= order:
        powers.append(product_oracle(powers[-1], law))
    total = {}
    for (x, y), c in law._coeffs.items():
        minus_c = {key: -v for key, v in c.items()}
        for (a, b), d in powers[x]._coeffs.items():
            if a + b + y <= order:
                fgl._pmul_into(total.setdefault((a, b, y), {}), c, d)
        for (b, k), d in powers[y]._coeffs.items():
            if x + b + k <= order:
                fgl._pmul_into(total.setdefault((x, b, k), {}), minus_c, d)
    return {e: fgl._unpack_poly(total[e], law.ring)
            for e in sorted(total, key=lambda e: (sum(e), e)) if total[e]}


def _assert_same_residues(mode, order):
    got = associativity_relations(mode, order)
    assert list(got.items()) == list(associativity_oracle(mode, order).items()), order


@pytest.mark.parametrize("mode", [universal_mode(), additive_mode(), multiplicative_mode()],
                         ids=["universal", "additive", "multiplicative"])
def test_associativity_matches_the_full_power_route(mode):
    for order in range(1, 13):
        _assert_same_residues(mode, order)


@st.composite
def laws(draw):
    order = draw(st.integers(min_value=1, max_value=12))
    table = {(i, j): draw(st.integers(min_value=-5, max_value=5))
             for i in range(1, order) for j in range(i, order - i + 1)}
    return custom_mode(table), order


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(law=laws())
def test_custom_associativity_matches_the_full_power_route(law):
    _assert_same_residues(*law)


# few packed keys and small coefficients, so terms collide and sums cancel;
# an empty coefficient is allowed, and a product must drop it
COEFFS = st.dictionaries(
    st.integers(0, 6),
    (st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=4)).filter(bool),
    max_size=3)


@st.composite
def factor_pairs(draw):
    nvars = draw(st.integers(min_value=1, max_value=2))
    vars = ("u", "v")[:nvars]
    order = draw(st.integers(min_value=1, max_value=8))
    # exponents reach past the order, so some terms overflow on their own
    exps = st.tuples(*[st.integers(0, order + 1)] * nvars)

    def factor():
        kind = draw(st.sampled_from(["series"] * 4 + ["monomial", "empty"]))
        if kind == "empty":
            coeffs = {}
        elif kind == "monomial":  # u^i, v^j or u^i v^j with the packed 1
            coeffs = {draw(exps): {0: 1}}
        else:
            coeffs = draw(st.dictionaries(exps, COEFFS, min_size=1, max_size=8))
        return TruncatedSeries(vars, order, ZZ, coeffs)

    return factor(), factor()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pair=factor_pairs())
def test_products_match_the_all_pairs_route(pair):
    s, t = pair
    got = s * t
    assert got == product_oracle(s, t)
    assert all(d for d in got._coeffs.values())  # no empty coefficient
    factors = [*s._coeffs.values(), *t._coeffs.values()]
    assert not any(d is f for d in got._coeffs.values() for f in factors)  # copies


@pytest.mark.parametrize("mode", [universal_mode(), multiplicative_mode()],
                         ids=["universal", "multiplicative"])
def test_powers_of_the_law_match_the_all_pairs_route(mode):
    # the terms at total degree exactly the order are the last a scan keeps
    for order in range(1, 9):
        law = law_series(mode, order)
        got = want = law
        for _ in range(3):
            got, want = got * law, product_oracle(want, law)
            assert got == want, order
