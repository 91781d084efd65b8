"""Series products and the associativity residues against their plain routes.

`TruncatedSeries.__mul__` visits only the pairs of terms inside the
truncation and shifts the other factor when one is a monomial, and
`associativity_relations` computes each power of the law only at u^a v^b
with a <= b, mirrors the rest, and stops the powers past the first one
degree below the order.  `eval_dim_truncated` accumulates its terms in one
packed dict.  The oracles below are the routes those replace: every pair of
terms, each checked against the order, every coefficient of every power,
and the evaluation done in `algebra.Polynomial` arithmetic.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit import fgl  # noqa: E402
from dprkit.algebra import Polynomial, VarSymbol, ZZ  # noqa: E402
from dprkit.fgl import (  # noqa: E402
    BETA, TruncatedSeries, additive_mode, associativity_relations, custom_mode, division_series,
    eval_dim_truncated, f_minus, inverse_series, law_series, multiplicative_mode, n_fold_sum,
    universal_mode,
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


def apply_oracle(outer, args):
    """series_apply with every power of every argument made to the whole
    order by `product_oracle`, one factor at a time."""
    vars, order = args[0].vars, args[0].order
    total = {}
    for exp, coeff in outer._coeffs.items():
        if sum(exp) > order:
            continue
        prod = TruncatedSeries(vars, order, ZZ, {(0,) * len(vars): {0: 1}})
        for arg, e in zip(args, exp):
            for _ in range(e):
                prod = product_oracle(prod, arg)
        for e_out, d in prod._coeffs.items():
            fgl._pmul_into(total.setdefault(e_out, {}), coeff, d)
    return TruncatedSeries(vars, order, outer.ring, fgl._nonzero(total))


@st.composite
def applications(draw):
    """An outer series in one or two variables, with terms past the order,
    and one argument per outer variable in one or two variables, each
    vanishing at 0 to a drawn lowest degree, 1 or 2."""
    order = draw(st.integers(min_value=1, max_value=8))

    def series(vars, low, high):
        exps = st.tuples(*[st.integers(0, high)] * len(vars))
        coeffs = draw(st.dictionaries(exps, COEFFS, max_size=8))
        return TruncatedSeries(vars, order, ZZ,
                               {e: d for e, d in coeffs.items() if low <= sum(e) <= high})

    outer_vars, arg_vars = (("u", "v")[:draw(st.integers(1, 2))] for _ in range(2))
    outer = series(outer_vars, 0, order + 1)
    return outer, [series(arg_vars, draw(st.integers(1, 2)), order) for _ in outer_vars]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(application=applications())
def test_series_apply_matches_the_uncut_route(application):
    # each power is cut to the degree its terms read
    outer, args = application
    assert fgl.series_apply(outer, args) == apply_oracle(outer, args)


@pytest.mark.parametrize("mode", [universal_mode(), multiplicative_mode()],
                         ids=["universal", "multiplicative"])
def test_law_compositions_match_the_uncut_route(mode):
    # the inverse's own check, F(u, g(u)) = 0, and f_minus's F(u, g(v))
    for order in range(1, 11):
        law, g = law_series(mode, order), inverse_series(mode, order)
        u = TruncatedSeries.variable("u", ("u",), order)
        assert fgl.series_apply(law, [u, g]) == apply_oracle(law, [u, g])
        assert apply_oracle(law, [u, g]).is_zero()
        gamma_v = TruncatedSeries(("u", "v"), order, g.ring,
                                  {(0, k): d for (k,), d in g._coeffs.items()})
        u2 = TruncatedSeries.variable("u", ("u", "v"), order)
        assert f_minus(mode, order) == apply_oracle(law, [u2, gamma_v]), order


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


def eval_dim_oracle(series, syms, dim):
    """eval_dim_truncated in Polynomial arithmetic: each kept coefficient
    decoded, times each symbol's power, and summed."""
    syms = [syms] if isinstance(syms, VarSymbol) else list(syms)
    total = Polynomial.zero(series.ring)
    for exp, d in series._coeffs.items():
        if sum(exp) > dim:
            continue
        piece = fgl._unpack_poly(d, series.ring)
        for sym, k in zip(syms, exp):
            if k:
                piece = piece * Polynomial.variable(sym, series.ring) ** k
        total = total + piece
    return total


X, Y = VarSymbol("x"), VarSymbol("y")
A11 = VarSymbol("a", (1, 1))


def _drawn_law(seed):
    rng = random.Random(seed)
    return custom_mode({(i, j): rng.randint(-5, 5) for i in range(1, 12) for j in range(i, 13 - i)})


EVAL_MODES = {"universal": universal_mode(), "additive": additive_mode(),
              "multiplicative": multiplicative_mode(),
              "custom-1": _drawn_law(1), "custom-2": _drawn_law(2)}

# a symbol of the coefficient alphabet, evaluated at once with it: its
# exponents from the coefficients and from the evaluation add in one field
SHARED = {"universal": A11, "multiplicative": BETA}


def _evaluated_series(name, order):
    """(series, symbol lists) for one- and two-variable series of a mode."""
    mode, shared = EVAL_MODES[name], SHARED.get(name, X)
    one = [[X], [shared]]
    two = [[X, Y], [shared, Y], [Y, shared], [X, X]]
    yield law_series(mode, order), two
    yield f_minus(mode, order), two
    yield inverse_series(mode, order), one
    for n in (2, 3):
        yield n_fold_sum(mode, n, order), one
        yield division_series(n, mode, order), one


@pytest.mark.parametrize("name", EVAL_MODES)
def test_eval_dim_matches_the_polynomial_route(name):
    for order in range(1, 13):
        for series, sym_lists in _evaluated_series(name, order):
            for syms in sym_lists:
                for dim in range(order + 2):
                    got = eval_dim_truncated(series, syms, dim)
                    want = eval_dim_oracle(series, syms, dim)
                    assert got == want and got.ring is want.ring, (order, series, syms, dim)


def test_eval_dim_runs_no_polynomial_arithmetic(monkeypatch):
    cases = [(law_series(universal_mode(), 10), [A11, X], 6),
             (n_fold_sum(multiplicative_mode(), 3, 10), BETA, 10),
             (division_series(3, universal_mode(), 8), [X], 8)]
    wants = [eval_dim_oracle(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a Polynomial was added, multiplied or built")

    for name in ("__add__", "__mul__", "__pow__", "zero", "variable"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for case, want in zip(cases, wants):
        assert eval_dim_truncated(*case) == want


@pytest.mark.parametrize("name", ["universal", "custom-1"])
def test_a_bumped_top_coefficient_of_the_inverse_is_seen(name):
    # F(u, g + u^N) = F(u, g) + u^N modulo degree > N, so the cut powers
    # must still read g's top degree where v itself does
    mode = EVAL_MODES[name]
    for order in range(1, 13):
        g = inverse_series(mode, order)
        top = dict(g._coeffs.get((order,), {}))
        fgl._pmul_into(top, {0: 1}, {0: 1})
        bumped = TruncatedSeries(("u",), order, g.ring, {**g._coeffs, (order,): top})
        got = fgl.compose(law_series(mode, order), "v", bumped)
        assert got._coeffs == {(order,): {0: 1}}, order
