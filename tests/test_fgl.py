"""Group law series: inverses, n-fold sums, division, associativity residues.

Expected coefficient values below were derived by hand (triangular solves on
paper) before the implementation existed, and are frozen; the multiplicative
mode doubles as an independent numeric oracle since there the n-fold sum is
(1+u)^n - 1 and division is the binomial series for (1+u)^(1/n) - 1.
"""

import random
from fractions import Fraction

import pytest

from dprkit import fgl
from dprkit.algebra import CoeffRing, IncompatibleRings, Monomial, Polynomial, VarSymbol, ZZ
from dprkit.fgl import (
    BETA,
    NonzeroConstantTerm,
    TruncatedSeries,
    additive_mode,
    associativity_relations,
    compose,
    custom_mode,
    denominator_profile,
    division_series,
    eval_dim_truncated,
    f_minus,
    inverse_series,
    law_series,
    multiplicative_mode,
    n_fold_sum,
    series_apply,
    series_to_json,
    universal_mode,
)


def a(i, j):
    return Polynomial.variable(VarSymbol("a", (min(i, j), max(i, j))))


def const(c, ring=ZZ):
    return Polynomial.constant(c, ring)


U = universal_mode()


def test_law_series_universal_structure():
    f = law_series(U, 3)
    assert f.coefficient((1, 0)) == const(1)
    assert f.coefficient((0, 1)) == const(1)
    assert f.coefficient((1, 1)) == a(1, 1)
    assert f.coefficient((1, 2)) == a(1, 2)
    assert f.coefficient((2, 1)) == a(1, 2)  # symmetric presentation
    assert f.coefficient((2, 2)) == Polynomial.zero()  # beyond order 3


def test_law_series_additive_and_multiplicative():
    assert law_series(additive_mode(), 6)._coeffs.keys() == {(1, 0), (0, 1)}
    f = law_series(multiplicative_mode(), 4)
    assert f.coefficient((1, 1)) == Polynomial.variable(BETA)
    assert f.coefficient((1, 2)).is_zero()
    g = law_series(custom_mode({(1, 1): -1}), 4)
    assert g.coefficient((1, 1)) == const(-1)


def test_custom_mode_symmetry():
    m = custom_mode({(1, 2): 5})
    assert law_series(m, 4).coefficient((2, 1)) == const(5)
    with pytest.raises(ValueError):
        custom_mode({(1, 2): 5, (2, 1): 7})


def test_custom_mode_admits_only_integers():
    # 0.5 must not become 0 (the additive law), and 1/2 must fail here
    # rather than when the series is exported
    with pytest.raises(TypeError):
        custom_mode({(1, 1): 0.5})
    with pytest.raises(IncompatibleRings):
        custom_mode({(1, 1): Fraction(1, 2)})
    assert custom_mode({(1, 1): Fraction(4, 2)}) == custom_mode({(1, 1): 2})


def test_inverse_series_frozen_coefficients():
    # hand solve of F(u, g(u)) = 0: g = -u + a11 u^2 - a11^2 u^3 + O(u^4)
    g = inverse_series(U, 3)
    assert g.coefficient((1,)) == const(-1)
    assert g.coefficient((2,)) == a(1, 1)
    assert g.coefficient((3,)) == -(a(1, 1) * a(1, 1))


def test_inverse_series_cancels_the_law():
    for order in (4, 8):
        g = inverse_series(U, order)
        assert compose(law_series(U, order), "v", g).is_zero()
    # the outer variables left in place must be variables of the inner
    # series: g is a series in u alone, so F(g, v) has no v to keep
    with pytest.raises(ValueError, match="'v' is not among"):
        compose(law_series(U, 4), "u", inverse_series(U, 4))


def test_inverse_series_special_modes():
    assert inverse_series(additive_mode(), 8).coefficients() == [
        ((1,), const(-1))
    ]
    # for u + v + beta uv the inverse is -u/(1 + beta u)
    g = inverse_series(multiplicative_mode(), 5)
    b = Polynomial.variable(BETA)
    assert g.coefficient((1,)) == const(-1)
    assert g.coefficient((2,)) == b
    assert g.coefficient((3,)) == -(b**2)
    assert g.coefficient((4,)) == b**3
    assert g.coefficient((5,)) == -(b**4)


def test_f_minus_low_order():
    d = f_minus(U, 2)
    assert d.coefficient((1, 0)) == const(1)
    assert d.coefficient((0, 1)) == const(-1)
    assert d.coefficient((0, 2)) == a(1, 1)
    assert d.coefficient((1, 1)) == -a(1, 1)


def test_f_minus_of_equal_arguments_vanishes():
    d = f_minus(U, 6)
    u = TruncatedSeries.variable("u", ("u",), 6)
    assert series_apply(d, [u, u]).is_zero()


def test_two_fold_sum_frozen_coefficients():
    f2 = n_fold_sum(U, 2, 4)
    assert f2.coefficient((1,)) == const(2)
    assert f2.coefficient((2,)) == a(1, 1)
    assert f2.coefficient((3,)) == const(2) * a(1, 2)
    assert f2.coefficient((4,)) == const(2) * a(1, 3) + a(2, 2)


def test_n_fold_leading_coefficient_is_n():
    for n in range(1, 6):
        assert n_fold_sum(U, n, 3).coefficient((1,)) == const(n)


def test_n_fold_additive_and_multiplicative():
    assert n_fold_sum(additive_mode(), 5, 6).coefficients() == [((1,), const(5))]
    # with beta = 1 the n-fold sum is (1+u)^n - 1
    from math import comb

    f = n_fold_sum(custom_mode({(1, 1): 1}), 4, 6)
    for k in range(1, 7):
        assert f.coefficient((k,)) == const(comb(4, k))


def test_division_series_frozen_coefficients():
    b = division_series(2, U, 3)
    half = CoeffRing([2])

    def ah(i, j):
        return Polynomial.variable(VarSymbol("a", (i, j)), half)

    assert b.coefficient((1,)) == const(Fraction(1, 2), half)
    assert b.coefficient((2,)) == ah(1, 1) * Fraction(-1, 8)
    assert b.coefficient((3,)) == ah(1, 1) ** 2 * Fraction(1, 16) - ah(1, 2) * Fraction(1, 8)


def test_division_series_round_trips():
    for n in (2, 3):
        bn = division_series(n, U, 6)
        fn = n_fold_sum(U, n, 6)
        ident = TruncatedSeries.variable("u", ("u",), 6, bn.ring)
        assert series_apply(bn, [fn]) == ident
        assert series_apply(fn, [bn]) == ident


def test_division_series_additive():
    b = division_series(5, additive_mode(), 6)
    assert b.coefficients() == [((1,), const(Fraction(1, 5), CoeffRing([5])))]


def test_division_series_multiplicative_is_binomial():
    # (1+u)^(1/2) - 1 has coefficients C(1/2, k)
    b = division_series(2, custom_mode({(1, 1): 1}), 4)
    assert b.coefficient((1,)) == const(Fraction(1, 2), b.ring)
    assert b.coefficient((2,)) == const(Fraction(-1, 8), b.ring)
    assert b.coefficient((3,)) == const(Fraction(1, 16), b.ring)
    assert b.coefficient((4,)) == const(Fraction(-5, 128), b.ring)


def test_division_first_coefficient_and_denominators():
    for n in (2, 3):
        b = division_series(n, U, 8)
        assert b.coefficient((1,)) == const(Fraction(1, n), b.ring)
        for i, k in denominator_profile(b):
            assert k <= i * (i + 1) // 2


def test_denominator_profile_frozen_prefix():
    b = division_series(2, U, 4)
    profile = dict(denominator_profile(b))
    assert profile[1] == 1
    assert profile[2] == 3
    assert profile[3] == 4


def test_associativity_residues():
    rels = associativity_relations(U, 4)
    assert all(sum(exp) >= 4 for exp in rels)  # nothing below degree 4
    # frozen by hand: the residue at u^2 v w is 2 a11 a12 + 3 a13 - 2 a22
    expected = const(2) * a(1, 1) * a(1, 2) + const(3) * a(1, 3) - const(2) * a(2, 2)
    assert rels[(2, 1, 1)] == expected
    # the whole difference is antisymmetric under swapping u and w
    assert rels[(1, 1, 2)] == -expected


def test_universal_associativity_residues_are_antisymmetric():
    # for a commutative law A(u,v,w) = -A(w,v,u), so the residue at (i,j,k)
    # is minus the one at (k,j,i) and none sits at i == k
    for order in range(1, 11):
        rels = associativity_relations(U, order)
        for (i, j, k), poly in rels.items():
            assert i != k, (order, i, j, k)
            assert rels.get((k, j, i)) == -poly, (order, i, j, k)


def test_associativity_vanishes_for_special_modes():
    assert associativity_relations(additive_mode(), 6) == {}
    assert associativity_relations(multiplicative_mode(), 6) == {}
    assert associativity_relations(custom_mode({(1, 1): 7}), 5) == {}
    assert associativity_relations(custom_mode({(1, 1): 3}), 5) == {}


def test_series_apply_rejects_constant_terms():
    f = law_series(U, 3)
    bad = TruncatedSeries(("u",), 3, ZZ, {(0,): {0: 1}, (1,): {0: 1}})
    u = TruncatedSeries.variable("u", ("u",), 3)
    with pytest.raises(NonzeroConstantTerm):
        series_apply(f, [bad, u])


def test_eval_dim_truncated_single_class():
    c = VarSymbol("c")
    cp = Polynomial.variable(c)
    for p in (2, 3, 5):
        f = n_fold_sum(U, p, 4)
        assert eval_dim_truncated(f, c, 1) == const(p) * cp
    cubed = TruncatedSeries(("u",), 5, ZZ, {(3,): {0: 1}})
    assert eval_dim_truncated(cubed, c, 2).is_zero()
    assert eval_dim_truncated(cubed, c, 3) == cp**3


def test_eval_dim_truncated_two_classes_additive():
    c1, c2 = VarSymbol("c", (1,)), VarSymbol("c", (2,))
    f = law_series(additive_mode(), 6)
    got = eval_dim_truncated(f, [c1, c2], 3)
    assert got == Polynomial.variable(c1) + Polynomial.variable(c2)


def test_series_json_is_deterministic():
    from dprkit.algebra import canonical_json

    f = n_fold_sum(U, 3, 5)
    blob = canonical_json(series_to_json(f))
    assert blob == canonical_json(series_to_json(n_fold_sum(U, 3, 5)))
    first = series_to_json(f)["coeffs"][0]
    assert first["exp"] == [1]
    assert first["poly"]["terms"][0]["coeff"] == {"num": "3", "den": "1"}


def test_n_fold_sum_is_a_loop_over_cached_sums():
    # 600 summands overflowed the stack when [n] recursed into [n-1]
    from math import comb

    f = n_fold_sum(custom_mode({(1, 1): 1}), 600, 3)
    assert [poly for _, poly in f.coefficients()] == [const(comb(600, k)) for k in (1, 2, 3)]


def _clear_solve_caches():
    inverse_series.cache_clear()
    n_fold_sum.cache_clear()
    fgl._n_fold_sums.cache_clear()


def _bump_degree_three(solve):
    def tampered(first, terms, order):
        s = solve(first, terms, order)
        s[3] = {**s[3], 0: s[3].get(0, 0) + 1}
        return s
    return tampered


def _drop_a_term(missing):
    def tampered(self, key):
        got = missing(self, key)
        if key == (2, 3):
            got.clear()
        return got
    return tampered


@pytest.mark.parametrize("tamper", ["coefficient", "powers"])
@pytest.mark.parametrize("mode", [U, custom_mode({(1, 1): 2, (1, 2): -1})], ids=["universal", "custom"])
def test_each_solve_check_can_fail(monkeypatch, tamper, mode):
    if tamper == "coefficient":
        monkeypatch.setattr(fgl, "_fixed_point", _bump_degree_three(fgl._fixed_point))
    else:
        monkeypatch.setattr(fgl._Powers, "__missing__", _drop_a_term(fgl._Powers.__missing__))
    _clear_solve_caches()
    try:
        with pytest.raises(ArithmeticError, match="inverse"):
            inverse_series(mode, 5)
        with pytest.raises(ArithmeticError, match="division"):
            division_series(3, mode, 5)
    finally:
        _clear_solve_caches()


def _custom_table(seed, order):
    rng = random.Random(seed)
    return {(i, j): rng.randint(-3, 3) for i in range(1, order) for j in range(i, order - i + 1)}


@pytest.mark.parametrize("mode, order", [
    (U, 8), (multiplicative_mode(), 16), (custom_mode(_custom_table(7, 16)), 16),
], ids=["universal", "multiplicative", "custom"])
def test_division_denominators_divide_n_to_the_2i_minus_1(mode, order):
    # B(u) = n beta(u/n^2) with beta integral gives b_i in n^-(2i-1) Z
    for n in range(2, 10):
        for i, k in denominator_profile(division_series(n, mode, order)):
            assert k <= 2 * i - 1, (n, i, k)
