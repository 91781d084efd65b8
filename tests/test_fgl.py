"""Group law series: inverses, n-fold sums, division, associativity residues.

Expected coefficient values below were derived by hand (triangular solves on
paper) before the implementation existed, and are frozen; the multiplicative
mode doubles as an independent numeric oracle since there the n-fold sum is
(1+u)^n - 1 and division is the binomial series for (1+u)^(1/n) - 1.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dprkit import fgl
from dprkit.algebra import CoeffRing, IncompatibleRings, Monomial, Polynomial, VarSymbol, ZZ
from dprkit.fgl import (
    BETA,
    AliasedAccumulator,
    FglMode,
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


def test_a_mode_takes_only_its_kinds_and_ordered_keys():
    # a misspelt kind must not expand the additive law, and a key with
    # i > j must not leave u^2 v and u v^2 at 0
    # and one law must have one table: a repeated key, keys out of order
    # or a zero coefficient would make a mode unequal to the same law's
    for kind, table in [("universl", ()), ("custom", (((2, 1), 5),)), ("custom", (((0, 1), 5),)),
                        ("custom", (((1, 0), 5),)), ("additive", (((1, 1), 5),)),
                        ("custom", (((1, 1), 2), ((1, 1), 3))),
                        ("custom", (((1, 2), 1), ((1, 1), 1))), ("custom", (((1, 1), 0),))]:
        with pytest.raises(ValueError):
            FglMode(kind, table)
    with pytest.raises(ValueError):
        custom_mode({(0, 2): 1})
    # custom_mode still merges a symmetric table into ordered keys, and
    # drops a zero entry, which gives no coefficient
    assert custom_mode({(2, 1): 5}) == FglMode("custom", (((1, 2), 5),))
    assert custom_mode({(1, 1): 0}) == custom_mode({}) == FglMode("custom")
    assert custom_mode({(1, 2): 0, (2, 1): 0, (1, 1): 4}) == custom_mode({(1, 1): 4})


def test_modes_are_immutable_values():
    table = {(1, 1): 3, (1, 2): -1, (2, 2): 4}
    mode = custom_mode(table)
    with pytest.raises(AttributeError):
        mode.kind = "additive"
    with pytest.raises(AttributeError):
        mode.table = ()
    assert custom_mode(table) == mode and hash(custom_mode(table)) == hash(mode)
    assert universal_mode() == U and hash(universal_mode()) == hash(U)
    assert custom_mode({(1, 1): 3}) != mode and additive_mode() != U
    # an equal mode built afresh is a hit of the series caches
    inverse_series(mode, 8)
    hits = inverse_series.cache_info().hits
    inverse_series(custom_mode(table), 8)
    assert inverse_series.cache_info().hits == hits + 1


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


@pytest.mark.parametrize("order", [6, 8, 10, 12])
def test_universal_associativity_residues_are_homogeneous(order):
    # give a[i][j] the weight i + j - 1 and u, v, w the weight -1: every term
    # of the law then weighs -1, so the residue at u^a v^b w^k is homogeneous
    # of weight a + b + k - 1.  Unlike antisymmetry, mirroring the powers of
    # F(u, v) cannot make this hold by itself.
    rels = associativity_relations(U, order)
    assert rels
    for (i, j, k), poly in rels.items():
        for mono in poly.terms:
            weight = sum((sum(sym.indices) - 1) * e for sym, e in mono.pairs)
            assert weight == i + j + k - 1, (order, i, j, k, mono)


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


def test_series_apply_keeps_the_outer_constant_term():
    # 3 + u + u^2 at u = 2u - u^2 is 3 + 2u + 3u^2 - 4u^3 + u^4
    outer = TruncatedSeries(("u",), 4, ZZ, {(0,): {0: 3}, (1,): {0: 1}, (2,): {0: 1}})
    arg = TruncatedSeries(("u",), 4, ZZ, {(1,): {0: 2}, (2,): {0: -1}})
    got = series_apply(outer, [arg])
    assert got.coefficients() == [
        ((0,), const(3)), ((1,), const(2)), ((2,), const(3)), ((3,), const(-4)), ((4,), const(1))]


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


def _validated(key):
    """A packed key read field by field into the validating constructor."""
    width = fgl._FIELD_BITS
    return Monomial((fgl._syms[pos], (key >> width * pos) & fgl._FIELD_MAX)
                    for pos in range(-(-key.bit_length() // width)))


def _assert_decodes_like_the_constructor(keys):
    for key in keys:
        got, want = fgl._unpack(key), _validated(key)
        assert got == want and hash(got) == hash(want), (key, got, want)
        assert fgl._unpack(key) is got  # decoded once, then read back


def _repacked(mono):
    return sum(fgl._pack_symbol(sym, e) for sym, e in mono.pairs)


def _out_of_registry_order(key):
    positions = [fgl._pos[sym] for sym, _ in _validated(key).pairs]
    return positions != sorted(positions)


def test_packed_keys_decode_to_the_validated_monomial():
    for order in range(1, 11):
        keys = {k for series in (law_series(U, order), inverse_series(U, order))
                for d in series._coeffs.values() for k in d}
        keys.update(_repacked(mono) for poly in associativity_relations(U, order).values()
                    for mono in poly.terms)
        _assert_decodes_like_the_constructor(keys)
    # sparse keys: set fields far apart, high in the registry, at the field's
    # largest exponent, where a decode that skips empty fields must land
    law_series(U, 24)  # registers over a hundred symbols
    top = len(fgl._syms) - 1
    width = fgl._FIELD_BITS
    spreads = [(40,), (40, 90), (41, 63, top), (0, 75), (top,), (1, 44, 45, top)]
    keys = {sum(e << width * pos for pos in spread) for spread in spreads for e in (63, 32, 1)}
    keys.update(sum((63 if i % 2 else 2) << width * pos for i, pos in enumerate(spread))
                for spread in spreads)
    _assert_decodes_like_the_constructor(keys)


def test_keys_decode_alike_after_new_symbols_are_registered():
    # beta and a[2][2] first, then a_ij of an order no other test reaches:
    # a new a[1][j] sits after both in the registry but sorts before them,
    # so keys holding both decode right only if the pairs are sorted
    older = [fgl._pack_symbol(BETA), fgl._pack_symbol(VarSymbol("a", (2, 2)))]
    fresh = {k for d in law_series(U, 24)._coeffs.values() for k in d}
    keys = fresh | {k + old for k in fresh for old in older}
    assert any(_out_of_registry_order(k) for k in keys)
    _assert_decodes_like_the_constructor(keys)
    _assert_decodes_like_the_constructor(list(fgl._decoded))


def test_decoded_coefficients_still_pass_the_ring_admission_rule():
    assert fgl._unpack_poly({0: Fraction(1, 2)}, CoeffRing([2])) == const(Fraction(1, 2), CoeffRing([2]))
    with pytest.raises(IncompatibleRings):
        fgl._unpack_poly({0: Fraction(1, 3)}, CoeffRing([2]))
    with pytest.raises(TypeError):
        fgl._unpack_poly({0: 0.5}, ZZ)


# the fused multiply-accumulate kernel --------------------------------------


def _product_then_add(acc, d1, d2):
    """acc + d1 * d2 the slow way: the whole product first, then the sum."""
    product = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            product[k1 + k2] = product.get(k1 + k2, 0) + c1 * c2
    total = dict(acc)
    for k, c in product.items():
        total[k] = total.get(k, 0) + c
    return {k: c for k, c in total.items() if c != 0}


def _assert_kernel_matches(acc, d1, d2):
    want = _product_then_add(acc, d1, d2)
    before = (dict(d1), dict(d2))
    got = dict(acc)
    fgl._pmul_into(got, d1, d2)
    assert got == want
    assert all(c != 0 for c in got.values())
    assert (d1, d2) == before  # the factors are only read


def test_pmul_into_matches_product_then_add():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # few keys and small coefficients, so terms collide and sums cancel
    coeffs = (st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=4)).filter(bool)
    packed = st.dictionaries(st.integers(0, 6), coeffs, max_size=5)

    @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @hypothesis.given(packed, packed, packed)
    def check(acc, d1, d2):
        _assert_kernel_matches({}, d1, d2)
        _assert_kernel_matches(acc, d1, d2)

    check()


@pytest.mark.parametrize("acc, d1, d2", [
    ({}, {0: 1, 1: 1}, {0: 1, 1: -1}),  # (1 + x)(1 - x): the x terms cancel
    ({0: -1, 2: 1}, {0: 1, 1: 1}, {0: 1, 1: -1}),  # and the rest cancels acc
    ({3: Fraction(1, 2)}, {1: Fraction(-1, 4)}, {2: 2}),
    ({5: 7}, {}, {0: 1}),
])
def test_pmul_into_cancels_to_no_zero_entries(acc, d1, d2):
    _assert_kernel_matches(acc, d1, d2)


def test_pmul_into_refuses_to_accumulate_into_a_factor():
    d, e = {0: 1, 1: 2}, {1: 3}
    with pytest.raises(AliasedAccumulator):
        fgl._pmul_into(d, d, e)
    with pytest.raises(AliasedAccumulator):
        fgl._pmul_into(e, d, e)
    assert (d, e) == ({0: 1, 1: 2}, {1: 3})


def test_pmul_into_aliasing_check_survives_optimisation(cli_env):
    # an assert would vanish under python -O; the typed error must not
    script = ("from dprkit import fgl\n"
              "d = {0: 1}\n"
              "try:\n"
              "    fgl._pmul_into(d, d, {0: 1})\n"
              "except fgl.AliasedAccumulator:\n"
              "    print('refused')\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         check=True, env=cli_env)
    assert out.stdout == "refused\n"


# n-fold sums against the compose loop --------------------------------------


def _n_fold_sums_by_compose(mode, n, order):
    """[1](u), ..., [n](u) with [k](u) = compose(law, "v", [k-1](u))."""
    law = law_series(mode, order)
    sums = [TruncatedSeries.variable("u", ("u",), order)]
    while len(sums) < n:
        sums.append(compose(law, "v", sums[-1]))
    return sums


@pytest.mark.parametrize("mode", [
    U, additive_mode(), multiplicative_mode(), custom_mode(_custom_table(11, 12)),
], ids=["universal", "additive", "multiplicative", "custom"])
def test_n_fold_sum_matches_the_compose_loop(mode):
    _clear_solve_caches()
    for order in range(1, 13):
        for k, want in enumerate(_n_fold_sums_by_compose(mode, 9, order), start=1):
            assert n_fold_sum(mode, k, order) == want, (k, order)


# the solves and their checks take different routes -------------------------


def test_inverse_check_is_made_by_compose(monkeypatch):
    # a compose that never cancels must make the inverse's own check fail
    law = law_series(U, 5)
    monkeypatch.setattr(fgl, "compose", lambda outer, var, inner: law)
    _clear_solve_caches()
    try:
        with pytest.raises(ArithmeticError, match="inverse"):
            inverse_series(U, 5)
    finally:
        _clear_solve_caches()


def test_n_fold_sum_uses_no_series_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("n_fold_sum went through the series path")

    monkeypatch.setattr(fgl, "compose", refuse)
    monkeypatch.setattr(fgl, "series_apply", refuse)
    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    _clear_solve_caches()
    try:
        f2 = n_fold_sum(U, 2, 4)
        n_fold_sum(U, 9, 4)
    finally:
        _clear_solve_caches()
    assert f2.coefficient((3,)) == const(2) * a(1, 2)
    assert f2.coefficient((4,)) == const(2) * a(1, 3) + a(2, 2)


def test_compose_uses_no_solve_kernel(monkeypatch):
    g = inverse_series(U, 6)

    def refuse(*args):
        raise AssertionError("compose went through the solve kernel")

    monkeypatch.setattr(fgl, "_Powers", refuse)
    monkeypatch.setattr(fgl, "_dot", refuse)
    assert compose(law_series(U, 6), "v", g).is_zero()
