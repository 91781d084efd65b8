"""Relation polynomial builders and structural checks.

Small cases are frozen against hand expansions of the recursion; the term
counts come from the side recurrence t(E_n) = 2 t(E_{n-1}) + t(F_{n-1}) + n - 1,
t(F_n) = t(F_{n-1}) + 2 (n - 1 + t(E_{n-1})), worked out on paper, which is
valid because every recursion step multiplies by fresh generators and so
never cancels or merges terms.  The same recursion over the counting semiring
gives the closed forms |T_n| = 3^(n-1), |F_n| = 3^(n-1) - 1 and
|GX(n, m)| = 3^(n+m-2) + 3^(n-1) - 3^(m-1).
"""

import random
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from dprkit import cli, dpr
from dprkit.algebra import Monomial, Polynomial, VarSymbol, ZZ, coeff_to_json, poly_to_json
from dprkit.dpr import (
    DprPolynomial,
    NotMultilinear,
    TermCollision,
    _concat_chunks,
    build_ex,
    build_ey,
    build_fx,
    build_fy,
    build_gx,
    build_gy,
    chain_symbols,
    chain_values,
    check_index_bounds,
    check_multilinear,
    dpr_to_json,
    mirror_check,
    padding_check,
    relation_values,
    weight_check,
)
from dprkit.algebra import UnboundVariable
from dprkit.fixedpoint import ALL_BAD_VALUES, all_bad_evaluation


def sym(family, *indices):
    return VarSymbol(family, indices)


def poly(*terms):
    """terms: (coeff, [symbols...])"""
    return Polynomial(ZZ, ((Monomial({s: 1 for s in syms}), c) for c, syms in terms))


def bit(s):
    """The mask of relation generator s, named through `dpr._mask`."""
    if s.family in ("X", "Y"):
        return dpr._mask(s.family, *s.indices)
    p, k = s.indices
    return dpr._mask((s.family, p), k)


def masked(*terms):
    """A flat DprPolynomial of terms given as `poly` takes them."""
    out = {}
    for c, syms in terms:
        mask = 0
        for s in syms:
            mask |= bit(s)
        out[mask] = c
    return DprPolynomial(out)


X1, X2, X3 = sym("X", 1), sym("X", 2), sym("X", 3)
Y1, Y2 = sym("Y", 1), sym("Y", 2)
U11, U12 = sym("U", 1, 1), sym("U", 1, 2)
U22, U32 = sym("U", 2, 2), sym("U", 3, 2)

E_COUNTS = [None, 0, 1, 6, 23, 76, 237, 722, 2179]
F_COUNTS = [None, 0, 2, 8, 26, 80, 242, 728, 2186]


def test_base_cases_are_zero():
    assert build_ex(1).is_zero()
    assert build_fx(1).is_zero()
    assert build_ey(1).is_zero()
    assert build_fy(1).is_zero()


def test_excess_two_frozen():
    assert build_ex(2).to_polynomial() == poly((-1, [X1, X2, U11]))


def test_correction_two_frozen():
    assert build_fx(2).to_polynomial() == poly((1, [X1, X2, U22]), (-1, [X1, X2, U32]))


def test_excess_three_frozen():
    expected = poly(
        (-1, [X1, X2, U11]),
        (-1, [X1, X3, U12]),
        (-1, [X2, X3, U12]),
        (1, [X1, X2, X3, U11, U12]),
        (-1, [X1, X2, X3, U22]),
        (1, [X1, X2, X3, U32]),
    )
    assert build_ex(3).to_polynomial() == expected


def test_full_relation_smallest_cases():
    assert build_gx(1, 1).to_polynomial() == poly((1, [X1]))
    assert build_gy(1, 2).to_polynomial() == poly((1, [Y1]))
    expected_21 = poly(
        (1, [X1]),
        (1, [X2]),
        (-1, [X1, X2, U11]),
        (1, [Y1, X1, X2, U22]),
        (-1, [Y1, X1, X2, U32]),
    )
    assert build_gx(2, 1).to_polynomial() == expected_21


def test_term_counts_match_recurrence(monkeypatch, no_materialization):
    for n in range(1, 9):
        assert len(build_ex(n)) == E_COUNTS[n]
        assert len(build_fx(n)) == F_COUNTS[n]
        assert len(build_ey(n)) == E_COUNTS[n]
    for n, m in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        expect = n + E_COUNTS[n] + (m + E_COUNTS[m]) * F_COUNTS[n]
        assert len(build_gx(n, m)) == expect
    # the closed forms, counted through len on the factors; a private cache
    # lets the chains up to 12 go when the test ends
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    for n in range(1, 13):
        assert n + len(build_ex(n)) == 3 ** (n - 1)  # T_n = S_n + E_n
        assert n + len(build_ey(n)) == 3 ** (n - 1)
        assert len(build_fx(n)) == 3 ** (n - 1) - 1
        assert len(build_fy(n)) == 3 ** (n - 1) - 1
        for m in range(1, 13):
            expect = 3 ** (n + m - 2) + 3 ** (n - 1) - 3 ** (m - 1)
            assert len(build_gx(n, m)) == expect, (n, m)
            assert len(build_gy(n, m)) == expect, (n, m)


def test_top_case_term_count_and_distinctness():
    g = build_gx(8, 8)
    assert len(g) == 3**14  # = 8 + 2179 + (8 + 2179) * 2186
    masks, coeffs = set(), set()
    for mask, c in g.terms():
        masks.add(mask)
        coeffs.add(c)
    assert len(masks) == len(g)
    assert coeffs == {-1, 1}


def test_concat_chunks_rejects_colliding_chunks():
    x1, x2 = bit(X1), bit(X2)
    assert _concat_chunks([{x1: 1}, {x2: -1}]) == {x1: 1, x2: -1}
    with pytest.raises(TermCollision):
        _concat_chunks([{x1: 1, x2: 1}, {x2: 1}])
    # even with coefficients that would cancel, a shared term is a collision
    with pytest.raises(TermCollision):
        _concat_chunks([{x1: 1}, {x1: -1}])


def test_glue_rejects_a_product_that_may_meet_the_chain(monkeypatch):
    # a second chain with a constant term puts F^X_n's own terms into the
    # product; no term of T^X_n is one of them, so the terms still add up
    y_chain = masked((1, []), (1, [Y1]))
    monkeypatch.setitem(dpr._CHAIN_CACHE, ("Y", 1), (y_chain, DprPolynomial({})))
    g = build_gx(2, 1)
    assert len(g) == len(dict(g.terms())) == 3 + 2 * 2
    assert_renderings_match_the_oracle(g)
    # with a correction chain that holds a term of T^X_2, one term would be
    # stored twice, and the constructor refuses it
    t, f = dpr._chain("X", 2)
    monkeypatch.setitem(dpr._CHAIN_CACHE, ("X", 2), (t, DprPolynomial({**f.flat, bit(X1): 1})))
    with pytest.raises(TermCollision):
        build_gx(2, 1)


def test_checks_run_on_the_factors(no_materialization):
    # every structural check at the top grid cell and past index 8, without
    # multiplying out a product (4,782,969 and 6,561 terms)
    start = time.perf_counter()
    for n, m in [(8, 8), (9, 2)]:
        gx, gy = build_gx(n, m), build_gy(m, n)
        assert check_multilinear(gx) and check_multilinear(gy)
        assert check_index_bounds(gx, n, m) and check_index_bounds(gy, n, m)
        assert weight_check(gx, 1) and weight_check(gy, 1)
        assert mirror_check(n, m)
    assert padding_check(2, 2, 9, 2) and padding_check(8, 1, 8, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed


def test_multilinearity():
    for n, m in [(1, 1), (3, 2), (5, 4)]:
        assert check_multilinear(build_gx(n, m))


def test_multilinear_check_fails_on_factors_that_share_a_generator():
    # a product kept as factors on X1 + X2 and X2 * U11 holds X2^2
    left = masked((1, [X1]), (1, [X2]))
    right = masked((1, [X2, U11]))
    tampered = DprPolynomial({}, (left, right))
    assert not check_multilinear(tampered)
    with pytest.raises(NotMultilinear):
        list(tampered.terms())
    # the constructor keeps such factors as given, for the check to report
    assert tampered.factors == (left, right)
    assert check_multilinear(DprPolynomial({}, (left, masked((1, [Y1])))))


def test_weights():
    for n in range(1, 7):
        assert weight_check(build_ex(n), 1)
        assert weight_check(build_fx(n), 0)
        assert weight_check(build_ey(n), 1)
        assert weight_check(build_fy(n), 0)
    for n, m in [(1, 1), (2, 1), (3, 4), (5, 2)]:
        assert weight_check(build_gx(n, m), 1)
        assert weight_check(build_gy(n, m), 1)
    assert not weight_check(masked((1, [X1, X2])), 1)
    assert weight_check(masked((1, [X1, X2, U11])), 1)
    # mixed weights with one term at the target, below it and above it:
    # both the least and the greatest weight must match
    assert not weight_check(masked((1, [X1]), (1, [X1, X2])), 1)
    assert not weight_check(masked((1, [X1]), (1, [X1, U11])), 1)
    # past index 8
    assert not weight_check(masked((1, [X1]), (1, [X1, sym("X", 10)])), 1)
    assert weight_check(build_gx(9, 2), 1)
    # a product's weights are the sums of its factors' weights
    y1, x2 = masked((1, [Y1])), masked((1, [X2]))
    x2_u11 = masked((1, [X2, U11]))
    assert weight_check(DprPolynomial({}, (y1, x2_u11)), 1)
    assert not weight_check(DprPolynomial({}, (y1, x2)), 1)
    assert not weight_check(DprPolynomial(x2_u11.flat, (y1, x2_u11)), 1)


def test_index_bounds():
    for n, m in [(1, 1), (2, 3), (4, 4), (6, 2)]:
        assert check_index_bounds(build_gx(n, m), n, m)
        # the mirror build swaps which side carries how many classes
        assert check_index_bounds(build_gy(n, m), m, n)
    # a marker with too high an index must be flagged
    bad = masked((1, [X1, X2, sym("U", 1, 2)]))
    assert not check_index_bounds(bad, 2, 1)
    assert check_index_bounds(bad, 3, 1)
    # the support is always the terms' own: no caller can pass a narrower one
    x9 = {bit(sym("X", 9)): 1}
    with pytest.raises(TypeError):
        DprPolynomial(x9, None, 0)
    assert not check_index_bounds(DprPolynomial(x9), 8, 8)


def test_allowed_support_is_the_chain_generators():
    # the mask built by arithmetic against the fold over the generator list,
    # up to the highest index the mask form holds
    for n in range(1, dpr._MAX_INDEX + 1):
        for m in range(1, dpr._MAX_INDEX + 1):
            folded = 0
            for s in chain_symbols("X", n) + chain_symbols("Y", m):
                folded |= bit(s)
            assert dpr._allowed_support(n, m) == folded, (n, m)


def test_mirror():
    for n, m in [(1, 1), (1, 3), (2, 2), (4, 3), (2, 9)]:
        assert mirror_check(n, m)
    assert build_ex(4).swap_sides() == build_ey(4)
    assert build_fy(5).swap_sides() == build_fx(5)
    g = build_gx(3, 2)
    assert g.swap_sides().swap_sides() == g


def test_padding():
    # the last two kill classes past index 8
    for n, m, big_n, big_m in [(1, 1, 3, 3), (2, 1, 4, 2), (2, 2, 2, 2), (3, 2, 5, 4),
                               (1, 2, 4, 4), (8, 1, 9, 1), (2, 2, 9, 2)]:
        assert padding_check(n, m, big_n, big_m)
    with pytest.raises(ValueError):
        padding_check(3, 1, 2, 1)


def test_padding_kills_are_held_per_cut(monkeypatch):
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    grid = [(n, m) for n in range(1, 5) for m in range(1, 4)]
    assert all(padding_check(n, m, 4, 3) for n, m in grid)
    held = _held()
    # every chain of GX(4, 3) holds one kill per cut of its own generators:
    # T_4 one per n, however many second-family counts m were padded
    kills = {chain: {name[1] for name in held[chain] if name[0] == "kill"}
             for chain in [(("X", 4), 0), (("X", 4), 1), (("Y", 3), 0)]}
    assert kills[("X", 4), 0] == kills[("X", 4), 1] == {
        sum(bit(sym("X", i)) for i in range(n + 1, 5)) for n in range(1, 5)}
    assert kills[("Y", 3), 0] == {
        sum(bit(sym("Y", j)) for j in range(m + 1, 4)) for m in range(1, 4)}
    # a second sweep kills nothing again
    assert all(padding_check(n, m, 4, 3) for n, m in grid)
    assert _held() == held


def test_padding_check_can_fail(monkeypatch):
    # a kill that keeps one out-of-range term; the untampered check warms
    # the held kills first, so the tamper shows only on a fresh cache
    assert padding_check(1, 1, 3, 2)
    real = dpr._flat_kill

    def keeps_one(p, cut):
        kept = dict(real(p, cut).flat)
        for mask, c in p.flat.items():
            if mask & cut:
                kept[mask] = c
                break
        return DprPolynomial(kept)

    monkeypatch.setattr(dpr, "_flat_kill", keeps_one)
    assert padding_check(1, 1, 3, 2)  # served from the held kills
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    assert not padding_check(1, 1, 3, 2)
    assert not padding_check(2, 2, 3, 3)


def test_recursion_checks_can_fail(monkeypatch):
    # a chain holds its mirror once made, so the untampered check warms the
    # cache first and the tampered one runs on a fresh cache: the red result
    # comes from the tamper, not from what a chain held before it
    assert mirror_check(2, 2)
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    # a mirror that swaps the classes but not their markers: the factors
    # differ, so the comparison falls back to the terms and finds them apart
    monkeypatch.setattr(dpr, "_U", 0)
    monkeypatch.setattr(dpr, "_V", 0)
    assert not mirror_check(2, 2)
    assert not mirror_check(3, 2)
    monkeypatch.undo()
    # likewise for the weight sets: a weight that forgets the second
    # family's first markers
    assert weight_check(build_gx(2, 2), 1) and weight_check(build_gy(2, 2), 1)
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})
    monkeypatch.setattr(dpr, "_FIRST_MARKERS", dpr._families(("U", 1)))
    assert not weight_check(build_gx(2, 2), 1)
    assert not weight_check(build_gy(2, 2), 1)
    monkeypatch.undo()
    # a smaller relation that is not the padded one's image: its flat part
    # differs (n = 1) or its product's factors do (n = 2)
    real = dpr.build_gx

    def negated(p):
        factors = None if p.factors is None else (negated(p.factors[0]), p.factors[1])
        return DprPolynomial({mask: -c for mask, c in p.flat.items()}, factors)

    monkeypatch.setattr(dpr, "build_gx", lambda n, m: negated(real(n, m)) if n < 3 else real(n, m))
    assert not padding_check(1, 1, 3, 2)
    assert not padding_check(2, 2, 3, 3)


def test_product_guards_multilinearity():
    for shared in (masked((1, [X1])), masked((1, [X1]), (1, [X2]))):
        square = DprPolynomial({}, (shared, shared))
        assert not check_multilinear(square)
        with pytest.raises(NotMultilinear):
            list(square.terms())
    # coefficients are Python ints, so products stay exact at any size
    a = masked((1 << 31, [X1]))
    b = masked((-(1 << 80) - 1, [X2]))
    (term,) = DprPolynomial({}, (a, b)).terms()
    assert term == (bit(X1) | bit(X2), -(1 << 111) - (1 << 31))


def test_cached_terms_are_read_only():
    # the builders hand out the same chain dicts to every caller
    # (a mappingproxy raises IndexError, not TypeError, for an int key of
    # 2^63 or more, as the masks of most generators are)
    f = build_fx(3)
    with pytest.raises(TypeError):
        f.flat[0] = 1
    with pytest.raises((TypeError, IndexError)):
        f.flat[bit(X1)] = 1
    with pytest.raises(AttributeError):
        f.support = 0
    assert 0 not in build_fx(3).flat and bit(X1) not in build_fx(3).flat


def test_interned_symbols_are_found_by_identity():
    # VarSymbol keeps object's __eq__ and __hash__: interning makes one
    # object per name, so a symbol built afresh finds the held one's entry
    assert "__eq__" not in vars(VarSymbol) and "__hash__" not in vars(VarSymbol)
    value = {s: k for k, s in enumerate(chain_symbols("X", 3))}
    assert value[VarSymbol("U", [1, 1])] == value[VarSymbol("U", (1, 1))] == 3
    for s, k in value.items():
        assert value[VarSymbol(s.family, list(s.indices))] == k
        assert value[dpr._symbol_of_bit(bit(s).bit_length() - 1)] == k
    assert VarSymbol("U", [1, 3]) not in value


def test_mask_names_every_generator_once():
    # each family key at indices 1, 2, 10 and 16, the highest the mask form
    # holds, round-trips through the bit's symbol, and the masks are
    # distinct bits; index 17 is refused
    masks = set()
    for key in dpr._KEYS:
        with pytest.raises(ValueError):
            dpr._mask(key, dpr._MAX_INDEX + 1)
        for k in (1, 2, 10, dpr._MAX_INDEX):
            mask = dpr._mask(key, k)
            assert mask & (mask - 1) == 0
            masks.add(mask)
            s = dpr._symbol_of_bit(mask.bit_length() - 1)
            assert s is (VarSymbol(key, (k,)) if isinstance(key, str)
                         else VarSymbol(key[0], (key[1], k))), (key, k)
    assert len(masks) == 4 * len(dpr._KEYS)
    for key, k in [("X", 0), (("V", 3), 0), ("Z", 1), (("U", 4), 1), (("X", 1), 1)]:
        with pytest.raises(ValueError):
            dpr._mask(key, k)


def test_flat_copy_of_a_factored_relation_compares_by_terms():
    # a flat polynomial on the terms of GX(3, 2), which keeps a product as
    # its factors, is equal to it; one changed coefficient makes it unequal
    g = build_gx(3, 2)
    terms = dict(g.terms())
    assert g.factors is not None
    assert DprPolynomial(terms) == build_gx(3, 2) and build_gx(3, 2) == DprPolynomial(terms)
    mask = next(iter(g.factors[0].flat)) | next(iter(g.factors[1].flat))
    changed = DprPolynomial({**terms, mask: terms[mask] + 1})
    assert changed != build_gx(3, 2) and build_gx(3, 2) != changed


def test_evaluation_agrees_with_core_engine():
    rng = random.Random(31)
    g = build_gx(3, 2)
    syms = sorted(g.to_polynomial().symbols(), key=lambda s: s.sort_key)
    for _ in range(10):
        point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for s in syms}
        assert g.evaluate_rational(point) == g.to_polynomial().evaluate_rational(point)


def test_evaluation_keeps_an_int_point_in_the_integers():
    # an int point gives an int, the same point as Fractions an equal Fraction
    rng = random.Random(5)
    for g in (build_gx(3, 2), build_ex(4), build_gy(2, 3)):
        syms = sorted(g.to_polynomial().symbols(), key=lambda s: s.sort_key)
        point = {s: rng.randint(-9, 9) for s in syms}
        value = g.evaluate_rational(point)
        assert type(value) is int
        as_fractions = g.evaluate_rational({s: Fraction(v) for s, v in point.items()})
        assert type(as_fractions) is Fraction and as_fractions == value


def test_a_two_digit_index_has_its_own_bit_and_bound():
    e = build_ex(10)  # past index 8, to a two-digit index
    assert e.support & dpr._mask("X", 10)
    assert check_index_bounds(e, 10, 1) and not check_index_bounds(e, 9, 1)
    e9 = 2 * E_COUNTS[8] + F_COUNTS[8] + 8
    f9 = F_COUNTS[8] + 2 * (8 + E_COUNTS[8])
    assert len(e) == 2 * e9 + f9 + 9
    assert weight_check(e, 1)
    assert e.swap_sides() == build_ey(10)


def test_json_is_graded_lex():
    blob = dpr_to_json(build_gx(2, 1))
    keys = [list(t["monomial"].keys()) for t in blob["terms"]]
    assert keys[0] == ["X[1]"]
    assert keys[1] == ["X[2]"]
    assert keys[2] == ["X[1]", "X[2]", "U[1][1]"]
    assert blob["ring"] == {"inverted": []}


def test_json_terms_share_one_dict_per_coefficient():
    # each distinct coefficient's dict is made once and held by every term
    # that has it, so no per-term coefficient dict is made
    terms = dpr_to_json(build_gx(3, 3))["terms"]
    by_value = defaultdict(set)
    for t in terms:
        by_value[tuple(t["coeff"].items())].add(id(t["coeff"]))
    assert len(by_value) < len(terms)
    assert all(len(ids) == 1 for ids in by_value.values())


@pytest.mark.parametrize("build, counts", [
    *[(build, (n, m)) for build in (build_gx, build_gy) for n in range(1, 5) for m in range(1, 5)],
    *[(build, (n,)) for build in (build_ex, build_ey, build_fx, build_fy) for n in range(1, 7)]],
    ids=lambda arg: getattr(arg, "__name__", str(arg)))
def test_json_and_ordered_terms_agree_term_for_term(build, counts):
    # the JSON is made from ordered_terms, so this pins that it formats each
    # term as given: the same names in the same order, the same
    # coefficients, and one dict per coefficient shared by all its terms;
    # assert_renderings_match_the_oracle checks both against to_polynomial
    g = build(*counts)
    terms = dpr_to_json(g)["terms"]
    assert [(list(t["monomial"].items()), t["coeff"]) for t in terms] == [
        ([(name, 1) for name in names], coeff_to_json(c)) for names, c in dpr.ordered_terms(g)]
    assert len(terms) == len(g)
    shared: dict = {}
    assert all(shared.setdefault(tuple(t["coeff"].items()), t["coeff"]) is t["coeff"]
               for t in terms)


def hand_built():
    """A product whose factors are no chains, with coefficients 2 and -3,
    past index 9 on one side."""
    a = masked((2, [Y1]), (2, [sym("Y", 10), sym("V", 1, 9)]))
    b = masked((-3, [X2, U22]), (-3, [sym("X", 9), sym("X", 10)]))
    return DprPolynomial({bit(X1): 1, bit(sym("X", 10)): 5}, (a, b))


def with_constant():
    """A constant term, whose Monomial is empty, and coefficients of
    different widths."""
    return masked((7, []), (-12, [X1]), (1, [X1, Y2]))


def zero():
    """No terms: the text is the one row "0"."""
    return DprPolynomial({})


def flat_only():
    """Terms and no factors, coefficients of three widths."""
    return masked((-100, [X2]), (3, [X1, Y1]), (12, [Y2]), (-1, [X1, X2, U12]))


def same_kind():
    """X[2] times X[1]: both factors hold X, and the second one's comes
    first."""
    return DprPolynomial({}, (masked((1, [X2])), masked((1, [X1]))))


def shared_kinds_past_nine():
    """Both factors hold X and U generators at indices 9 and 10, where
    index 10 sorts after index 9: the second one's classes come first, the
    first one's U[1][9] before the second one's U[1][10], but its U[3][10]
    after the second one's U[2][9]."""
    a = masked((2, [sym("X", 10), sym("U", 1, 9)]), (-1, [sym("X", 9)]),
               (3, [sym("U", 3, 10), sym("Y", 2)]))
    b = masked((-3, [X1, sym("U", 2, 10)]), (1, [X2, sym("U", 1, 10)]), (5, [sym("U", 2, 9)]))
    return DprPolynomial({bit(X3): 7}, (a, b))


def crossed_kinds():
    """One factor holds X and V, the other Y and U: their class parts come
    in one order and their marker parts in the other."""
    a = masked((1, [X1, sym("V", 1, 1)]), (2, [X2]))
    b = masked((-1, [Y1, U12]), (3, [Y2]))
    return DprPolynomial({}, (a, b))


def nested_classes():
    """One factor's classes lie on both sides of the other's: X[1] and X[3]
    around X[2]."""
    return DprPolynomial({}, (masked((1, [X1]), (1, [X3])), masked((1, [X2]))))


def nested_markers():
    """Likewise for markers: U[1][1] and U[3][3] around U[2][2]."""
    return DprPolynomial({}, (masked((1, [X1, U22])), masked((1, [Y1, U11]), (1, [sym("U", 3, 3)]))))


def markers_alone():
    """One factor holds every class, the other markers only."""
    return DprPolynomial({}, (masked((1, [U22]), (-2, [U11, sym("U", 3, 3)])),
                              masked((4, [X1, Y1]), (1, [X2]))))


_JSON_CASES = [
    *((build, (n,)) for build in (build_ex, build_fx, build_ey, build_fy) for n in range(1, 5)),
    *((build, (n, m)) for build in (build_gx, build_gy) for n in range(1, 5) for m in range(1, 5)),
    (build_gx, (5, 5)),
    # past index 8, where index 10 sorts after index 9 but its name before
    (build_gx, (9, 1)),
    (build_gy, (1, 9)),
    (build_gx, (2, 9)),
    (build_ex, (10,)),
    (hand_built, ()),
    (with_constant, ()),
    # products whose factors share a generator kind, or hold one part each
    (same_kind, ()),
    (markers_alone, ()),
    (zero, ()),
    (flat_only, ()),
]


def rows_at_once(g) -> str:
    """The relation text with every row made first, then padded to the
    widest coefficient and joined: the reference for `cli._poly_text`."""
    rows = [(f"{c:+d}", "*".join(names) or "1") for names, c in dpr.ordered_terms(g)]
    if not rows:
        return "0\n"
    width = max(len(a) for a, _ in rows)
    return "".join(f"{a:<{width}}  {b}\n" for a, b in rows)


def written_text(g) -> tuple[str, list[str]]:
    """What `cli._poly_text` writes for g, joined, and its chunks."""
    chunks: list[str] = []
    cli._poly_text(g, chunks.append)
    return "".join(chunks), chunks


def assert_renderings_match_the_oracle(g):
    """`dpr_to_json` and the CLI's text rows against `to_polynomial()`, the
    order of the terms and of each term's keys included, and the
    coefficient set both read against the multiplied-out terms'."""
    def ordered(blob):
        # dict equality would not see the order of the keys, which the text shows
        return list(blob), blob["ring"], [
            (list(t), list(t["coeff"].items()), list(t["monomial"].items())) for t in blob["terms"]]

    assert g.distinct_coefficients() == {c for _, c in g.terms()}
    oracle = g.to_polynomial()
    assert ordered(dpr_to_json(g)) == ordered(poly_to_json(oracle))
    # the text rows come from the same term stream: check them against the
    # oracle's own order and Monomial rendering
    rows = [(f"{c:+d}", str(mono)) for mono, c in oracle.sorted_terms()]
    width = max((len(c) for c, _ in rows), default=0)
    text = "".join(f"{c:<{width}}  {mono}\n" for c, mono in rows)
    assert written_text(g)[0] == rows_at_once(g) == (text or "0\n")


@pytest.mark.parametrize("build, counts", [
    pytest.param(build, counts, id=f"{build.__name__}{counts}") for build, counts in _JSON_CASES])
def test_json_from_masks_matches_the_decoded_polynomial(build, counts):
    assert_renderings_match_the_oracle(build(*counts))


@pytest.mark.parametrize("build, counts", [(build_gx, (5, 5)), (build_ex, (9,))],
                         ids=lambda arg: getattr(arg, "__name__", str(arg)))
def test_relation_text_is_written_in_chunks_of_whole_rows(build, counts):
    # 6,561 and 6,552 rows: one full chunk of 4,096 rows, then the rest
    g = build(*counts)
    text, chunks = written_text(g)
    assert text == rows_at_once(g)
    rows = [chunk.count("\n") for chunk in chunks]
    assert rows == [4096, len(g) - 4096]
    assert all(chunk.endswith("\n") for chunk in chunks)


@pytest.mark.parametrize("build, counts", [
    (build_gx, (3, 4)), (build_gy, (4, 3)), (build_gx, (2, 9)), (build_gy, (9, 2))])
def test_builder_products_join_their_factors_parts(monkeypatch, build, counts):
    # a glued relation polynomial stores its upper factor, the one on X and
    # U, first, so its terms' names are joined from the factors' held rows
    # and no term is named again once those are held
    def refuse(mask, name_at):
        raise AssertionError("a held row was named again")

    def families(p):
        return {dpr._symbol_of_bit(pos).family for pos in range(p.support.bit_length())
                if p.support >> pos & 1}

    g = build(*counts)
    assert families(g.factors[0]) <= {"X", "U"} and families(g.factors[1]) <= {"Y", "V"}
    expected = dpr_to_json(g)  # the rows are now held
    monkeypatch.setattr(dpr, "_names_down", refuse)
    assert dpr_to_json(g) == expected


@pytest.mark.parametrize("build", [crossed_kinds, shared_kinds_past_nine, nested_classes,
                                   nested_markers],
                         ids=lambda build: build.__name__)
def test_interleaved_factors_are_refused(build):
    # neither factor's classes and markers all sort before the other's, so
    # a product term's names would not join its factors' parts
    with pytest.raises(dpr.InterleavedFactors):
        build()


def test_a_flat_term_that_is_a_product_term_is_refused():
    # X[1]*Y[1] stored flat and as X[1] times Y[1] would print two rows for
    # one monomial
    x1, y1, x2 = bit(X1), bit(Y1), bit(X2)
    with pytest.raises(TermCollision):
        DprPolynomial({x1 | y1: 5}, (DprPolynomial({x1: 1}), DprPolynomial({y1: 2})))
    # a factor that holds the constant term puts the other's terms into the
    # product, and its own when both do
    with pytest.raises(TermCollision):
        DprPolynomial({x1: 5}, (DprPolynomial({x1: 1}), DprPolynomial({0: 1, y1: 2})))
    with pytest.raises(TermCollision):
        DprPolynomial({0: 5}, (DprPolynomial({0: 1, x1: 1}), DprPolynomial({0: 1, y1: 2})))
    # a factor that is itself a product would be counted in len() but never
    # multiplied out, so it is refused
    with pytest.raises(ValueError, match="product factors must be flat"):
        DprPolynomial({}, (build_gx(2, 1), DprPolynomial({bit(sym("V", 1, 5)): 1})))
    # a flat term with a generator past both factors' is no product term
    g = DprPolynomial({x1 | y1 | x2: 5, x1: 3}, (DprPolynomial({x1: 1}), DprPolynomial({y1: 2})))
    assert len(g) == 3
    assert_renderings_match_the_oracle(g)


def test_shape_errors_survive_optimisation(cli_env):
    # the errors are raised, not asserted, so python -O keeps them
    script = ("from dprkit import dpr\n"
              "P = dpr.DprPolynomial\n"
              "x1, y1, u11 = dpr._mask('X', 1), dpr._mask('Y', 1), dpr._mask(('U', 1), 1)\n"
              "cases = [({}, P({x1: 1, dpr._mask(('V', 1), 1): 1}), P({y1 | u11: 1})),\n"
              "         ({x1 | y1: 5}, P({x1: 1}), P({y1: 2})),\n"
              "         ({}, dpr.build_gx(2, 1), P({dpr._mask(('V', 1), 5): 1}))]\n"
              "for flat, a, b in cases:\n"
              "    try:\n"
              "        P(flat, (a, b))\n"
              "    except (ValueError, dpr.TermCollision) as err:\n"
              "        print(type(err).__name__)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         check=True, env=cli_env)
    assert out.stdout == "InterleavedFactors\nTermCollision\nValueError\n"


def _keys_by_part(poly):
    """The VarSymbol sort keys of a Polynomial's classes, then of its markers."""
    symbols = poly.symbols()
    return ([s.sort_key for s in symbols if s.family in ("X", "Y")],
            [s.sort_key for s in symbols if s.family not in ("X", "Y")])


def upper(high, low):
    """Every class of the Polynomial `high` sorts before each of `low`'s,
    and so does every marker: read off the symbols, apart from the masks."""
    pairs = zip(_keys_by_part(high), _keys_by_part(low))
    return all(not h or not l or max(h) < min(l) for h, l in pairs)


def upper_first(g):
    """g's first factor is upper."""
    return g.factors is None or upper(*(f.to_polynomial() for f in g.factors))


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def _flat_terms(st):
    coeffs = st.integers(-40, 40).filter(bool)

    @st.composite
    def flat_terms(draw, pool):
        # each term a subset of the pool's generator bits
        picks = draw(st.lists(st.integers(0, (1 << len(pool)) - 1), max_size=6))
        masks = {sum(b for i, b in enumerate(pool) if pick >> i & 1) for pick in picks}
        return {mask: draw(coeffs) for mask in sorted(masks)}

    return flat_terms


def _sort_key(pos):
    return dpr._symbol_of_bit(pos).sort_key


def _drawn_position(i):
    """The bit position of drawn generator i: index i // 8 + 1 of family
    i % 8 of `dpr._KEYS`."""
    key, k = dpr._KEYS[i % len(dpr._KEYS)], i // len(dpr._KEYS) + 1
    return dpr._mask(key, k).bit_length() - 1


def _family(pos):
    return dpr._symbol_of_bit(pos).family


def _ordered_products(st):
    """Flat polynomials and products over indices 1 to 10, so that index 10
    occurs.  A product's first factor holds the classes below a drawn one
    and the markers below another in sort-key order, and the factors come
    in either order."""
    flat_terms = _flat_terms(st)

    @st.composite
    def polynomials(draw):
        gens = [_drawn_position(i) for i in draw(st.lists(
            st.integers(0, 10 * len(dpr._KEYS) - 1), max_size=10, unique=True))]
        split = draw(st.sampled_from(["flat", "sides", "ordered"]))
        if split == "flat":
            return DprPolynomial(draw(flat_terms([1 << pos for pos in gens])))
        if split == "sides":
            # one factor on each side, as a glued relation polynomial has them
            in_a = [_family(pos) in ("X", "U") for pos in gens]
        else:
            # a drawn class and a drawn marker mark where the first factor's
            # part of each ends, each at its own place in sort-key order
            cuts = st.sampled_from(sorted(map(_sort_key, gens)) or [None])
            cut_class, cut_marker = draw(cuts), draw(cuts)
            in_a = [_sort_key(pos) < (cut_class if _family(pos) in ("X", "Y") else cut_marker)
                    for pos in gens]
        a = DprPolynomial(draw(flat_terms([1 << p for p, x in zip(gens, in_a) if x])))
        b = DprPolynomial(draw(flat_terms([1 << p for p, x in zip(gens, in_a) if not x])))
        product = {ma | mb for ma in a.flat for mb in b.flat}
        flat = {m: c for m, c in draw(flat_terms([1 << pos for pos in gens])).items()
                if m not in product}
        return DprPolynomial(flat, (b, a) if draw(st.booleans()) else (a, b))

    return polynomials()


def test_drawn_polynomials_render_as_the_oracle():
    hypothesis, st = _hypothesis()

    @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @hypothesis.given(_ordered_products(st))
    def check(g):
        assert upper_first(g)
        assert_renderings_match_the_oracle(g)

    check()


def test_crossed_splits_are_refused():
    # the first factor holds the first of two classes and the last of two
    # markers, the second factor the other two, and the rest go anywhere
    hypothesis, st = _hypothesis()
    flat_terms = _flat_terms(st)
    indices = st.integers(1, 10)
    class_keys = [key for key in dpr._KEYS if key in ("X", "Y")]
    marker_keys = [key for key in dpr._KEYS if key not in ("X", "Y")]
    classes = st.lists(st.tuples(indices, st.sampled_from(class_keys)), min_size=2, max_size=4,
                       unique=True)
    markers = st.lists(st.tuples(indices, st.sampled_from(marker_keys)), min_size=2, max_size=4,
                       unique=True)

    @hypothesis.settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @hypothesis.given(classes, markers, st.data())
    def check(class_gens, marker_gens, data):
        (c_lo, *c_rest, c_hi), (m_lo, *m_rest, m_hi) = (
            sorted((dpr._mask(key, k).bit_length() - 1 for k, key in gens), key=_sort_key)
            for gens in (class_gens, marker_gens))
        rest = c_rest + m_rest
        in_a = data.draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
        a = {1 << c_lo | 1 << m_hi: 1, **data.draw(flat_terms([1 << p for p, x in zip(rest, in_a) if x]))}
        b = {1 << c_hi | 1 << m_lo: -1, **data.draw(flat_terms([1 << p for p, x in zip(rest, in_a) if not x]))}
        for factors in ((a, b), (b, a)):
            with pytest.raises(dpr.InterleavedFactors):
                DprPolynomial({}, tuple(map(DprPolynomial, factors)))

    check()


def _swapped(poly):
    """poly with X <-> Y and U <-> V, built on its symbols."""
    other = {"X": "Y", "Y": "X", "U": "V", "V": "U"}
    return Polynomial(ZZ, (
        (Monomial({VarSymbol(other[s.family], s.indices): 1 for s in mono.symbols()}), c)
        for mono, c in poly.sorted_terms()))


def test_swapped_and_killed_products_keep_the_upper_factor_first():
    hypothesis, st = _hypothesis()

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(_ordered_products(st), st.data())
    def check(g, data):
        # the mirror of a product is a product when the mirrored factors do
        # not interleave, as a glued relation polynomial's never do
        mirrored = [_swapped(f.to_polynomial()) for f in g.factors or ()]
        if mirrored and not (upper(*mirrored) or upper(*reversed(mirrored))):
            with pytest.raises(dpr.InterleavedFactors):
                g.swap_sides()
        else:
            swapped = g.swap_sides()
            assert upper_first(swapped)
            assert swapped.to_polynomial() == _swapped(g.to_polynomial())
            assert_renderings_match_the_oracle(swapped)
        bits = [1 << pos for pos in range(g.support.bit_length()) if g.support >> pos & 1]
        cut = sum(data.draw(st.lists(st.sampled_from(bits), unique=True)) if bits else [])
        killed = dpr._kill(g, cut)
        assert upper_first(killed)
        kept = {bit(s) for s in g.to_polynomial().symbols()} - {b for b in bits if b & cut}
        assert killed.to_polynomial() == Polynomial(ZZ, (
            (mono, c) for mono, c in g.to_polynomial().sorted_terms()
            if all(bit(s) in kept for s in mono.symbols())))
        assert_renderings_match_the_oracle(killed)

    check()


def _held():
    """What each cached chain holds: the derived data by name, as objects."""
    return {(key, i): {name: id(value) for name, value in p._derived.items()}
            for key, pair in dpr._CHAIN_CACHE.items() for i, p in enumerate(pair)}


def test_derived_data_is_made_once_per_chain(monkeypatch):
    monkeypatch.setattr(dpr, "_CHAIN_CACHE", {})

    def sweep():
        for n in range(1, 9):
            for m in range(1, 9):
                gx, gy = build_gx(n, m), build_gy(m, n)
                assert check_index_bounds(gx, n, m) and check_index_bounds(gy, n, m)
                assert weight_check(gx, 1) and weight_check(gy, 1)
                assert mirror_check(n, m)
                if n <= 5 and m <= 5:
                    dpr_to_json(gx)
                    dpr_to_json(gy)

    sweep()
    held = _held()
    # F_1 = 0 is the one chain no check reads: a zero factor drops the product
    assert len(held) == 32
    assert all("weights" in held[key, i] for key, i in held if (key[1], i) != (1, 1))
    sweep()
    # no chain built again, nothing derived again
    assert _held() == held
    # a relation polynomial shares its T_n's data
    assert build_gx(3, 2)._derived is dpr._chain("X", 3)[0]._derived
    assert build_gy(2, 3)._derived is dpr._chain("Y", 2)[0]._derived
    # a polynomial built on terms of its own holds its own data and touches
    # no chain's
    g = DprPolynomial(dict(build_gx(3, 2).terms()))
    assert weight_check(g, 1) and check_index_bounds(g, 3, 2)
    assert g.swap_sides() == build_gy(3, 2)
    assert dpr_to_json(g) == dpr_to_json(build_gx(3, 2))
    assert set(g._derived) == {"weights", "mirror", "rows"} and _held() == held


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_ex(0)
    with pytest.raises(ValueError):
        build_gx(0, 1)
    with pytest.raises(ValueError):
        build_gy(1, 0)


def test_family_substitution_matches_pointwise_evaluation():
    # the oracle substitutes into the decoded Polynomial, so it shares no
    # code with `evaluate_rational`, which `substitute_families` calls;
    # every family takes a value of its own
    vals = {"X": 1, "Y": -2, ("U", 1): 2, ("V", 1): 5,
            ("U", 2): 4, ("V", 2): -1, ("U", 3): 3, ("V", 3): 7}

    def pointwise(g):
        p = g.to_polynomial()
        return p.substitute({s: vals[s.family if s.family in ("X", "Y") else
                                     (s.family, s.indices[0])]
                             for s in p.symbols()}).constant_value()

    # indices past 8 included
    for g in (build_gx(3, 2), build_ex(4), build_fx(4), build_gy(2, 3), build_gy(3, 3),
              build_ex(9)):
        value = g.substitute_families(vals)
        assert type(value) is int and value == pointwise(g)
    ones = {"X": 1, "Y": 1, ("U", 1): 2, ("V", 1): 2,
            ("U", 2): 4, ("V", 2): 4, ("U", 3): 3, ("V", 3): 3}
    assert build_gx(1, 1).substitute_families(ones) == 1
    assert build_ex(9).substitute_families(ones) == -9


def test_family_substitution_admits_only_integers():
    vals = {"X": 1.5, "Y": 1, ("U", 1): 2, ("V", 1): 2,
            ("U", 2): 4, ("V", 2): 4, ("U", 3): 3, ("V", 3): 3}
    with pytest.raises(TypeError):
        build_ex(2).substitute_families(vals)


# recurrence-first evaluation against the expanded slow path ------------------


BUILDERS = {"X": (build_ex, build_fx), "Y": (build_ey, build_fy)}
MARKERS = {"X": "U", "Y": "V"}


def rational_point(rng, top):
    """Seeded rational values for every generator of both sides up to `top`."""
    point = {}
    for side, marker in MARKERS.items():
        for i in range(1, top + 1):
            point[sym(side, i)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for p in (1, 2, 3):
                point[sym(marker, p, i)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return point


def chain_mismatches(builders, top, points):
    """(side, k) where chain_values disagrees with the expanded E_k/F_k."""
    out = set()
    for point in points:
        for side, (build_e, build_f) in builders.items():
            chain = chain_values(side, top, point)
            for k, (t, f) in enumerate(chain, start=1):
                s_k = sum(point[sym(side, i)] for i in range(1, k + 1))
                if (t, f) != (s_k + build_e(k).evaluate_rational(point),
                              build_f(k).evaluate_rational(point)):
                    out.add((side, k))
    return out


def test_chain_values_match_expanded_builders():
    rng = random.Random(5)
    points = [rational_point(rng, 8) for _ in range(3)]
    assert chain_mismatches(BUILDERS, 8, points) == set()


def test_tampered_builder_fails_the_cross_check():
    def tampered_fx(n):
        poly = build_fx(n)
        if n == 3:
            return DprPolynomial({**dict(poly.terms()), bit(X1): 1})
        return poly

    rng = random.Random(5)
    builders = {"X": (build_ex, tampered_fx), "Y": BUILDERS["Y"]}
    assert chain_mismatches(builders, 4, [rational_point(rng, 4)]) == {("X", 3)}


def test_a_wrong_step_layout_fails_the_cross_check(monkeypatch):
    # chain_steps is the one owner of where a step's generators sit, so the
    # blow-up walks share a wrong layout with the recursion; the expansion is
    # the reference that sees it
    real = dpr.chain_steps

    def swapped(side, n):
        return tuple((x, u1, u3, u2) for x, u1, u2, u3 in real(side, n))

    monkeypatch.setattr(dpr, "chain_steps", swapped)
    rng = random.Random(5)
    points = [rational_point(rng, 4) for _ in range(2)]
    assert chain_mismatches(BUILDERS, 4, points) >= {("X", 2), ("Y", 2)}


def test_relation_value_matches_expanded_relation():
    rng = random.Random(7)
    for n in range(1, 7):
        for m in range(1, 7):
            point = rational_point(rng, 6)
            assert relation_values(n, m, point) == (build_gx(n, m).evaluate_rational(point),
                                                    build_gy(m, n).evaluate_rational(point))


def test_chain_values_are_ring_generic():
    # over polynomial images the recursion reproduces the expansion itself
    images = {s: Polynomial.variable(s) for s in rational_point(random.Random(0), 4)}
    for side, (build_e, build_f) in BUILDERS.items():
        for k, (t, f) in enumerate(chain_values(side, 4, images), start=1):
            s_k = sum((images[sym(side, i)] for i in range(1, k + 1)), Polynomial.zero())
            assert t == s_k + build_e(k).to_polynomial()
            assert f == build_f(k).to_polynomial()
    assert relation_values(3, 2, images) == (build_gx(3, 2).to_polynomial(),
                                             build_gy(2, 3).to_polynomial())


def relation_polynomial(kind, n, m=None):
    """The expansion oracle: the recursion run on ``Polynomial`` generators."""
    images = {s: Polynomial.variable(s) for s in rational_point(random.Random(0), 9)}
    if kind == "GX":
        return relation_values(n, m, images)[0]
    if kind == "GY":
        return relation_values(m, n, images)[1]
    side = kind[1]
    t, f = chain_values(side, n, images)[-1]
    if kind[0] == "F":
        return f
    s_n = sum((images[sym(side, i)] for i in range(1, n + 1)), Polynomial.zero())
    return t - s_n


def test_relation_polynomial_matches_the_mask_engine():
    builders = {"EX": build_ex, "FX": build_fx, "EY": build_ey, "FY": build_fy}
    for kind, build in builders.items():
        for n in range(1, 7):
            assert relation_polynomial(kind, n) == build(n).to_polynomial(), (kind, n)
    # and past index 8
    assert relation_polynomial("FX", 9) == build_fx(9).to_polynomial()
    for n in range(1, 5):
        for m in range(1, 5):
            assert relation_polynomial("GX", n, m) == build_gx(n, m).to_polynomial(), (n, m)
            assert relation_polynomial("GY", n, m) == build_gy(n, m).to_polynomial(), (n, m)


def test_all_bad_recurrence_matches_family_substitution():
    for n in range(1, 9):
        for m in range(1, 9):
            report = all_bad_evaluation(n, m)
            assert report["lhs"] == build_gx(n, m).substitute_families(ALL_BAD_VALUES), (n, m)
            assert report["rhs"] == build_gy(m, n).substitute_families(ALL_BAD_VALUES), (n, m)


def test_recurrence_argument_validation():
    point = rational_point(random.Random(1), 2)
    with pytest.raises(ValueError):
        chain_values("Z", 1, point)
    with pytest.raises(ValueError):
        chain_values("X", 0, point)
    with pytest.raises(ValueError):
        relation_values(1, 0, point)
    with pytest.raises(UnboundVariable):
        chain_values("X", 3, point)


def test_chain_symbols_are_the_chain_generators_in_order():
    for side, marker in MARKERS.items():
        for n in range(13):
            expected = [sym(side, i) for i in range(1, n + 1)]
            expected += [sym(marker, 1, k) for k in range(1, n)]
            for p in (2, 3):
                expected += [sym(marker, p, k) for k in range(2, n + 1)]
            got = chain_symbols(side, n)
            assert got == tuple(expected) and type(got) is tuple, (side, n)
            # the tuple is made once per (side, n) and held
            assert chain_symbols(side, n) is got, (side, n)
            # and so is what each step k adds: X_k, U1_{k-1}, U2_k, U3_k
            steps = dpr.chain_steps(side, n)
            assert steps == tuple((sym(side, k), sym(marker, 1, k - 1), sym(marker, 2, k),
                                   sym(marker, 3, k)) for k in range(2, n + 1)), (side, n)
            assert dpr.chain_steps(side, n) is steps, (side, n)


def test_chain_values_name_the_unbound_generator():
    full = rational_point(random.Random(3), 4)
    for side in MARKERS:
        for missing in chain_symbols(side, 4):
            point = {s: v for s, v in full.items() if s is not missing}
            with pytest.raises(UnboundVariable) as plain:
                chain_values(side, 4, point)
            assert plain.value.args == (str(missing),)
            # a defaultdict would answer the lookup with a new key: the
            # membership test comes first, so it raises and gains nothing
            lazy = defaultdict(int, point)
            with pytest.raises(UnboundVariable) as caught:
                chain_values(side, 4, lazy)
            assert caught.value.args == (str(missing),)
            assert missing not in lazy and len(lazy) == len(point)
