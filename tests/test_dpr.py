"""Relation polynomial builders and structural checks.

Small cases are frozen against hand expansions of the recursion; the term
counts come from the side recurrence t(E_n) = 2 t(E_{n-1}) + t(F_{n-1}) + n - 1,
t(F_n) = t(F_{n-1}) + 2 (n - 1 + t(E_{n-1})), worked out on paper, which is
valid because every recursion step multiplies by fresh generators and so
never cancels or merges terms.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from dprkit import dpr
from dprkit.algebra import Monomial, Polynomial, VarSymbol, ZZ
from dprkit.dpr import (
    DprPolynomial,
    NotMultilinear,
    build_ex,
    build_ey,
    build_fx,
    build_fy,
    build_gx,
    build_gy,
    chain_values,
    check_index_bounds,
    check_multilinear,
    dpr_to_json,
    from_polynomial,
    mirror_check,
    padding_check,
    _product_disjoint,
    relation_polynomial,
    relation_value,
    weight_check,
    x_mask,
)
from dprkit.algebra import UnboundVariable
from dprkit.fixedpoint import ALL_BAD_VALUES, all_bad_evaluation


def sym(family, *indices):
    return VarSymbol(family, indices)


def poly(*terms):
    """terms: (coeff, [symbols...])"""
    return Polynomial(ZZ, ((Monomial({s: 1 for s in syms}), c) for c, syms in terms))


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


def test_term_counts_match_recurrence():
    for n in range(1, 9):
        assert len(build_ex(n)) == E_COUNTS[n]
        assert len(build_fx(n)) == F_COUNTS[n]
        assert len(build_ey(n)) == E_COUNTS[n]
    for n, m in [(1, 1), (2, 3), (4, 2), (5, 5)]:
        expect = n + E_COUNTS[n] + (m + E_COUNTS[m]) * F_COUNTS[n]
        assert len(build_gx(n, m)) == expect


def test_top_case_term_count_and_distinctness():
    g = build_gx(8, 8)
    assert len(g) == 3**14  # = 8 + 2179 + (8 + 2179) * 2186
    assert len(np.unique(g.masks)) == len(g)
    assert set(np.unique(g.coeffs).tolist()) == {-1, 1}


def test_multilinearity():
    for n, m in [(1, 1), (3, 2), (5, 4)]:
        assert check_multilinear(build_gx(n, m))
    squared = Polynomial(ZZ, {Monomial({X1: 2}): 1})
    assert not check_multilinear(squared)


def test_weights():
    for n in range(1, 7):
        assert weight_check(build_ex(n), 1)
        assert weight_check(build_fx(n), 0)
        assert weight_check(build_ey(n), 1)
        assert weight_check(build_fy(n), 0)
    for n, m in [(1, 1), (2, 1), (3, 4), (5, 2)]:
        assert weight_check(build_gx(n, m), 1)
        assert weight_check(build_gy(n, m), 1)
    # each case as a core polynomial and as masks
    for convert in (lambda p: p, from_polynomial):
        assert not weight_check(convert(poly((1, [X1, X2]))), 1)
        assert weight_check(convert(poly((1, [X1, X2, U11]))), 1)
        # mixed weights with one term at the target, below it and above it:
        # both the least and the greatest weight must match
        assert not weight_check(convert(poly((1, [X1]), (1, [X1, X2]))), 1)
        assert not weight_check(convert(poly((1, [X1]), (1, [X1, U11]))), 1)
        # past index 8 (object masks)
        assert not weight_check(convert(poly((1, [X1]), (1, [X1, sym("X", 10)]))), 1)
    assert weight_check(build_gx(9, 2), 1)


def test_index_bounds():
    for n, m in [(1, 1), (2, 3), (4, 4), (6, 2)]:
        assert check_index_bounds(build_gx(n, m), n, m)
        # the mirror build swaps which side carries how many classes
        assert check_index_bounds(build_gy(n, m), m, n)
    # a marker with too high an index must be flagged
    for bad in (poly((1, [X1, X2, sym("U", 1, 2)])),
                from_polynomial(poly((1, [X1, X2, sym("U", 1, 2)])))):
        assert not check_index_bounds(bad, 2, 1)
        assert check_index_bounds(bad, 3, 1)
    with pytest.raises(NotMultilinear):
        check_index_bounds(Polynomial(ZZ, {Monomial({X1: 2}): 1}), 1, 1)


def test_mirror():
    for n, m in [(1, 1), (1, 3), (2, 2), (4, 3)]:
        assert mirror_check(n, m)
        assert mirror_check(n, m, by_recursion=True)
    assert build_ex(4).swap_sides() == build_ey(4)
    assert build_fy(5).swap_sides() == build_fx(5)
    g = build_gx(3, 2)
    assert g.swap_sides().swap_sides() == g


def test_padding():
    # the last two compare a wide (object) kept part with a uint64 small one
    for n, m, big_n, big_m in [(1, 1, 3, 3), (2, 1, 4, 2), (2, 2, 2, 2), (3, 2, 5, 4),
                               (8, 1, 9, 1), (2, 2, 9, 2)]:
        assert padding_check(n, m, big_n, big_m)
    for n, m, big_n, big_m in [(1, 1, 3, 3), (2, 1, 4, 2), (2, 2, 2, 2), (1, 2, 4, 4)]:
        assert padding_check(n, m, big_n, big_m, by_recursion=True)
    for by_recursion in (False, True):
        with pytest.raises(ValueError):
            padding_check(3, 1, 2, 1, by_recursion=by_recursion)


def test_recursion_checks_can_fail(monkeypatch):
    # a mirror that swaps the classes but not their markers
    monkeypatch.setitem(dpr._MIRROR_FAMILY, "U", "U")
    monkeypatch.setitem(dpr._MIRROR_FAMILY, "V", "V")
    assert not mirror_check(2, 2, by_recursion=True)
    monkeypatch.undo()
    # a smaller relation that is not the padded one's image
    real = dpr.relation_polynomial
    monkeypatch.setattr(dpr, "relation_polynomial",
                        lambda kind, n, m=None: real(kind, n, m) + (n == 1))
    assert not padding_check(1, 1, 2, 2, by_recursion=True)


def test_product_guards_multilinearity():
    x1 = DprPolynomial.generator(x_mask(1))
    with pytest.raises(NotMultilinear):
        _product_disjoint(x1, x1)
    mixed = from_polynomial(poly((1, [X1]), (1, [X2])))
    with pytest.raises(NotMultilinear):
        _product_disjoint(mixed, mixed)
    # coefficient products must stay below 2^62 for the int64 backend
    a = DprPolynomial.from_terms({x_mask(1): 1 << 31})
    b = DprPolynomial.from_terms({x_mask(2): (1 << 31) - 1})
    (term,) = _product_disjoint(a, b).terms()
    assert term == (x_mask(1) | x_mask(2), (1 << 62) - (1 << 31))
    with pytest.raises(OverflowError):
        _product_disjoint(a, DprPolynomial.from_terms({x_mask(2): -(1 << 31)}))


def test_roundtrip_through_core_polynomial():
    g = build_gx(3, 2)
    assert from_polynomial(g.to_polynomial()) == g
    with pytest.raises(NotMultilinear):
        from_polynomial(Polynomial(ZZ, {Monomial({X1: 2}): 1}))
    with pytest.raises(NotMultilinear):
        from_polynomial(Polynomial(ZZ, {Monomial({sym("a", 1, 1): 1}): 1}))


def test_evaluation_agrees_with_core_engine():
    rng = random.Random(31)
    g = build_gx(3, 2)
    syms = sorted(g.to_polynomial().symbols())
    for _ in range(10):
        point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for s in syms}
        assert g.evaluate_rational(point) == g.to_polynomial().evaluate_rational(point)


def test_high_indices_fall_back_to_wide_masks():
    e = build_ex(10)  # past the uint64 block capacity
    assert e.masks.dtype == object
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


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_ex(0)
    with pytest.raises(ValueError):
        build_gx(0, 1)
    with pytest.raises(ValueError):
        build_gy(1, 0)
    for kind, n, m in [("EX", 0, None), ("FY", 0, None), ("GX", 0, 1), ("GY", 1, 0),
                       ("GZ", 1, 1), ("ex", 1, None)]:
        with pytest.raises(ValueError):
            relation_polynomial(kind, n, m)


def test_relation_polynomial_matches_the_mask_engine():
    builders = {"EX": build_ex, "FX": build_fx, "EY": build_ey, "FY": build_fy}
    for kind, build in builders.items():
        for n in range(1, 7):
            assert relation_polynomial(kind, n) == build(n).to_polynomial(), (kind, n)
    # past index 8 the masks are Python ints
    assert relation_polynomial("FX", 9) == build_fx(9).to_polynomial()
    for n in range(1, 5):
        for m in range(1, 5):
            assert relation_polynomial("GX", n, m) == build_gx(n, m).to_polynomial(), (n, m)
            assert relation_polynomial("GY", n, m) == build_gy(n, m).to_polynomial(), (n, m)


def test_family_substitution_matches_pointwise_evaluation():
    vals = {"X": 1, "Y": 1, ("U", 1): 2, ("V", 1): 2,
            ("U", 2): 4, ("V", 2): 4, ("U", 3): 3, ("V", 3): 3}

    def pointwise(g):
        point = {}
        for mono, _ in g.sorted_terms():
            for s in mono.symbols():
                key = s.family if s.family in ("X", "Y") else (s.family, s.indices[0])
                point[s] = vals[key]
        return g.evaluate_rational(point)

    for g in (build_gx(3, 2), build_ex(4), build_fx(4), build_gy(2, 3)):
        assert g.substitute_families(vals) == pointwise(g)
    assert build_gx(1, 1).substitute_families(vals) == 1
    # wide-mask path
    wide = build_ex(9)
    assert wide.substitute_families(vals) == -9


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
            return DprPolynomial.from_terms([*poly.terms(), (x_mask(1), 1)])
        return poly

    rng = random.Random(5)
    builders = {"X": (build_ex, tampered_fx), "Y": BUILDERS["Y"]}
    assert chain_mismatches(builders, 4, [rational_point(rng, 4)]) == {("X", 3)}


def test_relation_value_matches_expanded_relation():
    rng = random.Random(7)
    for n in range(1, 7):
        for m in range(1, 7):
            point = rational_point(rng, 6)
            assert relation_value("X", n, m, point) == build_gx(n, m).evaluate_rational(point)
            assert relation_value("Y", n, m, point) == build_gy(n, m).evaluate_rational(point)


def test_chain_values_are_ring_generic():
    # over polynomial images the recursion reproduces the expansion itself
    images = {s: Polynomial.variable(s) for s in rational_point(random.Random(0), 4)}
    for side, (build_e, build_f) in BUILDERS.items():
        for k, (t, f) in enumerate(chain_values(side, 4, images), start=1):
            s_k = sum((images[sym(side, i)] for i in range(1, k + 1)), Polynomial.zero())
            assert t == s_k + build_e(k).to_polynomial()
            assert f == build_f(k).to_polynomial()
    g = relation_value("X", 3, 2, images)
    assert g == build_gx(3, 2).to_polynomial()


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
        relation_value("X", 1, 0, point)
    with pytest.raises(UnboundVariable):
        chain_values("X", 3, point)
