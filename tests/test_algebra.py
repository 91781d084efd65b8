"""Core polynomial kernel: rings, symbols, monomials, arithmetic, JSON."""

import gc
import json
import random
import re
from fractions import Fraction
from typing import Mapping

import pytest

from dprkit import algebra
from dprkit.algebra import (
    UNIT,
    CoeffRing,
    Immutable,
    IncompatibleRings,
    Monomial,
    Polynomial,
    UnboundVariable,
    VarSymbol,
    ZZ,
    canonical_json,
    coeff_to_json,
    poly_to_json,
    write_json,
)

X1 = VarSymbol("X", (1,))
X2 = VarSymbol("X", (2,))
Y1 = VarSymbol("Y", (1,))
U11 = VarSymbol("U", (1, 1))
V21 = VarSymbol("V", (2, 1))
A11 = VarSymbol("a", (1, 1))


# a reader for the JSON that poly_to_json writes; dprkit itself only writes
_INDEX_SUFFIX = re.compile(r"^(.*)\[(\d+)\]$")


def symbol_from_str(text: str) -> VarSymbol:
    """Inverse of str(VarSymbol): trailing [int] groups become indices."""
    indices: list[int] = []
    while True:
        m = _INDEX_SUFFIX.match(text)
        if m is None:
            break
        text = m.group(1)
        indices.append(int(m.group(2)))
    if not text:
        raise ValueError("empty symbol family")
    return VarSymbol(text, reversed(indices))


def coeff_from_json(obj: Mapping) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def poly_from_json(obj: Mapping) -> Polynomial:
    ring = CoeffRing(obj["ring"]["inverted"])
    terms: dict[Monomial, Fraction] = {}
    for entry in obj["terms"]:
        mono = Monomial((symbol_from_str(k), e) for k, e in entry["monomial"].items())
        terms[mono] = coeff_from_json(entry["coeff"])
    return Polynomial(ring, terms)


def test_ring_join_by_containment():
    half = CoeffRing([2])
    sixth = CoeffRing([2, 3])
    assert half.join(ZZ) is half
    assert ZZ.join(sixth) is sixth
    assert half.join(sixth) is sixth
    with pytest.raises(IncompatibleRings):
        CoeffRing([2]).join(CoeffRing([3]))


def test_ring_denominator_admission():
    assert ZZ.admits_denominator(1)
    assert not ZZ.admits_denominator(2)
    half = CoeffRing([2])
    assert half.admits_denominator(8)
    assert not half.admits_denominator(6)
    sixth = CoeffRing([6])
    # 6 inverted means both 2 and 3 are
    assert sixth.admits_denominator(12)
    assert sixth.admits_denominator(9)
    assert not sixth.admits_denominator(5)


def test_ring_rejects_silly_units():
    with pytest.raises(ValueError):
        CoeffRing([1])
    with pytest.raises(ValueError):
        CoeffRing([0])


def test_ring_units_must_be_integers():
    # a truncating int() would read 2.5 as 2 and accept the text "3"
    with pytest.raises(TypeError):
        CoeffRing([2.5])
    with pytest.raises(TypeError):
        CoeffRing(["3"])


def test_symbol_interning_and_str():
    assert VarSymbol("X", (1,)) is X1
    assert str(U11) == "U[1][1]"
    assert str(VarSymbol("sigma1[A]")) == "sigma1[A]"


@pytest.mark.parametrize(
    "text",
    ["X[1]", "U[2][4]", "a[1][2]", "sigma1[A]", "c[A1+A2]", "beta", "p2[3]"],
)
def test_symbol_str_round_trip(text):
    assert str(symbol_from_str(text)) == text


@pytest.mark.parametrize(
    "family, indices",
    [("X", (1,)), ("U", (2, 4)), ("beta", ()), ("sigma1[A]", ()), ("c[A1+A2]", (3, 1))],
)
def test_symbol_name_is_family_then_bracketed_indices(family, indices):
    sym = VarSymbol(family, indices)
    assert str(sym) == family + "".join(f"[{i}]" for i in indices)
    assert str(sym) is str(sym)  # rendered once, when interned


def test_symbol_from_str_splits_only_integer_suffixes():
    sym = symbol_from_str("sigma1[A1+A2]")
    assert sym.family == "sigma1[A1+A2]"
    assert sym.indices == ()
    sym = symbol_from_str("q2[3]")
    assert sym.family == "q2"
    assert sym.indices == (3,)


def test_symbol_indices_must_be_integers():
    with pytest.raises(TypeError):
        VarSymbol("X", (1.7,))


def test_symbol_order_puts_relation_families_first():
    order = sorted([A11, V21, X2, U11, Y1, X1], key=lambda s: s.sort_key)
    assert order == [X1, X2, Y1, U11, V21, A11]


def test_monomial_normalization():
    m = Monomial({X1: 2, X2: 0})
    assert m.pairs == ((X1, 2),)
    assert m.degree == 2
    with pytest.raises(ValueError):
        Monomial([(X1, -1)])
    with pytest.raises(ValueError):
        Monomial([(X1, 1), (X1, 1)])


def test_monomial_exponents_must_be_integers():
    for exp in (1.5, 2.9):
        with pytest.raises(TypeError):
            Monomial({X1: exp})


def test_monomial_product_merges_sorted():
    m = Monomial({X1: 1, U11: 2}) * Monomial({X1: 1, Y1: 1})
    assert m == Monomial({X1: 2, Y1: 1, U11: 2})
    assert m * UNIT == m


def test_monomial_graded_lex_order():
    # same degree: the higher power of the earlier symbol comes first
    sq = Monomial({X1: 2})
    mixed = Monomial({X1: 1, X2: 1})
    assert sq.sort_key() < mixed.sort_key()
    assert Monomial({X2: 1}).sort_key() < sq.sort_key()
    # the key is built on first use and then kept
    assert sq.sort_key() is sq.sort_key()


def test_polynomial_normalization():
    p = Polynomial(ZZ, {Monomial({X1: 1}): Fraction(4, 2), UNIT: 0})
    assert p.terms == {Monomial({X1: 1}): 2}
    plain = Polynomial(ZZ, {Monomial({X1: 1}): 2})
    assert p == plain
    assert str(p) == str(plain)
    assert poly_to_json(p) == poly_to_json(plain)
    with pytest.raises(IncompatibleRings):
        Polynomial(ZZ, {UNIT: Fraction(1, 2)})
    assert Polynomial(CoeffRing([2]), {UNIT: Fraction(1, 2)}).constant_value() == Fraction(1, 2)


def test_inexact_coefficients_are_rejected():
    # a truncating int() would read these as 0, 0 and 2
    for c in (0.5, 0.0):
        with pytest.raises(TypeError):
            Polynomial.constant(c)
    with pytest.raises(TypeError):
        Polynomial(ZZ, {Monomial({X1: 1}): 2.7})


def _random_poly(rng, ring=ZZ, pool=None, max_terms=4):
    pool = pool or [X1, X2, Y1, U11, A11]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(
            {s: rng.randint(1, 2) for s in rng.sample(pool, rng.randint(0, 3))}
        )
        terms[mono] = terms.get(mono, 0) + rng.randint(-5, 5)
    return Polynomial(ring, terms)


def test_ring_axioms_on_random_triples():
    rng = random.Random(12345)
    for _ in range(100):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero() == p
        assert p * Polynomial.constant(1) == p
        assert p - p == Polynomial.zero()


def test_substitution_is_a_ring_morphism():
    rng = random.Random(99)
    pool = [X1, X2, Y1]
    for _ in range(60):
        p = _random_poly(rng)
        q = _random_poly(rng)
        bindings = {
            X1: _random_poly(rng, pool=pool, max_terms=2),
            U11: rng.randint(-3, 3),
            A11: _random_poly(rng, pool=pool, max_terms=2),
        }
        assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)
        assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)


def test_substitute_keeps_unbound_symbols():
    p = Polynomial(ZZ, {Monomial({X1: 1, Y1: 1}): 3})
    q = p.substitute({X1: Polynomial.constant(2)})
    assert q == Polynomial(ZZ, {Monomial({Y1: 1}): 6})


def test_evaluate_rational_matches_substitution():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_poly(rng)
        point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in [X1, X2, Y1, U11, A11]}
        ring = CoeffRing([2, 3, 5, 7])
        on_ring = Polynomial(ring, p.terms)
        subbed = on_ring.substitute(point)
        assert subbed.is_constant()
        assert Fraction(subbed.constant_value()) == p.evaluate_rational(point)


def test_evaluate_requires_every_symbol():
    p = Polynomial.variable(X1) + Polynomial.variable(Y1)
    with pytest.raises(UnboundVariable):
        p.evaluate_rational({X1: 1})


def test_power_matches_repeated_product():
    rng = random.Random(4)
    for _ in range(20):
        p = _random_poly(rng, max_terms=3)
        direct = Polynomial.constant(1)
        for _ in range(3):
            direct = direct * p
        assert p**3 == direct
    assert (Polynomial.variable(X1) + 1) ** 0 == Polynomial.constant(1)


def test_incompatible_ring_operations_raise():
    p = Polynomial.constant(Fraction(1, 2), CoeffRing([2]))
    q = Polynomial.constant(Fraction(1, 3), CoeffRing([3]))
    with pytest.raises(IncompatibleRings):
        p + q
    with pytest.raises(IncompatibleRings):
        Polynomial.constant(1) + Fraction(1, 3)


def test_comparison_with_a_number_needs_no_ring_check():
    # a number the ring does not admit is unequal, not an error
    assert not Polynomial.zero() == Fraction(1, 2)
    assert Polynomial.constant(1) != Fraction(1, 3)
    assert Polynomial.constant(Fraction(1, 2), CoeffRing([2])) == Fraction(1, 2)
    assert Polynomial.constant(3) == 3 and Polynomial.constant(3) == Fraction(6, 2)
    assert Polynomial.zero() == 0 and Polynomial.variable(X1) != 0


def test_json_round_trip_is_byte_stable():
    rng = random.Random(2024)
    for _ in range(40):
        p = _random_poly(rng, ring=CoeffRing([2, 3]))
        blob = canonical_json(poly_to_json(p))
        again = canonical_json(poly_to_json(poly_from_json(poly_to_json(p))))
        assert blob == again
        assert poly_from_json(poly_to_json(p)) == p


def test_json_terms_are_graded_lex_sorted():
    p = (
        Polynomial.constant(1)
        + Polynomial.variable(X2)
        + Polynomial.variable(X1)
        + Polynomial.variable(X1) * Polynomial.variable(X2)
        + Polynomial.variable(X1) * Polynomial.variable(X1)
    )
    rendered = [list(t["monomial"].keys()) for t in poly_to_json(p)["terms"]]
    assert rendered == [[], ["X[1]"], ["X[2]"], ["X[1]"], ["X[1]", "X[2]"]]
    # the two degree-2 terms: X[1]^2 precedes X[1]*X[2]
    assert poly_to_json(p)["terms"][3]["monomial"] == {"X[1]": 2}


def test_documents_share_the_names_dict_their_monomial_holds():
    m = Monomial({X1: 1, Y1: 2})
    p = Polynomial(ZZ, {m: 3, UNIT: 1})
    q = Polynomial(ZZ, {m: -2, Monomial({X2: 1}): 1})
    (_, in_p), (_, in_q) = ([t["monomial"] for t in poly_to_json(r)["terms"]] for r in (p, q))
    assert in_p is in_q is m.json_names()
    assert in_p == {"X[1]": 1, "Y[1]": 2}
    # the empty monomial holds its own empty dict
    assert poly_to_json(p)["terms"][0]["monomial"] is UNIT.json_names() == {}


def test_the_held_names_dict_is_in_monomial_order():
    m = Monomial({U11: 1, Y1: 3, A11: 2, X2: 1})
    assert list(m.json_names().items()) == [(str(s), e) for s, e in m.pairs]
    assert list(m.json_names()) == ["X[2]", "Y[1]", "U[1][1]", "a[1][1]"]
    # equal monomials made apart hold equal dicts, each its own
    again = Monomial({X2: 1, Y1: 3, U11: 1, A11: 2})
    assert again.json_names() == m.json_names() and again.json_names() is not m.json_names()


def test_int_coefficients_share_one_dict_per_value_within_a_document():
    p = Polynomial(ZZ, {UNIT: 3, Monomial({X1: 1}): 3, Monomial({X2: 1}): -3,
                        Monomial({Y1: 1}): 3, Monomial({X1: 2}): -3, Monomial({U11: 1}): 7})
    first, second = poly_to_json(p), poly_to_json(p)
    by_value: dict = {}
    for t in first["terms"]:
        by_value.setdefault(t["coeff"]["num"], set()).add(id(t["coeff"]))
    assert {num: len(ids) for num, ids in by_value.items()} == {"3": 1, "-3": 1, "7": 1}
    assert first["terms"][0]["coeff"] == {"num": "3", "den": "1"}
    # a second document makes its own coefficient dicts
    assert first == second
    assert not {id(t["coeff"]) for t in first["terms"]} & {id(t["coeff"]) for t in second["terms"]}


def test_fraction_coefficients_get_a_dict_per_term():
    half = CoeffRing([2])
    two = Fraction(4, 2)
    assert type(two) is Fraction
    p = Polynomial(half, {UNIT: Fraction(1, 2), Monomial({X1: 1}): Fraction(1, 2),
                          Monomial({X2: 1}): two, Monomial({Y1: 1}): two, Monomial({U11: 1}): 2})
    terms = poly_to_json(p)["terms"]
    assert [t["coeff"] for t in terms] == [
        {"num": "1", "den": "2"}, {"num": "1", "den": "2"}, {"num": "2", "den": "1"},
        {"num": "2", "den": "1"}, {"num": "2", "den": "1"}]
    assert len({id(t["coeff"]) for t in terms}) == len(terms)
    assert canonical_json(poly_to_json(p)) == _json_oracle(_term_by_term(p))


def _term_by_term(p: Polynomial) -> dict:
    """The document of p built afresh from `sorted_terms`, holding no dict
    that any other document holds."""
    return {"ring": {"inverted": sorted(p.ring.inverted)}, "terms": [
        {"coeff": {"num": str(Fraction(c).numerator), "den": str(Fraction(c).denominator)},
         "monomial": {str(s): e for s, e in mono.pairs}}
        for mono, c in p.sorted_terms()]}


def test_exported_documents_render_as_fresh_ones():
    # shared names dicts and coefficient dicts change no byte, even when a
    # polynomial sharing the monomials is rendered between two exports
    rng = random.Random(4545)
    ring = CoeffRing([2, 3])
    for _ in range(60):
        p = _random_poly(rng, ring=ring, max_terms=8)
        p = p + Polynomial(ring, {m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
                                  for m in list(p.terms)[::2]})
        other = Polynomial(ring, {m: rng.randint(-3, 3) for m in p.terms})
        expected = _json_oracle(_term_by_term(p))
        assert canonical_json(poly_to_json(p)) == expected
        assert canonical_json(poly_to_json(other)) == _json_oracle(_term_by_term(other))
        assert canonical_json(poly_to_json(p)) == expected


def test_str_rendering():
    p = Polynomial(ZZ, {UNIT: -1, Monomial({X1: 1}): 1, Monomial({X1: 1, U11: 2}): -3})
    assert str(p) == "-1 + X[1] - 3*X[1]*U[1][1]^2"


def _json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _both_writers(obj) -> tuple[str, str]:
    """`canonical_json(obj)`, and the chunks `write_json` hands on, joined."""
    chunks: list[str] = []
    write_json(obj, chunks.append)
    return canonical_json(obj), "".join(chunks)


def test_json_strings_are_written_by_the_encoder_json_uses():
    # algebra takes the string encoder from _json so that it need not import
    # the json package; it must be the very function json.dumps calls
    from dprkit import algebra
    assert algebra._json_str is json.encoder.encode_basestring_ascii


def test_canonical_json_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # quotes, backslashes and control characters, and any code point at all
    # (lone surrogates too)
    awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", " ", "a", "["])
    text = st.text(alphabet=awkward | st.integers(0, 0x10FFFF).map(chr), max_size=6)
    scalars = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-(1 << 200), max_value=1 << 200) | text)
    values = st.recursive(scalars, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(text, children, max_size=4)), max_leaves=12)

    @hypothesis.settings(derandomize=True, database=None, max_examples=150)
    @hypothesis.given(values)
    def check(obj):
        assert canonical_json(obj) == _json_oracle(obj)

    check()


def test_both_writers_match_json_dumps_on_shared_values():
    # one object placed several times: under one key or several, at one
    # depth or several, and written in place every time
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # few keys, so that a value often meets its key again, at another depth
    # too (the property above draws arbitrary keys)
    keys = st.sampled_from(["a", "b", "caf\u00e9"])
    scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=4)

    def containers(children):
        return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                | st.dictionaries(keys, children, max_size=4))

    # `st.shared` gives one object per example, wherever it is drawn
    pool = st.one_of([st.shared(st.recursive(scalars, containers, max_leaves=6), key=k)
                      for k in range(3)])
    documents = st.recursive(scalars | pool | pool, containers, max_leaves=30)

    @hypothesis.settings(derandomize=True, database=None, max_examples=300)
    @hypothesis.given(documents)
    def check(obj):
        assert _both_writers(obj) == (_json_oracle(obj),) * 2

    check()


def test_many_shared_values_are_written_in_place():
    # 40 distinct coefficient dicts, each placed twice under one key at one
    # depth, and again under other keys and depths
    shared = [{"num": str(i), "den": "1"} for i in range(40)]
    obj = {"terms": [{"coeff": c, "monomial": {}} for c in shared * 2],
           "deeper": [[{"coeff": c, "other": c}] for c in reversed(shared)]}
    assert _both_writers(obj) == (_json_oracle(obj),) * 2


def test_scalar_values_that_hash_or_compare_alike_stay_apart():
    # the writer reads a `"key": value` text key first, then by value: 1 and
    # True compare equal, 0, False and "" hash alike, -1 hashes as -2 and
    # 2**64 as 8, and each must keep its own text, as a dict's first item
    # and as a later one, at two depths, met in either order
    values = [1, True, "1", 0, False, "", -1, -2, 2**64, 8]
    for order in (values, values[::-1]):
        items = [{"k": v} for v in order] + [{"j": 0, "k": v} for v in order]
        obj = {"k": order[0], "rows": items, "deeper": [[items, {"k": order[-1]}]]}
        assert _both_writers(obj) == (_json_oracle(obj),) * 2


def test_write_json_hands_on_whole_list_elements():
    # a long document goes out in several chunks, each ending where a list
    # element ends, and the string writer is the same pieces joined
    obj = {"terms": [{"coeff": {"num": "1"}, "monomial": {"X[1]": i}} for i in range(3000)]}
    chunks: list[str] = []
    write_json(obj, chunks.append)
    assert len(chunks) > 2 and "".join(chunks) == canonical_json(obj) == _json_oracle(obj)
    assert all(chunk.endswith("\n    }") for chunk in chunks[:-1])


def test_write_json_streams_a_long_value_met_twice():
    # no value's text is held, so a long list placed twice under one key at
    # one depth goes out in chunks both times, none of them the whole list
    terms = [{"coeff": {"num": "1"}, "monomial": {"X[1]": i}} for i in range(3000)]
    obj = [{"a": terms}, {"a": terms}]
    chunks: list[str] = []
    write_json(obj, chunks.append)
    whole = len(canonical_json(terms))
    assert all(len(chunk) < whole for chunk in chunks)
    assert "".join(chunks) == canonical_json(obj) == _json_oracle(obj)


def test_writing_leaves_no_garbage_cycle():
    # a cycle would keep a call's pieces and texts alive until a collection,
    # and that collection would run in whatever code comes next
    shared = {"num": "1", "den": "1"}
    obj = {"terms": [{"coeff": shared, "monomial": {"X[1]": 1}}] * 3}
    gc.disable()
    try:
        gc.collect()
        canonical_json(obj)
        write_json(obj, [].append)
        try:
            canonical_json([obj, {"a": [0.5]}])
        except TypeError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, True, None, {"a": {}, "b": []}, [[[]]], (1, (2,), [3]),
    {"k": [-1, 1 << 100, False, None, "x"]}, "caf\u00e9 \"q\" \\ \x01",
])
def test_canonical_json_matches_json_dumps_on_edges(obj):
    assert _both_writers(obj) == (_json_oracle(obj),) * 2


_UNCOVERED = [1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [0.5]}, [Fraction(1, 3)],
              {"a": {None: 1}}]


@pytest.mark.parametrize("obj", _UNCOVERED + [
    # the same value met twice under one key at one depth, and again deeper
    [{"c": bad}, {"c": bad}, {"d": [{"c": bad}]}] for bad in _UNCOVERED])
def test_canonical_json_rejects_what_it_does_not_cover(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)
    with pytest.raises(TypeError):
        write_json(obj, [].append)


def test_canonical_json_repeats_keys_at_every_depth():
    # one call renders each key's text once and reuses it: at the same
    # depth, at other depths, and beside keys that need escapes
    leaf = {"num": "-3", "den": "1"}
    obj = {
        "terms": [{"coeff": dict(leaf), "monomial": {"X[1]": 1, "U[1][1]": 1}},
                  {"coeff": dict(leaf), "monomial": {"X[1]": 1, "num": {"num": [{"den": {}}]}}}],
        "num": {"terms": [], "caf\u00e9": {"caf\u00e9": "\"", "q\"": {"q\"": None}}},
        "X[1]": [[{"X[1]": {"X[1]": True}}], ({"den": 0},)],
    }
    assert canonical_json(obj) == _json_oracle(obj)
    # the key texts belong to one call: a second call starts afresh
    assert canonical_json({"num": 1}) == _json_oracle({"num": 1})


@pytest.mark.parametrize("key", [1, True, None, 1.5, (1,)], ids=repr)
def test_canonical_json_rejects_a_key_after_str_keys(key):
    # json.dumps would write 1, True, None and 1.5 as strings; canonical
    # JSON must raise for them even when str keys came first in the call,
    # at the same depth or above
    for obj in ({"1": 0, "true": 0, "null": 0, "1.5": 0, "(1,)": 0, key: 0},
                {"a": {"a": 1}, "b": [{"a": 1, key: 2}]},
                [{"1": {"1": 1}}, {"x": {key: "1"}}]):
        with pytest.raises(TypeError):
            canonical_json(obj)
        with pytest.raises(TypeError):
            write_json(obj, [].append)


@pytest.mark.parametrize("c, num, den", [
    (7, "7", "1"), (-12, "-12", "1"), (0, "0", "1"), (Fraction(3, 4), "3", "4"),
    (Fraction(-5, 6), "-5", "6"), (Fraction(4, 2), "2", "1"),
])
def test_coeff_to_json(c, num, den):
    assert coeff_to_json(c) == {"num": num, "den": den}


def _value_instances():
    """One instance of each value class, by class name."""
    from dprkit.acceptance import CriterionResult
    from dprkit.dpr import build_gx
    from dprkit.fgl import law_series, universal_mode
    from dprkit.fixedpoint import GoodnessContext
    from dprkit.operators import verify_step_identity

    return {
        "CoeffRing": ZZ,
        "VarSymbol": X1,
        "Monomial": Monomial({X1: 1}),
        "Polynomial": Polynomial.variable(X1),
        "DprPolynomial": build_gx(2, 1),
        "FglMode": universal_mode(),
        "TruncatedSeries": law_series(universal_mode(), 3),
        "GoodnessContext": GoodnessContext((2,), ("A",), ("B",), {"A": (0,), "B": (1,)}),
        "VerificationReport": verify_step_identity(2, trials=1, seed=1),
        "CriterionResult": CriterionResult(1, "one", True, ()),
    }


@pytest.mark.parametrize("name", list(_value_instances()))
def test_value_classes_share_one_guard(name):
    value = _value_instances()[name]
    cls = type(value)
    assert cls.__name__ == name
    assert issubclass(cls, Immutable) and "__setattr__" not in vars(cls)
    # a slot and a name the class does not have are refused alike
    for attr in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError) as caught:
            setattr(value, attr, None)
        assert str(caught.value) == f"{name} is immutable"
    assert not hasattr(value, "__dict__")
