"""The recursive double point relation polynomials and their structural checks.

The free ring here has four symbol families: first-family classes X[i],
second-family classes Y[j], and their excess/correction markers U[p][k] and
V[p][l] with p in {1, 2, 3}.  Each side's chain runs a two-term recursion
that builds T_n (the class sum plus the excess polynomial E_n) together with
the correction polynomial F_n; the full relation polynomial glues the chains
of the two sides, GX(n, m) = T^X_n + T^Y_m * F^X_n.  Every polynomial this
module builds is multilinear in all generators: each recursion step
multiplies previously built terms by brand-new symbols, so no exponent can
ever reach 2.

Representation: a term is a bitmask, a plain Python int.  The eight
generator families, in the order a Monomial sorts them (X, Y, U1, U2, U3,
V1, V2, V3), each own a run of 16 bits, the first the top run, and index 1
is the top bit of its run: a generator's bit order is its Monomial order,
and indices run from 1 to 16 (`_mask` refuses 17).  One set of constant
family masks serves the mirror, the weights, the index bounds and the
product shape.  A polynomial is a dict {mask: coeff} plus at most one
product of two such dicts on disjoint generators, kept as its factors, the
upper one first: all its classes, and all its markers, lie above the
other's, as the constructor `DprPolynomial(flat, factors)` checks.
GX(n, m) is T^X_n plus F^X_n times T^Y_m: 3^(n-1) + 3^(n-1) - 1 + 3^(m-1)
stored terms for the 3^(n+m-2) + 3^(n-1) - 3^(m-1) it stands for.  The
structural checks run on the factors (a term count multiplies, supports
OR, weight sets add, a mirror or a padding kill acts on each factor), and
the product is multiplied out only for a caller that iterates every term
(`terms`, `ordered_terms`, `to_polynomial`, or an equality test whose
factors differ).  What depends on a polynomial's flat terms alone
(weights, mirror, support, kills, output rows) is derived once, on first
use, and held with them (`_flat_derived`), shared by every polynomial
built on them: GX(n, m), whose flat part is T_n itself, shares T_n's.

Consumers that need only the value of a relation polynomial at a point do
not expand it: `chain_values` runs the same recursion on values in any
commutative ring, and `relation_values` glues the two chains' last values
into both sides of the relation, in O(n + m) ring operations, at any n.
The mask form is the one expansion: `gdpr build` prints it, the structural
checks run on it, and it is the slow oracle the fast path is tested
against.  Its one evaluator is `evaluate_rational`, which
`substitute_families` calls.  Relation output has one owner: `ordered_terms`
sorts the rows once (a flat term's row holds its sort int, the generator
count above its mask, and its names; a product term pairs its factors'),
and `distinct_coefficients` gives the coefficient set, nothing multiplied
out.  The JSON (`dpr_to_json`) and the CLI's text only format these.  The
tests hold both renderings equal to `to_polynomial`, the core ring's bridge.
`sorted_terms` is an oracle no command reaches; the benchmark's tracer
names it, so `tests/test_reachability.py` allowlists it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, reduce
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .algebra import (Coeff, Immutable, Monomial, Polynomial, UnboundVariable, VarSymbol, ZZ,
                      coeff_to_json)

__all__ = [
    "DprPolynomial",
    "NotMultilinear",
    "TermCollision",
    "InterleavedFactors",
    "build_ex",
    "build_fx",
    "build_ey",
    "build_fy",
    "build_gx",
    "build_gy",
    "chain_symbols",
    "chain_steps",
    "chain_values",
    "relation_values",
    "check_multilinear",
    "check_index_bounds",
    "weight_check",
    "mirror_check",
    "padding_check",
    "PAIR_CHECKS",
    "ordered_terms",
    "dpr_to_json",
]

_MARKER_FAMILY = {"X": "U", "Y": "V"}


def _family_symbol(key: str | tuple[str, int], k: int) -> VarSymbol:
    if isinstance(key, str):
        return VarSymbol(key, (k,))
    return VarSymbol(key[0], (key[1], k))


# the families, keyed as fixedpoint's tables key them, in Monomial order
_KEYS = tuple(sorted(["X", "Y", *((kind, p) for kind in "UV" for p in (1, 2, 3))],
                     key=lambda key: _family_symbol(key, 1).sort_key))

_MAX_INDEX = 16  # the bits of one family's run, index 1 the top one
_WIDTH = _MAX_INDEX * len(_KEYS)


def _families(*keys: str | tuple[str, int]) -> int:
    """Every bit of the families `keys`."""
    run = (1 << _MAX_INDEX) - 1
    return sum(run << _WIDTH - _MAX_INDEX * (_KEYS.index(key) + 1) for key in keys)


_X, _Y = _families("X"), _families("Y")
_U, _V = (_families(*((kind, p) for p in (1, 2, 3))) for kind in "UV")
_CLASSES, _MARKERS = _X | _Y, _U | _V
_FIRST_MARKERS = _families(("U", 1), ("V", 1))
_LATER_MARKERS = _MARKERS & ~_FIRST_MARKERS
_RUN_ENDS = _families(*_KEYS) // ((1 << _MAX_INDEX) - 1)  # the lowest bit of every run
# the mirror moves X down onto Y, and each U[p] down onto V[p] by one shift
_XY_SHIFT = _MAX_INDEX * (_KEYS.index("Y") - _KEYS.index("X"))
_UV_SHIFT = _MAX_INDEX * (_KEYS.index(("V", 1)) - _KEYS.index(("U", 1)))


class NotMultilinear(ValueError):
    """A polynomial strayed outside the multilinear free ring."""


class TermCollision(AssertionError):
    """Two chunks the recursion keeps apart produced the same term."""


class InterleavedFactors(ValueError):
    """Neither factor of a product has all its classes and all its markers
    sort before the other's."""


def _mask(key: str | tuple[str, int], k: int) -> int:
    """The bit of the generator of family `key` (a member of `_KEYS`) at index k."""
    if not 1 <= k <= _MAX_INDEX or key not in _KEYS:
        raise ValueError(f"no relation generator {key!r} at index {k} (max {_MAX_INDEX})")
    return 1 << _WIDTH - _MAX_INDEX * _KEYS.index(key) - k


def _symbol_of_bit(pos: int) -> VarSymbol:
    family, index = divmod(_WIDTH - 1 - pos, _MAX_INDEX)
    return _family_symbol(_KEYS[family], index + 1)


def _positions(mask: int) -> Iterator[int]:
    """The positions of the bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DprPolynomial(Immutable):
    """An element of the multilinear relation ring over Z.

    The constructor is the one way a relation polynomial is made, from its
    terms and factors alone.  `flat` maps each term's bitmask to its
    coefficient; no coefficient is zero.  `factors` is None or a pair (a, b)
    of flat polynomials on disjoint generators whose product belongs to the
    polynomial too, a the upper one, and no mask of `flat` is a mask of that
    product (`_shaped` checks both, and refuses a factor that is not flat
    with ValueError).  So the polynomial has len(flat) + len(a) * len(b)
    distinct terms.  `support` is always the union of the generators of
    the flat terms and of the factors.  Instances are immutable; `flat` is a
    read-only view.

    `_derived` is what `_flat_derived` has computed from the terms of `flat`
    so far.  `flat` may also be a flat DprPolynomial, whose terms, support
    and dict are then shared.
    """

    __slots__ = ("flat", "factors", "support", "_derived")

    def __init__(self, flat: Mapping[int, int] | DprPolynomial,
                 factors: tuple[DprPolynomial, DprPolynomial] | None = None):
        derived = {}
        if isinstance(flat, DprPolynomial):
            if flat.factors is not None:
                raise ValueError("a flat part must be flat")
            derived, support, flat = flat._derived, flat.support, flat.flat
        else:
            if not isinstance(flat, MappingProxyType):
                flat = MappingProxyType(flat)
            support = _union(flat)
        if factors is not None:
            factors = _shaped(flat, support, *factors)
        if factors is not None:
            support |= factors[0].support | factors[1].support
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_derived", derived)

    # queries ---------------------------------------------------------------

    def __len__(self) -> int:
        if self.factors is None:
            return len(self.flat)
        a, b = self.factors
        return len(self.flat) + len(a) * len(b)

    def is_zero(self) -> bool:
        return not self.flat and self.factors is None

    def distinct_coefficients(self) -> set[int]:
        """The coefficients of the terms, each once: the flat part's, and each
        product of one coefficient of each factor, nothing multiplied out."""
        out = set(self.flat.values())
        if self.factors is not None:
            a, b = self.factors
            right = set(b.flat.values())
            out.update(x * y for x in set(a.flat.values()) for y in right)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DprPolynomial):
            return NotImplemented
        if len(self) != len(other) or self.support != other.support:
            return False
        if self.factors == other.factors:
            # equal products, so the flat parts decide
            return self.flat == other.flat
        return dict(self.terms()) == dict(other.terms())

    def terms(self) -> Iterator[tuple[int, int]]:
        yield from self.flat.items()
        if self.factors is not None:
            yield from _product_terms(*self.factors)

    # arithmetic ------------------------------------------------------------

    def swap_sides(self) -> "DprPolynomial":
        """Exchange X <-> Y and U <-> V, coefficients kept.  Mirrored factors
        may interleave (InterleavedFactors), but never a glued product's."""
        flat = _flat_derived(self, "mirror", _flat_mirror)
        if self.factors is None:
            return flat
        return DprPolynomial(flat, (self.factors[0].swap_sides(), self.factors[1].swap_sides()))

    # evaluation and export --------------------------------------------------

    def evaluate_rational(self, point: Mapping[VarSymbol, Coeff]) -> Coeff:
        """The value at `point`, which binds every generator of the support:
        the one evaluator of the expanded form.  An int value stays an int
        and any other becomes a Fraction, so the value at an int point is
        an int."""
        values: dict[int, Coeff] = {}
        for pos in _positions(self.support):
            sym = _symbol_of_bit(pos)
            if sym not in point:
                raise UnboundVariable(str(sym))
            v = point[sym]
            values[pos] = v if type(v) is int else Fraction(v)
        total = 0
        for mask, c in self.flat.items():
            prod = c
            m = mask
            while m:
                low = m & -m
                prod *= values[low.bit_length() - 1]
                m ^= low
            total += prod
        if self.factors is not None:
            a, b = self.factors
            total += a.evaluate_rational(point) * b.evaluate_rational(point)
        return total

    def substitute_families(self, values: Mapping[str | tuple[str, int], int]) -> int:
        """Exact integer value when every generator of a family gets one value:
        `evaluate_rational` at that point.

        `values` must bind all eight families, keyed "X", "Y", and
        ("U", p) / ("V", p) for the marker kinds.
        """
        vals = [operator.index(values[key]) for key in _KEYS]
        return self.evaluate_rational({_symbol_of_bit(pos): vals[(_WIDTH - 1 - pos) // _MAX_INDEX]
                                       for pos in _positions(self.support)})

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return self.to_polynomial().sorted_terms()

    def to_polynomial(self) -> Polynomial:
        """The terms as a Polynomial built by the checked Monomial
        constructor: the oracle that `ordered_terms` is tested against."""
        symbols = {pos: _symbol_of_bit(pos) for pos in _positions(self.support)}
        return Polynomial(ZZ, ((Monomial((symbols[pos], 1) for pos in _positions(m)), c)
                               for m, c in self.terms()))

    def __repr__(self) -> str:
        return f"DprPolynomial({len(self)} terms)"


def _flat_derived(g: DprPolynomial, name: str, compute):
    """compute(g), made once and held in `g._derived` under `name`.

    `compute` reads `g.flat`, and `g.support` only where a wider one does
    no harm, so its result belongs to the flat terms, and every polynomial
    that shares them shares it: on a cached chain it lives as long as the
    chain cache does.  What depends on anything else is keyed by it too, as
    a kill is by its cut.
    """
    held = g._derived
    if name not in held:
        held[name] = compute(g)
    return held[name]


def _union(masks: Iterable[int]) -> int:
    """The generators that any of `masks` mentions, as one mask."""
    return reduce(operator.or_, masks, 0)


def _flat_mirror(p: DprPolynomial) -> DprPolynomial:
    """p's flat terms with X <-> Y and U <-> V: two moves each when p lies on
    one side, as a chain does, and four otherwise.  The one-sided paths
    stay: with the four-move path alone, the 64 mirror checks of the (8, 8)
    grid ran 1-2 ms slower in a fresh process, about 1% of building and
    checking the grid, and a benchmark `expand` run read cmd_p90_ms +9.8%
    (slower in 10 of 12 pairs, Python 3.11.7 on 2 vCPUs)."""
    x, y, u, v, xy, uv = _X, _Y, _U, _V, _XY_SHIFT, _UV_SHIFT
    if not p.support & (y | v):
        return DprPolynomial({(m & x) >> xy | (m & u) >> uv: c for m, c in p.flat.items()})
    if not p.support & (x | u):
        return DprPolynomial({(m & y) << xy | (m & v) << uv: c for m, c in p.flat.items()})
    return DprPolynomial({(m & x) >> xy | (m & y) << xy | (m & u) >> uv | (m & v) << uv: c
                          for m, c in p.flat.items()})


def _upper(a: int, b: int) -> bool:
    """Every class of support `a` lies above every class of support `b`, and
    every marker likewise (a part that either lacks has no pair to compare)."""
    for part in (_CLASSES, _MARKERS):
        high, low = a & part, b & part
        if high and low >= high & -high:
            return False
    return True


def _shaped(flat: Mapping[int, int], flat_support: int,
            a: DprPolynomial, b: DprPolynomial) -> tuple[DprPolynomial, DprPolynomial] | None:
    """A product's factors, the upper one first, or None when one is zero:
    a zero factor kills the whole product.  A factor that is not flat is
    refused.  Factors that share a generator are kept as given, for
    `check_multilinear`.  A product term meets both factors' supports unless
    one holds the constant term, so only then, or when the flat support
    meets both, are flat terms looked up."""
    if a.factors is not None or b.factors is not None:
        raise ValueError("product factors must be flat")
    if a.is_zero() or b.is_zero():
        return None
    if a.support & b.support:
        return a, b
    if not _upper(a.support, b.support):
        if not _upper(b.support, a.support):
            raise InterleavedFactors("the factors' generators interleave in Monomial order")
        a, b = b, a
    sa, sb = a.support, b.support
    if 0 in a.flat or 0 in b.flat or (flat_support & sa and flat_support & sb):
        for m in flat:
            if not m & ~(sa | sb) and (m & sa) in a.flat and (m & sb) in b.flat:
                raise TermCollision("a flat term is also a product term")
    return a, b


def _product_terms(a: DprPolynomial, b: DprPolynomial) -> Iterator[tuple[int, int]]:
    """Multiply out the product of two flat polynomials on disjoint generators."""
    if a.support & b.support:
        raise NotMultilinear("factors share generators")
    right = list(b.flat.items())
    for ma, ca in a.flat.items():
        for mb, cb in right:
            yield ma | mb, ca * cb


def _concat_chunks(chunks: Iterable[Mapping[int, int]]) -> dict[int, int]:
    """Sum chunks whose term masks are pairwise distinct by construction.

    Each recursion step tags new terms with a generator the older chunks
    cannot contain, so merging the dicts is the sum; a merge that comes out
    shorter than its chunks found a shared term, and raises.
    """
    out: dict[int, int] = {}
    expected = 0
    for chunk in chunks:
        out.update(chunk)
        expected += len(chunk)
    if len(out) != expected:
        raise TermCollision("chunk masks collided; recursion invariant broken")
    return out


def _times(p: DprPolynomial, mask: int, coeff: int) -> dict[int, int]:
    """The terms of p times the monomial coeff * mask, on fresh generators."""
    if p.support & mask:
        raise NotMultilinear("factors share generators")
    return {m | mask: c * coeff for m, c in p.flat.items()}


# builders -------------------------------------------------------------------

# a plain dict, not a function cache: the tests swap in a private one per
# test, inject tampered chains into it and read back what it holds
_CHAIN_CACHE: dict[tuple[str, int], tuple[DprPolynomial, DprPolynomial]] = {}


def _chain(side: str, n: int) -> tuple[DprPolynomial, DprPolynomial]:
    """(T_n, F_n) for one family: the class sum plus the excess polynomial,
    and the correction polynomial, built together by the recursion

        T_1 = X_1,  F_1 = 0,
        T_k = T_{k-1} + X_k - T_{k-1}*X_k*U1_{k-1} - X_k*F_{k-1},
        F_k = F_{k-1} + T_{k-1}*X_k*(U2_k - U3_k).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    got = _CHAIN_CACHE.get((side, n))
    if got is not None:
        return got
    x_n = _mask(side, n)
    if n == 1:
        pair = (DprPolynomial({x_n: 1}), DprPolynomial({}))
    else:
        marker = _MARKER_FAMILY[side]
        t, f = _chain(side, n - 1)
        t_n = _concat_chunks([t.flat, {x_n: 1},
                              _times(t, x_n | _mask((marker, 1), n - 1), -1),
                              _times(f, x_n, -1)])
        f_n = _concat_chunks([f.flat,
                              _times(t, x_n | _mask((marker, 2), n), 1),
                              _times(t, x_n | _mask((marker, 3), n), -1)])
        pair = (DprPolynomial(t_n), DprPolynomial(f_n))
    _CHAIN_CACHE[(side, n)] = pair
    return pair


def _excess(side: str, n: int) -> DprPolynomial:
    classes = {_mask(side, i) for i in range(1, n + 1)}
    return DprPolynomial({m: c for m, c in _chain(side, n)[0].flat.items() if m not in classes})


def build_ex(n: int) -> DprPolynomial:
    return _excess("X", n)


def build_fx(n: int) -> DprPolynomial:
    return _chain("X", n)[1]


def build_ey(n: int) -> DprPolynomial:
    return _excess("Y", n)


def build_fy(n: int) -> DprPolynomial:
    return _chain("Y", n)[1]


def _glue(side: str, n: int, m: int) -> DprPolynomial:
    """T_n + T'_m * F_n, with T_n, F_n on `side` and T'_m on the other side,
    the product kept as its factors."""
    if n < 1 or m < 1:
        raise ValueError("both counts must be >= 1")
    t, f = _chain(side, n)
    return DprPolynomial(t, (f, _chain("Y" if side == "X" else "X", m)[0]))


def build_gx(n: int, m: int) -> DprPolynomial:
    """Full relation polynomial with n first-family and m second-family classes."""
    return _glue("X", n, m)


def build_gy(n: int, m: int) -> DprPolynomial:
    """Mirror image: n second-family and m first-family classes."""
    return _glue("Y", n, m)


# recurrence-first evaluation -------------------------------------------------

def _marker_family(side: str) -> str:
    if side not in _MARKER_FAMILY:
        raise ValueError(f"side must be X or Y, got {side!r}")
    return _MARKER_FAMILY[side]


@cache
def chain_symbols(side: str, n: int) -> tuple[VarSymbol, ...]:
    """The generators of a chain of n classes on one side, in a fixed order:
    classes 1..n, first markers 1..n-1, then second and third markers 2..n.
    The tuple is made once per (side, n) and cached: every call returns the
    same object.  A bad side raises ValueError on every call, since a raise
    is never cached."""
    marker = _marker_family(side)
    return tuple([VarSymbol(side, (i,)) for i in range(1, n + 1)]
                 + [VarSymbol(marker, (1, k)) for k in range(1, n)]
                 + [VarSymbol(marker, (p, k)) for p in (2, 3) for k in range(2, n + 1)])


@cache
def chain_steps(side: str, n: int) -> tuple[tuple[VarSymbol, ...], ...]:
    """(X_k, U1_{k-1}, U2_k, U3_k) for each step k = 2..n of a chain of n
    classes (Y and V on the Y side), sliced from `chain_symbols(side, n)`:
    the one owner of that tuple's layout, cached like it."""
    symbols = chain_symbols(side, n)
    return tuple(zip(symbols[1:n], symbols[n:2 * n - 1], symbols[2 * n - 1:3 * n - 2],
                     symbols[3 * n - 2:4 * n - 3]))


def chain_values(side: str, n: int, value: Mapping[VarSymbol, object]) -> list[tuple]:
    """[(T_1, F_1), ..., (T_n, F_n)] for one side's chain at `value`.

    T_k = S_k + E_k is the class sum plus the excess polynomial and F_k the
    correction polynomial, evaluated by `_chain`'s recursion itself.
    `value` binds generators (Y and V on the Y side) to elements of any
    commutative ring that mixes with int: ints, Fractions, Polynomials.
    Membership of every generator in `chain_symbols(side, n)` is tested
    first, so a `defaultdict` gains no key and an unbound generator raises
    UnboundVariable naming the first missing one; the recursion then reads
    each step's class and markers from `chain_steps(side, n)`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    symbols = chain_symbols(side, n)
    for sym in symbols:
        if sym not in value:
            raise UnboundVariable(str(sym))
    t, f = value[symbols[0]], 0
    out = [(t, f)]
    for step in chain_steps(side, n):
        x, u1, u2, u3 = map(value.__getitem__, step)
        t, f = t + x - t * x * u1 - x * f, f + t * x * (u2 - u3)
        out.append((t, f))
    return out


def relation_values(n: int, m: int, value: Mapping[VarSymbol, object]) -> tuple:
    """Both sides of the relation with n first-family and m second-family
    classes at `value`: (build_gx(n, m), build_gy(m, n)) evaluated, that is
    (T^X_n + T^Y_m * F^X_n, T^Y_m + T^X_n * F^Y_m), from one `chain_values`
    run per side."""
    if n < 1 or m < 1:
        raise ValueError("both counts must be >= 1")
    t_x, f_x = chain_values("X", n, value)[-1]
    t_y, f_y = chain_values("Y", m, value)[-1]
    return t_x + t_y * f_x, t_y + t_x * f_y


# checks ----------------------------------------------------------------------


def check_multilinear(g: DprPolynomial) -> bool:
    """No generator may appear squared in any term.

    A bitmask cannot hold an exponent of 2, so the one place a square can
    hide is a product whose factors share a generator.
    """
    return g.factors is None or not g.factors[0].support & g.factors[1].support


def _indices(count: int) -> int:
    """Indices 1..count (as far as they go) of every family, by one product."""
    count = min(max(count, 0), _MAX_INDEX)
    return ((1 << count) - 1 << _MAX_INDEX - count) * _RUN_ENDS


def _allowed_support(n: int, m: int) -> int:
    """The mask of `chain_symbols("X", n) + chain_symbols("Y", m)`: per side,
    classes 1..count, first markers 1..count-1, second/third markers 2..count."""
    allowed = 0
    for side, count in ((_X | _U, n), (_Y | _V, m)):
        upto = _indices(count)
        allowed |= side & (_CLASSES & upto | _FIRST_MARKERS & _indices(count - 1)
                           | _LATER_MARKERS & upto & ~_indices(1))
    return allowed


def check_index_bounds(g: DprPolynomial, n: int, m: int) -> bool:
    """Indices stay inside the ranges the recursion can produce:
    classes up to their count, first markers strictly below it, and
    second/third markers between 2 and the count."""
    return (g.support & ~_allowed_support(n, m)) == 0


def _flat_weights(p: DprPolynomial) -> set[int]:
    classes, first, later = _CLASSES, _FIRST_MARKERS, _LATER_MARKERS
    return {(m & classes).bit_count() - (m & first).bit_count() - 2 * (m & later).bit_count()
            for m in p.flat}


def _weights(g: DprPolynomial) -> set[int]:
    """The set of term weights, from the factors' sets for a product."""
    out = _flat_derived(g, "weights", _flat_weights)
    if g.factors is not None:
        left, right = (_weights(f) for f in g.factors)
        out = out | {a + b for a in left for b in right}
    return out


def weight_check(g: DprPolynomial, weight: int) -> bool:
    """True iff every term has the given total weight (classes +1,
    first markers -1, second/third markers -2)."""
    return _weights(g) <= {weight}


def mirror_check(n: int, m: int) -> bool:
    """Swapping families in one relation polynomial gives the other."""
    return build_gx(n, m).swap_sides() == build_gy(n, m)


def _flat_kill(p: DprPolynomial, cut: int) -> DprPolynomial:
    """The flat terms of p that mention no generator of `cut` (a mask)."""
    return DprPolynomial({mask: c for mask, c in p.flat.items() if not mask & cut})


def _kill(g: DprPolynomial, generators: int) -> DprPolynomial:
    """g without every term that mentions one of `generators` (a mask).

    The kill of each flat part is held with its terms, keyed by its cut:
    `generators` restricted to the flat terms' own support.  So a padding
    grid kills each chain once per cut of that chain's generators, whatever
    the other chains glued to it.
    """
    cut = generators & _flat_derived(g, "support", lambda p: _union(p.flat))
    flat = _flat_derived(g, ("kill", cut), lambda p: _flat_kill(p, cut))
    if g.factors is None:
        return flat
    return DprPolynomial(flat, (_kill(g.factors[0], generators), _kill(g.factors[1], generators)))


def padding_check(n: int, m: int, big_n: int, big_m: int) -> bool:
    """The larger relation polynomial reduces to the smaller one when every
    term mentioning an out-of-range class is killed."""
    if not (1 <= n <= big_n and 1 <= m <= big_m):
        raise ValueError("padding requires n <= N and m <= M")
    out = 0
    for i in range(n + 1, big_n + 1):
        out |= _mask("X", i)
    for j in range(m + 1, big_m + 1):
        out |= _mask("Y", j)
    return _kill(build_gx(big_n, big_m), out) == build_gx(n, m)


# the checks of one relation pair GX(n, m), GY(m, n): `gdpr check` runs one
# by name, and criterion 2 runs all of them in this order
PAIR_CHECKS = {
    "multilinear": lambda gx, gy, n, m: check_multilinear(gx) and check_multilinear(gy),
    "bounds": lambda gx, gy, n, m: check_index_bounds(gx, n, m) and check_index_bounds(gy, n, m),
    "weight": lambda gx, gy, n, m: weight_check(gx, 1) and weight_check(gy, 1),
    "mirror": lambda gx, gy, n, m: mirror_check(n, m),
}


# export -----------------------------------------------------------------------

def _names_down(mask: int, name_at: dict[int, str]) -> tuple[str, ...]:
    """The names of the generators of `mask`, highest bit first: Monomial order."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(name_at[top])
        mask ^= 1 << top
    return tuple(out)


def _flat_rows(p: DprPolynomial) -> list[tuple]:
    """The rows (head, parts, coefficient) of p's flat terms, held with them.
    A head is a term's generator count above its mask, and its parts are
    its names in Monomial order as (class part, marker part)."""
    def rows(q):
        name_at = {pos: str(_symbol_of_bit(pos)) for pos in _positions(q.support)}
        classes, markers, width = _CLASSES, _MARKERS, _WIDTH
        return [(mask.bit_count() << width | mask,
                 (_names_down(mask & classes, name_at), _names_down(mask & markers, name_at)), c)
                for mask, c in q.flat.items()]

    return _flat_derived(p, "rows", rows)


# the row of the empty term with coefficient 1, the partner of a flat term
_UNIT = (0, ((), ()), 1)


def ordered_terms(g: DprPolynomial) -> Iterator[tuple[tuple[str, ...], int]]:
    """Each term of g in output order: its generator names in Monomial
    order, and its coefficient.  No Monomial is made.

    The rows are sorted once, on one int each: the term's head with its
    mask's bits flipped.  Within one count, the term whose first differing
    generator comes first has the higher mask; every exponent is 1, so that
    is the Monomials' graded lexicographic order, that of
    `g.sorted_terms()`.  A product term's head is the sum of its factors'
    (counts add, disjoint masks OR), and a flat term is one row times
    `_UNIT`.  A term's names, made as it is yielded, are its upper row's
    class part, the lower's, then their marker parts in that order.
    """
    full = (1 << _WIDTH) - 1
    keyed = [(row[0] ^ full, row, _UNIT) for row in _flat_rows(g)]
    if g.factors is not None:
        a, b = g.factors
        if a.support & b.support:
            raise NotMultilinear("factors share generators")
        right = _flat_rows(b)
        keyed += [((x[0] + y[0]) ^ full, x, y) for x in _flat_rows(a) for y in right]
    keyed.sort()  # masks are distinct, so no two keys tie and no rows are compared
    for _, (_, (cls_l, mk_l), cl), (_, (cls_r, mk_r), cr) in keyed:
        yield cls_l + cls_r + mk_l + mk_r, cl * cr


def dpr_to_json(g: DprPolynomial) -> dict:
    """`poly_to_json(g.to_polynomial())`, one term dict per term that
    `ordered_terms` gives.  Each distinct coefficient's dict is made up
    front, from `distinct_coefficients`, and the terms that have it share
    that one dict: the document is made to be rendered, and a caller that
    edits one term's coefficient edits them all."""
    coeffs = {c: coeff_to_json(c) for c in g.distinct_coefficients()}
    return {"ring": {"inverted": []},
            "terms": [{"coeff": coeffs[c], "monomial": dict.fromkeys(names, 1)}
                      for names, c in ordered_terms(g)]}
