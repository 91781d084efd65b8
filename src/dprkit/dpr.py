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

Representation: a term is a bitmask, a plain Python int.  Index k owns the
byte at bit 8*(k-1), with bit offsets X=0, Y=1, U1=2, V1=3, U2=4, V2=5,
U3=6, V3=7 inside the byte, and Python ints have any width, so one code path
serves every index.  A polynomial is a dict {mask: coeff} plus at most one
product of two such dicts on disjoint generators, kept as its factors.  The
relation polynomial GX(n, m) is stored as T^X_n plus the product of T^Y_m
and F^X_n: 3^(n-1) + 3^(m-1) + 3^(n-1) - 1 stored terms for the
3^(n+m-2) + 3^(n-1) - 3^(m-1) it stands for.  The structural checks run on
the factors (a term count multiplies, supports OR, weight sets add, a mirror
or a padding kill acts on each factor), and the product is multiplied out
only for a caller that iterates every term (`terms`, `ordered_terms`,
`to_polynomial`, or an equality test whose factors differ).

What depends on a polynomial's flat terms alone is derived from them once,
on first use, and held with them (see `_flat_derived`): the set of their
weights, their mirror image, each term's generator keys in Monomial symbol
order, their own support, and their kill by each cut of that support a
padding check asks for.  A polynomial built on a flat polynomial's terms
shares what is held with them, so what is derived for a chain in
`_CHAIN_CACHE` lives exactly as long as the cache, and GX(n, m), which
holds T_n itself as its flat part, shares T_n's.
So GX's weight set is W(T_n) together with W(T'_m) + W(F_n), its mirror is
assembled from the three chains' mirrors (and `mirror_check` still
compares that with an independently built GY, term by term), and its JSON
merges the factors' key lists per product term.

Consumers that need only the value of a relation polynomial at a point do
not expand it: `chain_values` and `relation_value` run the same recursion
on values in any commutative ring, in O(n + m) ring operations.  A chain's
generators are held once, as one interned tuple per (side, n) in
`chain_symbols` order, and `chain_values` reads the point's values off it
in one pass, with no symbol built per lookup.  The mask form is the one
expansion: `gdpr build` prints it, the structural checks run on it, and it
is the slow oracle (`DprPolynomial.evaluate_rational`,
`substitute_families`) the fast path is tested against.  Its JSON
(`dpr_to_json`) and the CLI's text rows read one ordered term stream,
`ordered_terms`, with no Monomial made.  `to_polynomial` is the one bridge
to the core ring: criterion 1 compares its result with explicit
Polynomials, and the tests hold both renderings equal to it, built apart
from the stream's ordering table.  `sorted_terms` and `evaluate_rational`
are oracles no command reaches; the benchmark's tracer names them, so
`tests/test_reachability.py` allowlists them until the tracer's layers move.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .algebra import (Coeff, Immutable, Monomial, Polynomial, UnboundVariable, VarSymbol, ZZ,
                      coeff_to_json)

__all__ = [
    "DprPolynomial",
    "NotMultilinear",
    "TermCollision",
    "build_ex",
    "build_fx",
    "build_ey",
    "build_fy",
    "build_gx",
    "build_gy",
    "chain_symbols",
    "chain_values",
    "relation_value",
    "check_multilinear",
    "check_index_bounds",
    "weight_check",
    "mirror_check",
    "padding_check",
    "PAIR_CHECKS",
    "ordered_terms",
    "dpr_to_json",
]

_BITS_PER_INDEX = 8

# the generator families in their bit order inside an index block, keyed as
# `substitute_families` and fixedpoint's tables key them
_KEYS = ("X", "Y", ("U", 1), ("V", 1), ("U", 2), ("V", 2), ("U", 3), ("V", 3))
_MARKER_FAMILY = {"X": "U", "Y": "V"}

_XY_BYTE, _M1_BYTE, _M23_BYTE = 0x03, 0x0C, 0xF0
_EVEN_BYTE, _ODD_BYTE = 0x55, 0xAA


class NotMultilinear(ValueError):
    """A polynomial strayed outside the multilinear free ring."""


class TermCollision(AssertionError):
    """Two chunks the recursion keeps apart produced the same term."""


def _repeat(byte: int, blocks: int) -> int:
    """A byte pattern in each of the first `blocks` index blocks.

    0x0101...01 = (2^(8b) - 1) / 0xFF.
    """
    return byte * ((1 << (_BITS_PER_INDEX * max(blocks, 0))) - 1) // 0xFF


def _rep_mask(byte: int, support: int) -> int:
    """Repeat a byte pattern across every index block touched by `support`."""
    return _repeat(byte, -(-support.bit_length() // _BITS_PER_INDEX))


def _mask(key: str | tuple[str, int], k: int) -> int:
    """The bit of the generator of family `key` (a member of `_KEYS`) at index k."""
    if k < 1 or key not in _KEYS:
        raise ValueError(f"no relation generator {key!r} at index {k}")
    return 1 << (_BITS_PER_INDEX * (k - 1) + _KEYS.index(key))


def _symbol_of_bit(pos: int) -> VarSymbol:
    block, off = divmod(pos, _BITS_PER_INDEX)
    key = _KEYS[off]
    if isinstance(key, str):
        return VarSymbol(key, (block + 1,))
    return VarSymbol(key[0], (key[1], block + 1))


# the bit offsets in the order a Monomial sorts their generators:
# X, Y, U1, U2, U3, V1, V2, V3
_OFFSETS_IN_SYMBOL_ORDER = sorted(range(_BITS_PER_INDEX),
                                  key=lambda off: _symbol_of_bit(off).sort_key)
_RANK_AT_OFFSET = [_OFFSETS_IN_SYMBOL_ORDER.index(off) for off in range(_BITS_PER_INDEX)]


def _bit_key(pos: int) -> int:
    """An int that sorts the generator at bit `pos` in Monomial symbol order,
    whatever the polynomial: its rank (family and marker kind) above its
    index block, which has 32 bits, far more than any mask can reach."""
    block, off = divmod(pos, _BITS_PER_INDEX)
    return _RANK_AT_OFFSET[off] << 32 | block


class DprPolynomial(Immutable):
    """An element of the multilinear relation ring over Z.

    `flat` maps each term's bitmask to its coefficient; no coefficient is
    zero.  `factors` is None or a pair (a, b) of flat polynomials on
    disjoint generators whose product belongs to the polynomial too, and no
    mask of `flat` is a mask of that product.  So the polynomial has
    len(flat) + len(a) * len(b) distinct terms.  Instances are immutable,
    and `flat` is a read-only view: the builders share it through a cache.

    `_derived` is the dict of what `_flat_derived` has computed from the
    terms of `flat` so far.  `flat` may also be given as a flat
    DprPolynomial, whose terms and dict are then shared: a relation
    polynomial glued from chains holds its T_n's that way.
    """

    __slots__ = ("flat", "factors", "support", "_derived")

    def __init__(self, flat: Mapping[int, int] | DprPolynomial,
                 factors: tuple[DprPolynomial, DprPolynomial] | None = None,
                 support: int | None = None):
        derived = {}
        if isinstance(flat, DprPolynomial):
            if flat.factors is not None:
                raise ValueError("a flat part must be flat")
            derived, flat = flat._derived, flat.flat
        elif not isinstance(flat, MappingProxyType):
            flat = MappingProxyType(flat)
        if factors is not None and (factors[0].is_zero() or factors[1].is_zero()):
            factors = None  # a zero factor kills the whole product
        if support is None:
            support = _union(flat)
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
        """Exchange the two families: X <-> Y and U <-> V, coefficients kept."""
        flat = _flat_derived(self, "mirror", _flat_mirror)
        if self.factors is None:
            return flat
        factors = (self.factors[0].swap_sides(), self.factors[1].swap_sides())
        return DprPolynomial(flat, factors, _swap_families(self.support))

    # evaluation and export --------------------------------------------------

    def evaluate_rational(self, point: Mapping[VarSymbol, Coeff]) -> Fraction:
        values: dict[int, Fraction] = {}
        sup = self.support
        pos = 0
        while sup:
            if sup & 1:
                sym = _symbol_of_bit(pos)
                if sym not in point:
                    raise UnboundVariable(str(sym))
                values[pos] = Fraction(point[sym])
            sup >>= 1
            pos += 1
        total = Fraction(0)
        for mask, c in self.flat.items():
            prod = Fraction(c)
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
        """Exact integer value when every generator of a family gets one value.

        `values` must bind all eight families, keyed "X", "Y", and
        ("U", p) / ("V", p) for the marker kinds.
        """
        vals = [operator.index(values[key]) for key in _KEYS]
        patterns = [_rep_mask(1 << off, self.support) for off in range(_BITS_PER_INDEX)]
        # group the terms by their per-family generator counts: distinct
        # exponent profiles are few even when terms are many
        sums: dict[tuple[int, ...], int] = defaultdict(int)
        for mask, c in self.flat.items():
            sums[tuple((mask & p).bit_count() for p in patterns)] += c
        total = 0
        for profile, s in sums.items():
            prod = s
            for v, e in zip(vals, profile):
                prod *= v ** e
            total += prod
        if self.factors is not None:
            a, b = self.factors
            total += a.substitute_families(values) * b.substitute_families(values)
        return total

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return self.to_polynomial().sorted_terms()

    def to_polynomial(self) -> Polynomial:
        """The terms as a Polynomial built by the checked Monomial
        constructor: the oracle that `ordered_terms` is tested against."""
        symbols = [_symbol_of_bit(pos) for pos in range(self.support.bit_length())]
        return Polynomial(ZZ, ((Monomial((symbols[pos], 1)
                                         for pos in range(m.bit_length()) if m >> pos & 1), c)
                               for m, c in self.terms()))

    def __repr__(self) -> str:
        return f"DprPolynomial({len(self)} terms)"


def _flat_derived(g: DprPolynomial, name: str, compute):
    """compute(g), made once and held in `g._derived` under `name`.

    `compute` reads `g.flat` alone (and `g.support` for block patterns, to
    which a wider support does no harm), so its result belongs to the flat
    terms, and every polynomial that shares them shares it: on a cached
    chain it lives as long as the chain cache does.
    """
    held = g._derived
    if name not in held:
        held[name] = compute(g)
    return held[name]


def _union(masks: Iterable[int]) -> int:
    """The generators that any of `masks` mentions, as one mask."""
    out = 0
    for mask in masks:
        out |= mask
    return out


def _swap_families(support: int) -> int:
    """A support with the two families exchanged."""
    even, odd = _rep_mask(_EVEN_BYTE, support), _rep_mask(_ODD_BYTE, support)
    return ((support & even) << 1) | ((support & odd) >> 1)


def _flat_mirror(p: DprPolynomial) -> DprPolynomial:
    """The flat terms of p with the two families exchanged."""
    even, odd = _rep_mask(_EVEN_BYTE, p.support), _rep_mask(_ODD_BYTE, p.support)
    flat = {((m & even) << 1) | ((m & odd) >> 1): c for m, c in p.flat.items()}
    return DprPolynomial(flat, None, None if p.factors else _swap_families(p.support))


def _product_terms(a: DprPolynomial, b: DprPolynomial) -> Iterator[tuple[int, int]]:
    """Multiply out the product of two flat polynomials on disjoint generators."""
    if a.support & b.support:
        raise NotMultilinear("factors share generators")
    right = list(b.flat.items())
    for ma, ca in a.flat.items():
        for mb, cb in right:
            yield ma | mb, ca * cb


def _product_disjoint(a: DprPolynomial, b: DprPolynomial) -> DprPolynomial:
    """The product of two flat polynomials with disjoint symbol supports,
    kept as its factors."""
    if a.factors is not None or b.factors is not None:
        raise ValueError("product factors must be flat")
    if a.support & b.support:
        raise NotMultilinear("factors share generators")
    return DprPolynomial({}, (a, b))


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
    t_other = _chain(_other_side(side), m)[0]
    # a product term contains a term of T'_m; one without a constant term
    # and on other generators than T_n can meet no term of T_n
    if 0 in t_other.flat or t_other.support & t.support:
        raise TermCollision("the glued product may share terms with the chain")
    product = _product_disjoint(t_other, f)
    return DprPolynomial(t, product.factors, t.support | product.support)


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


_CHAIN_SYMBOLS: dict[tuple[str, int], tuple[VarSymbol, ...]] = {}


def _held_symbols(side: str, n: int) -> tuple[VarSymbol, ...]:
    """The generators of `chain_symbols(side, n)`, made once and held."""
    held = _CHAIN_SYMBOLS.get((side, n))
    if held is None:
        marker = _marker_family(side)
        held = tuple([VarSymbol(side, (i,)) for i in range(1, n + 1)]
                     + [VarSymbol(marker, (1, k)) for k in range(1, n)]
                     + [VarSymbol(marker, (p, k)) for p in (2, 3) for k in range(2, n + 1)])
        _CHAIN_SYMBOLS[(side, n)] = held
    return held


def chain_symbols(side: str, n: int) -> list[VarSymbol]:
    """The generators of a chain of n classes on one side, in a fixed order:
    classes 1..n, first markers 1..n-1, then second and third markers 2..n."""
    return list(_held_symbols(side, n))


def chain_values(side: str, n: int, value: Mapping[VarSymbol, object]) -> list[tuple]:
    """[(T_1, F_1), ..., (T_n, F_n)] for one side's chain at `value`.

    T_k = S_k + E_k is the class sum plus the excess polynomial and F_k the
    correction polynomial of `_chain`, evaluated by the recursion itself:

        T_1 = X_1,  F_1 = 0,
        T_k = T_{k-1} + X_k - T_{k-1}*X_k*U1_{k-1} - X_k*F_{k-1},
        F_k = F_{k-1} + T_{k-1}*X_k*(U2_k - U3_k).

    `value` binds generators (Y and V on the Y side) to elements of any
    commutative ring that mixes with int: ints, Fractions, Polynomials.  The
    values are read in one pass over the chain's held generator tuple, in
    `chain_symbols` order, and the recursion runs on its four slices: classes
    [0, n), first markers [n, 2n-1), second markers [2n-1, 3n-2) and third
    markers [3n-2, 4n-3).  Membership is tested before each read, so a
    `defaultdict` gains no key and an unbound generator raises
    UnboundVariable naming it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = []
    for sym in _held_symbols(side, n):
        if sym not in value:
            raise UnboundVariable(str(sym))
        vals.append(value[sym])
    t, f = vals[0], 0
    out = [(t, f)]
    for x, u1, u2, u3 in zip(vals[1:n], vals[n:2 * n - 1], vals[2 * n - 1:3 * n - 2],
                             vals[3 * n - 2:]):
        t, f = t + x - t * x * u1 - x * f, f + t * x * (u2 - u3)
        out.append((t, f))
    return out


def relation_value(side: str, n: int, m: int, value: Mapping[VarSymbol, object]):
    """Value of build_gx(n, m) (side "X") or build_gy(n, m) (side "Y") at
    `value`: T_n + T'_m * F_n, where T'_m belongs to the other side's chain
    of m classes."""
    if n < 1 or m < 1:
        raise ValueError("both counts must be >= 1")
    t, f = chain_values(side, n, value)[-1]
    t_other = chain_values(_other_side(side), m, value)[-1][0]
    return t + t_other * f


def _other_side(side: str) -> str:
    return "X" if side == "Y" else "Y"


# checks ----------------------------------------------------------------------


def check_multilinear(g: DprPolynomial) -> bool:
    """No generator may appear squared in any term.

    A bitmask cannot hold an exponent of 2, so the one place a square can
    hide is a product whose factors share a generator.
    """
    return g.factors is None or not g.factors[0].support & g.factors[1].support


def _allowed_support(n: int, m: int) -> int:
    """The mask of `chain_symbols("X", n) + chain_symbols("Y", m)`: per side,
    classes 1..count, first markers 1..count-1, second/third markers 2..count."""
    allowed = 0
    for side, count in ((_EVEN_BYTE, n), (_ODD_BYTE, m)):
        allowed |= (_repeat(_XY_BYTE & side, count) | _repeat(_M1_BYTE & side, count - 1)
                    | _repeat(_M23_BYTE & side, count - 1) << _BITS_PER_INDEX)
    return allowed


def check_index_bounds(g: DprPolynomial, n: int, m: int) -> bool:
    """Indices stay inside the ranges the recursion can produce:
    classes up to their count, first markers strictly below it, and
    second/third markers between 2 and the count."""
    return (g.support & ~_allowed_support(n, m)) == 0


def _flat_weights(p: DprPolynomial) -> set[int]:
    xy, m1, m23 = (_rep_mask(byte, p.support) for byte in (_XY_BYTE, _M1_BYTE, _M23_BYTE))
    return {(m & xy).bit_count() - (m & m1).bit_count() - 2 * (m & m23).bit_count()
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


def _flat_keys(p: DprPolynomial) -> list[list[int]]:
    """Each flat term's generator keys (see `_bit_key`), ascending, in the
    order of `p.flat`."""
    key_of = [_bit_key(pos) for pos in range(p.support.bit_length())]
    out = []
    for mask in p.flat:
        keys = []
        while mask:
            low = mask & -mask
            keys.append(key_of[low.bit_length() - 1])
            mask ^= low
        keys.sort()
        out.append(keys)
    return out


def ordered_terms(g: DprPolynomial) -> Iterator[tuple[Iterator[str], int]]:
    """Each term of g in output order: its generator names in Monomial
    order, and its coefficient.

    No Monomial is made, each generator's name is rendered once, and a
    product term's keys are the merge of its factors' keys, which a chain
    holds from its first export on.  Terms sort on their generators' keys,
    ascending, after their count: every exponent is 1, so that is the
    Monomials' graded lexicographic order, the order of `g.sorted_terms()`.
    """
    names = {}
    sup = g.support
    while sup:
        low = sup & -sup
        pos = low.bit_length() - 1
        names[_bit_key(pos)] = str(_symbol_of_bit(pos))
        sup ^= low
    keyed = [(len(keys), keys, c)
             for keys, c in zip(_flat_derived(g, "keys", _flat_keys), g.flat.values())]
    if g.factors is not None:
        a, b = g.factors
        if a.support & b.support:
            raise NotMultilinear("factors share generators")
        right = list(zip(_flat_derived(b, "keys", _flat_keys), b.flat.values()))
        for left_keys, ca in zip(_flat_derived(a, "keys", _flat_keys), a.flat.values()):
            for right_keys, cb in right:
                keys = left_keys + right_keys
                keys.sort()
                keyed.append((len(keys), keys, ca * cb))
    keyed.sort()  # masks are distinct, so no two keys tie and no c is compared
    name = names.__getitem__
    for _, keys, c in keyed:
        yield map(name, keys), c


def dpr_to_json(g: DprPolynomial) -> dict:
    """`poly_to_json(g.to_polynomial())`, written from `ordered_terms(g)`,
    each distinct coefficient rendered once."""
    rendered: dict = {}
    terms = []
    for names, c in ordered_terms(g):
        coeff = rendered.get(c)
        if coeff is None:
            coeff = rendered[c] = coeff_to_json(c)
        terms.append({"coeff": coeff.copy(), "monomial": dict.fromkeys(names, 1)})
    return {"ring": {"inverted": []}, "terms": terms}
