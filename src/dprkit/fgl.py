"""Truncated formal group law arithmetic, exact over the free coefficient ring.

A law is a two-variable series u + v + sum of c_ij u^i v^j with c_ij = c_ji.
In universal mode the c_ij are free symbols a[i][j] (stored with i <= j); the
additive and multiplicative modes specialize them.  A series has one or two
variables, u and v; everything is computed modulo total degree > order, with
series coefficients held as polynomials in the c_ij alphabet.  The
associativity residues, coefficients of a three-variable difference, are
read off the powers of F(u, v) without building a series in three variables.

Internally coefficient polynomials are dicts keyed by a packed integer: each
registered symbol owns a 6-bit exponent field, so monomial multiplication is
integer addition.  A coefficient of a term of degree k has symbol degree
below k <= MAX_ORDER, half the field size, so no exponent overflows, even
where `eval_dim_truncated` multiplies coefficients by powers up to the order.
Packed keys never leave this module; public surfaces (`coefficient(s)`,
`associativity_relations`, `eval_dim_truncated`, the JSON) speak
`algebra.Polynomial`.  Symbols are only ever appended to the registry, so
each packed key decodes to its `Monomial` once per process; a decode
visits only the key's set fields, found from the lowest set bit, and the
terms then sort on `Monomial.sort_key`, one flat tuple.  The denominator
profile takes one lcm per order and strips it by gcd with n.
Packed coefficients are the ints and Fractions that exact arithmetic
returns; they are never rewritten.  All packed arithmetic goes through one
fused multiply-accumulate kernel, `_pmul_into` (acc += d1 * d2), which
builds no product dict and keeps no zero coefficient.

The inverse and the division series are fixed points s = s_1 x - sum of
c x^i s^j, solved one degree at a time from cached powers of the partial
solution (online multiplication, `_Powers` and `_dot`).  The inverse solves
F(u, g) = 0 and division A(B(u)) = u, in ints.  The n-fold sums
[k](u) = F(u, [k-1](u)) are read off the same cached powers, one degree at
a time.  Series products, `series_apply` and `compose` are the independent
route, which the solves never take: the inverse's own check composes the
law with it, and `selftest`'s round trips go through `series_apply`, which
makes each argument power only to the degree its terms read.

A coefficient of degree k, once solved, does not change with the order
asked, so each law (`FglMode`) keeps its series work for the life of the
process.  The inverse keeps its solve (the coefficients, their `_Powers`
and the highest order whose check has passed): an order above that one
extends the solve degree by degree and composes the law with the result;
any other order is a truncation of a series that passed the check at a
higher order.  The associativity residues of the highest order asked are
kept, and a lower order reads those of total degree <= order.  Each [k](u)
keeps one `_Powers`, read by the next n-fold step and by division by k,
whose round trip still runs on every call.  Nothing kept is freed: for the
universal law the inverse at order 16 holds about 0.4 MB more than its
series, the residues at order 16 about 2.6 MB, and the tables of [1](u) to
[9](u) at order 16 about 5.6 MB.  A decoded Monomial also keeps the JSON
names dict of its first export (`Monomial.json_names`): about 0.47 MB for
the 2,621 monomials of the universal residues at order 16, and about
0.62 MB for the ~3,450 of a benchmark `series` pass.

A series product visits only the pairs of terms inside the truncation: the
right factor's terms are held sorted by total degree, and the scan stops at
the first one that overflows.  A monomial factor (one term whose
coefficient is the packed 1, such as u^i) shifts the other factor's
exponents instead of multiplying.  Every law is commutative, so each power
F(u, v)^x is symmetric: the associativity residues compute its
coefficients only at u^a v^b with a <= b and mirror the rest.  They stop
each power with x >= 2 one degree below the order, since no residue reads
its top degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, itemgetter
from typing import Iterable, Mapping

from .algebra import (
    CoeffRing,
    Coeff,
    Immutable,
    Monomial,
    Polynomial,
    VarSymbol,
    ZZ,
    poly_to_json,
)

MAX_ORDER = 32

VAR_CANON = ("u", "v")

BETA = VarSymbol("beta")


class NonzeroConstantTerm(ValueError):
    """Raised when a series that must vanish at the origin does not."""


class AliasedAccumulator(ValueError):
    """Raised when a multiply-accumulate would write into its own factor."""


# packed coefficient polynomials ------------------------------------------

_FIELD_BITS = 6
_FIELD_MAX = (1 << _FIELD_BITS) - 1

# The registry only appends, so a key's meaning never changes: decoded keys
# are kept for the life of the process, like VarSymbol's interning table, in
# a dict, which `_unpack_poly`'s decode loop reads through a bound `.get`.
_pos: dict[VarSymbol, int] = {}
_syms: list[VarSymbol] = []
_decoded: dict[int, Monomial] = {}

Packed = dict  # packed-key -> Coeff


def _register(sym: VarSymbol) -> int:
    pos = _pos.get(sym)
    if pos is None:
        pos = len(_syms)
        _pos[sym] = pos
        _syms.append(sym)
    return pos


def _pack_symbol(sym: VarSymbol, exp: int = 1) -> int:
    if exp > _FIELD_MAX:
        raise OverflowError(f"exponent {exp} exceeds packed field")
    return exp << (_FIELD_BITS * _register(sym))


def _unpack(key: int) -> Monomial:
    mono = _decoded.get(key)
    if mono is None:
        # visit only the set fields, each found from the lowest set bit left
        pairs = []
        rest = key
        while rest:
            pos = ((rest & -rest).bit_length() - 1) // _FIELD_BITS
            shift = _FIELD_BITS * pos
            e = (rest >> shift) & _FIELD_MAX
            pairs.append((_syms[pos], e))
            rest ^= e << shift
        pairs.sort(key=lambda p: p[0].sort_key)
        mono = _decoded[key] = Monomial._raw(tuple(pairs))
    return mono


def _unpack_poly(d: Packed, ring: CoeffRing) -> Polynomial:
    # Distinct keys decode to distinct monomials and packed dicts hold no
    # zeros, so only the ring's admission rule is left to run, and an int
    # passes it.  A Monomial is never false, so `or` decodes only a miss.
    decoded = _decoded.get
    check = ring.check_coeff
    return Polynomial._raw(ring, {decoded(k) or _unpack(k): c if type(c) is int else check(c)
                                  for k, c in d.items()})


def _pmul_into(acc: Packed, d1: Packed, d2: Packed) -> None:
    """acc += d1 * d2, term by term, with no product dict in between; a sum
    that cancels to zero leaves acc, so packed dicts hold no zeros."""
    if acc is d1 or acc is d2:
        raise AliasedAccumulator("the accumulator is one of the factors")
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    get = acc.get
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s == 0:
                acc.pop(k, None)
            else:
                acc[k] = s


def _nonzero(coeffs: dict) -> dict:
    """The entries of an exponent -> accumulator dict that did not cancel."""
    return {e: d for e, d in coeffs.items() if d}


def _product(left: dict, right: dict, order: int, mirror: bool = False) -> dict:
    """The exponent -> packed coefficient dict of left * right modulo total
    degree > order, with no empty coefficient.

    Only pairs inside the truncation are visited: right's terms are scanned
    by total degree up to the first that overflows.  A factor that is a
    monomial, one term with the packed coefficient 1, shifts the other's
    exponents; the shifted coefficients are copies.  With `mirror`, both
    factors are two-variable series symmetric under u <-> v: only exponents
    (a, b) with a <= b are computed, and (b, a) shares their coefficient.
    """
    for mono, rest in ((left, right), (right, left)):
        if len(mono) == 1:
            (shift, d), = mono.items()
            if d == {0: 1}:
                room = order - sum(shift)
                return {tuple(map(add, e, shift)): dict(c)
                        for e, c in rest.items() if c and sum(e) <= room}
    by_degree = sorted(((sum(e), e, d) for e, d in right.items()), key=itemgetter(0))
    out: dict = {}
    for e1, d1 in left.items():
        room = order - sum(e1)
        for deg2, e2, d2 in by_degree:
            if deg2 > room:
                break
            e = tuple(map(add, e1, e2))
            if mirror and e[0] > e[1]:
                continue
            _pmul_into(out.setdefault(e, {}), d1, d2)
    out = _nonzero(out)
    if mirror:
        out.update([((b, a), d) for (a, b), d in out.items() if a < b])
    return out


# law modes -----------------------------------------------------------------


class FglMode(Immutable):
    """Which group law the series ops should expand.

    kind is one of "universal", "additive", "multiplicative", "custom".
    For multiplicative, the free symbol beta is the coefficient of the uv
    cross term.  For custom, table lists the nonzero coefficients of u^i v^j
    as ((i, j), c) with 1 <= i <= j, keys strictly increasing; no other
    kind takes a table.  The constructor raises ValueError for any other
    kind, table, key order or a zero coefficient, so one law has one table,
    and TypeError for a key index or coefficient that is not an int, as
    `custom_mode` admits none.  It checks before it looks up: a mode is
    interned, one object per law like `VarSymbol`, and 1.0 or True would
    find the int law.  So the identity `__eq__` and `__hash__` hold, and a
    law built afresh meets the series work its first object kept.
    """

    __slots__ = ("kind", "table", "_lookup")
    _cache: dict[tuple[str, tuple], "FglMode"] = {}

    def __new__(cls, kind: str, table: tuple = ()) -> "FglMode":
        if kind not in ("universal", "additive", "multiplicative", "custom"):
            raise ValueError(f"unknown group law kind {kind!r}")
        if table and kind != "custom":
            raise ValueError(f"a {kind} law takes no table")
        for n, ((i, j), c) in enumerate(table):
            if not 1 <= i <= j:
                raise ValueError(f"custom table key {(i, j)} is not 1 <= i <= j")
            if n and table[n - 1][0] >= (i, j):
                raise ValueError(f"custom table keys are not strictly increasing at {(i, j)}")
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"custom table key {(i, j)} is not a pair of ints")
            if type(c) is not int:
                raise TypeError(f"custom table coefficient at {(i, j)} is not an int: {c!r}")
            if c == 0:
                raise ValueError(f"custom table coefficient at {(i, j)} is zero")
        cached = cls._cache.get((kind, table))
        if cached is None:
            cached = object.__new__(cls)
            object.__setattr__(cached, "kind", kind)
            object.__setattr__(cached, "table", table)
            object.__setattr__(cached, "_lookup", dict(table))
            cls._cache[kind, table] = cached
        return cached

    def __repr__(self) -> str:
        return f"FglMode(kind={self.kind!r}, table={self.table!r})"

    def coefficient(self, i: int, j: int) -> "Packed":
        """Packed coefficient of u^i v^j, for i, j >= 1."""
        if self.kind == "universal":
            return {_pack_symbol(VarSymbol("a", (min(i, j), max(i, j)))): 1}
        if self.kind == "additive":
            return {}
        if self.kind == "multiplicative":
            return {_pack_symbol(BETA): 1} if i == j == 1 else {}
        got = self._lookup.get((min(i, j), max(i, j)), 0)
        return {0: got} if got != 0 else {}


def universal_mode() -> FglMode:
    return FglMode("universal")


def additive_mode() -> FglMode:
    return FglMode("additive")


def multiplicative_mode() -> FglMode:
    return FglMode("multiplicative")


def custom_mode(table: Mapping[tuple[int, int], Coeff]) -> FglMode:
    """A law with integer coefficients: the table entries pass ZZ's
    admission rule, so a float raises TypeError and a proper Fraction
    raises IncompatibleRings, and an integral Fraction becomes an int.  A
    zero entry gives no coefficient, so it is dropped."""
    entries = {}
    for (i, j), c in table.items():
        c = int(ZZ.check_coeff(c))
        key = (min(i, j), max(i, j))
        if key in entries and entries[key] != c:
            raise ValueError(f"asymmetric custom table at {key}")
        entries[key] = c
    return FglMode("custom", table=tuple(sorted((k, c) for k, c in entries.items() if c)))


MODE_NAMES = {
    "universal": universal_mode,
    "additive": additive_mode,
    "multiplicative": multiplicative_mode,
}


# truncated series ----------------------------------------------------------


def _canon_vars(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    for n in names:
        if n not in VAR_CANON:
            raise ValueError(f"unknown series variable {n!r}")
    return tuple(v for v in VAR_CANON if v in names)


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")


class TruncatedSeries(Immutable):
    """A series in u, v or both, exact modulo total degree > order."""

    __slots__ = ("vars", "order", "ring", "_coeffs")

    def __init__(self, vars: tuple[str, ...], order: int, ring: CoeffRing, coeffs: dict):
        _check_order(order)
        object.__setattr__(self, "vars", _canon_vars(vars))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def variable(cls, name: str, vars: Iterable[str], order: int, ring: CoeffRing = ZZ) -> "TruncatedSeries":
        vars = _canon_vars(vars)
        exp = tuple(1 if v == name else 0 for v in vars)
        if sum(exp) != 1:
            raise ValueError(f"{name!r} is not among {vars}")
        return cls(vars, order, ring, {exp: {0: 1}})

    def coefficient(self, exp: tuple[int, ...]) -> Polynomial:
        return _unpack_poly(self._coeffs.get(tuple(exp), {}), self.ring)

    def coefficients(self) -> list[tuple[tuple[int, ...], Polynomial]]:
        return [(exp, _unpack_poly(self._coeffs[exp], self.ring))
                for exp in sorted(self._coeffs, key=lambda e: (sum(e), e))]

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The truncated product: only pairs of terms inside the truncation
        are visited, and a monomial factor shifts the other (`_product`)."""
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("series shapes differ")
        ring = self.ring.join(other.ring)
        return TruncatedSeries(self.vars, self.order, ring,
                               _product(self._coeffs, other._coeffs, self.order))

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.vars}, order={self.order})"


def series_apply(outer: TruncatedSeries, args: list[TruncatedSeries]) -> TruncatedSeries:
    """Substitute one series per outer variable; every arg must vanish at 0.

    All args must share variables, order, and a joinable ring; the outer
    order must not be below the target order.
    """
    if len(args) != len(outer.vars):
        raise ValueError("one argument series per outer variable")
    vars = args[0].vars
    order = args[0].order
    ring = outer.ring
    for s in args:
        if s.vars != vars or s.order != order:
            raise ValueError("argument series shapes differ")
        ring = ring.join(s.ring)
        if s._coeffs.get((0,) * len(vars)):
            raise NonzeroConstantTerm("substituted series has a constant term")
    if outer.order < order:
        raise ValueError("outer series is not known to the target order")

    # args vanish at 0, so in a term of total exponent s the power args[t]^e
    # is read only to degree order - (s - e), and args[t]^(e - 1), of which
    # it is made, to one less
    terms = [(exp, outer._coeffs[exp]) for exp in sorted(outer._coeffs, key=sum)
             if sum(exp) <= order]
    pows = []  # pows[t][e] = args[t]^e to degree cuts[e]
    for t, arg in enumerate(args):
        cuts = [0] * (order + 2)
        for exp, _ in terms:
            if exp[t]:
                cuts[exp[t]] = max(cuts[exp[t]], order - sum(exp) + exp[t])
        for e in range(order, 0, -1):
            cuts[e] = max(cuts[e], cuts[e + 1] - 1)
        held = [None, arg._coeffs]
        for e in range(2, order + 1):
            if not cuts[e]:
                break
            held.append(_product(held[-1], arg._coeffs, cuts[e]))
        pows.append(held)

    origin = (0,) * len(vars)
    total: dict = {}
    for exp, coeff in terms:
        prod = None
        for t, e in enumerate(exp):
            if e:
                prod = pows[t][e] if prod is None else _product(prod, pows[t][e], order)
        for e_out, d in (prod.items() if prod is not None else [(origin, {0: 1})]):
            _pmul_into(total.setdefault(e_out, {}), coeff, d)
    return TruncatedSeries(vars, order, ring, _nonzero(total))


def compose(outer: TruncatedSeries, var: str, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute `inner` for one variable of `outer`; each other variable of
    `outer` must be one of `inner`'s, and stays itself."""
    if var not in outer.vars:
        raise ValueError(f"{var!r} is not a variable of the outer series")
    ring = outer.ring.join(inner.ring)
    return series_apply(outer, [
        inner if v == var else TruncatedSeries.variable(v, inner.vars, outer.order, ring)
        for v in outer.vars])


# the laws themselves --------------------------------------------------------


def law_series(mode: FglMode, order: int) -> TruncatedSeries:
    """The group law F(u, v) itself, truncated at total degree `order`."""
    coeffs: dict = {(1, 0): {0: 1}, (0, 1): {0: 1}}
    for i in range(1, order):
        for j in range(1, order - i + 1):
            d = mode.coefficient(i, j)
            if d:
                coeffs[(i, j)] = d
    return TruncatedSeries(("u", "v"), order, ZZ, coeffs)


class _Powers(dict):
    """[x^m] s^j keyed (j, m), for s = s[1] x + s[2] x^2 + ... held in a list
    that may grow one degree at a time: entry (j, m) with j >= 2 reads s_t
    only for t <= m - j + 1.  Each entry is computed once, as the sum over t
    of s_t * [x^(m-t)] s^(j-1)."""

    def __init__(self, s: list):
        self.s = s

    def __missing__(self, key: tuple[int, int]) -> Packed:
        j, m = key
        if j == 1:
            return self.s[m]
        got = self[key] = {}
        for t in range(1, m - j + 2):
            _pmul_into(got, self.s[t], self[j - 1, m - t])
        return got


def _dot(terms: list, powers: _Powers, k: int) -> Packed:
    """[x^k] of the sum of c x^i s^j over (i, j, c) in terms."""
    acc: Packed = {}
    for i, j, c in terms:
        if i + j <= k:
            _pmul_into(acc, c, powers[j, k - i])
    return acc


def _fixed_point(powers: _Powers, terms: list, order: int) -> list:
    """powers.s extended to s[0..order], for s = s_1 x - sum of c x^i s^j,
    solved degree by degree from the first degree it lacks: each term has
    i + j >= 2, so [x^k] of the sum reads s_t, t < k.  The terms must hold
    every (i, j) with i + j <= order."""
    s = powers.s
    for k in range(len(s), order + 1):
        s.append({key: -c for key, c in _dot(terms, powers, k).items()})
    return s


# law -> (powers of its inverse's partial solution, the highest order whose
# check has passed), a dict that a higher order extends in place
_inverse_solves: dict[FglMode, tuple[_Powers, int]] = {}


@lru_cache(maxsize=None)
def inverse_series(mode: FglMode, order: int) -> TruncatedSeries:
    """The series g with F(u, g(u)) = 0, solved from g = -u - sum over
    i, j >= 1 of c_ij u^i g^j and checked by composing the law with it.

    The solve is kept per law: an order above every order checked so far
    extends it and composes the law with the result; any other order is a
    truncation of a series that has passed that check at a higher order.

    The lru_cache adds nothing to that (a benchmark `series` pass reads it
    0 hits to 9 misses); it stays for the tracer's `fgl.cache.*` counters,
    which read its `cache_info()`, as tests/test_tracing_hooks.py pins."""
    powers, checked = _inverse_solves.get(mode) or (_Powers([{}, {0: -1}]), 0)
    if order > checked:
        law = law_series(mode, order)
        _fixed_point(powers, [(i, j, c) for (i, j), c in law._coeffs.items() if i and j], order)
    result = TruncatedSeries(("u",), order, ZZ,
                             {(k,): d for k, d in enumerate(powers.s[:order + 1]) if d})
    if order > checked:
        if not compose(law, "v", result).is_zero():
            raise ArithmeticError("inverse series failed to cancel the law")
        _inverse_solves[mode] = powers, order
    return result


def f_minus(mode: FglMode, order: int) -> TruncatedSeries:
    """F(u, g(v)): the formal difference of the two variables."""
    gamma_v = TruncatedSeries(("u", "v"), order, ZZ, {
        (0, k): d for (k,), d in inverse_series(mode, order)._coeffs.items()})
    return compose(law_series(mode, order), "v", gamma_v)


@lru_cache(maxsize=None)
def _n_fold_sums(mode: FglMode, order: int) -> list[tuple[TruncatedSeries, _Powers]]:
    """[1](u), [2](u), ... as far as n_fold_sum has extended the list, each
    with the one table of its powers, which the next n-fold step and
    division by its k both read."""
    u = TruncatedSeries.variable("u", ("u",), order)
    return [(u, _Powers([{} if m != 1 else {0: 1} for m in range(order + 1)]))]


def n_fold_sum(mode: FglMode, n: int, order: int) -> TruncatedSeries:
    """u added to itself n times under the law, bracketed as F(u, F(u, ...)):
    the law need not be associative, so [k](u) = F(u, [k-1](u)), in a loop.
    With s = [k-1](u), [u^m] F(u, s) is [m = 1] plus the sum over the law's
    c_ij u^i v^j with j >= 1 of c_ij [u^(m-i)] s^j, read from cached powers
    of s: no series product and no compose."""
    if n < 1:
        raise ValueError("n must be positive")
    sums = _n_fold_sums(mode, order)
    if len(sums) < n:
        terms = [(i, j, c) for (i, j), c in law_series(mode, order)._coeffs.items() if j]
    while len(sums) < n:
        powers = sums[-1][1]
        s = [{}] + [_dot(terms, powers, m) for m in range(1, order + 1)]
        _pmul_into(s[1], {0: 1}, {0: 1})  # the u of F(u, v)
        sums.append((TruncatedSeries(("u",), order, ZZ, {(m,): d for m, d in enumerate(s) if d}),
                     _Powers(s)))
    return sums[n - 1][0]


def division_series(n: int, mode: FglMode, order: int) -> TruncatedSeries:
    """The series B over Z[1/n] with A(B(u)) = u, for A = [n](u) = sum a_j u^j.

    B(u) = n beta(u/n^2) turns A(B(u)) = u into the integral recursion
    beta = w - sum over j >= 2 of n^(j-2) a_j beta^j, solved in ints, so
    b_i = beta_i / n^(2i-1) has a denominator dividing n^(2i-1).  The check
    is the other direction, B(A(u)) = u times n^(2K-1) with K = order:
    sum of n^(2(K-i)) beta_i A^i = n^(2K-1) u, also in ints.
    """
    if n < 2:
        raise ValueError("division needs n >= 2")
    n_fold_sum(mode, n, order)
    a_powers = _n_fold_sums(mode, order)[n - 1][1]
    a = a_powers.s
    terms = [(0, j, _scaled(a[j], n ** (j - 2))) for j in range(2, order + 1)]
    beta = _fixed_point(_Powers([{}, {0: 1}]), terms, order)
    back = [(0, i, _scaled(beta[i], n ** (2 * (order - i)))) for i in range(1, order + 1)]
    for m in range(1, order + 1):
        if _dot(back, a_powers, m) != ({0: n ** (2 * order - 1)} if m == 1 else {}):
            raise ArithmeticError("division series failed the return round trip")
    coeffs = {}
    for i, d in enumerate(beta):
        if d:
            den = n ** (2 * i - 1)
            coeffs[(i,)] = {key: Fraction(c, den) for key, c in d.items()}
    return TruncatedSeries(("u",), order, CoeffRing([n]), coeffs)


def _scaled(d: Packed, factor: int) -> Packed:
    return {key: c * factor for key, c in d.items()}


# law -> (the highest order its residues were asked at, those residues)
_residues: dict[FglMode, tuple[int, dict[tuple[int, int, int], Polynomial]]] = {}


def associativity_relations(mode: FglMode, order: int) -> dict[tuple[int, int, int], Polynomial]:
    """Nonzero coefficients of F(F(u,v),w) - F(u,F(v,w)) up to total degree
    `order`, keyed by the exponent (a, b, k) of u^a v^b w^k in (sum(e), e)
    order, as a fresh dict.

    A residue does not depend on the order it is asked at, so the residues
    of the highest order asked are kept per law, and a lower order reads
    those of total degree <= order from them.

    With P = F(u, v) and the law's c_xy (c_10 = c_01 = 1), F(P, w) is the
    sum of c_xy P^x w^y and F(u, F(v, w)) the sum of c_xy u^x Q^y, where
    Q^y is P^y with (u, v) renamed (v, w); so one list of powers of P gives
    both sides, with no three-variable product.  The law is commutative, so
    each P^x is symmetric in u and v: its coefficients are computed only at
    u^a v^b with a <= b and mirrored, and for x >= 2 only below total degree
    `order`, the most a residue reads.  Both sides of every residue are still
    summed, so the residues' antisymmetry under u <-> w is a check on this
    loop, not a consequence of it.
    """
    _check_order(order)
    top, rels = _residues.get(mode, (0, {}))
    if order > top:
        law = law_series(mode, order)
        # the law has no u^x or v^x term with x >= 2, so each such P^x is read
        # only times a positive power of w (or of u)
        powers = [{(0, 0): {0: 1}}, law._coeffs]
        while len(powers) <= order:
            powers.append(_product(powers[-1], law._coeffs, order - 1, mirror=True))
        total: dict = {}
        for (x, y), c in law._coeffs.items():
            minus_c = {key: -v for key, v in c.items()}
            for (a, b), d in powers[x].items():  # c_xy P^x w^y
                if a + b + y <= order:
                    _pmul_into(total.setdefault((a, b, y), {}), c, d)
            for (b, k), d in powers[y].items():  # c_xy u^x Q^y
                if x + b + k <= order:
                    _pmul_into(total.setdefault((x, b, k), {}), minus_c, d)
        rels = {e: _unpack_poly(total[e], law.ring)
                for e in sorted(total, key=lambda e: (sum(e), e)) if total[e]}
        _residues[mode] = order, rels
    return {e: poly for e, poly in rels.items() if sum(e) <= order}


def eval_dim_truncated(series: TruncatedSeries, syms, dim: int) -> Polynomial:
    """Evaluate the series at first-degree symbols, one per variable (a single
    VarSymbol for a one-variable series), on a space of the given dimension:
    any product of total degree above `dim` is killed.

    Kept terms accumulate in one packed dict, decoded once.  A symbol that
    also occurs in the coefficients stays inside its 6-bit field: its power
    here is at most the order and its exponent in a coefficient is below
    it, so their sum is below 2 * MAX_ORDER."""
    syms = [syms] if isinstance(syms, VarSymbol) else list(syms)
    if len(syms) != len(series.vars):
        raise ValueError("need one symbol per series variable")
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    total: Packed = {}
    for exp, d in series._coeffs.items():
        if sum(exp) <= dim:
            _pmul_into(total, d, {sum(map(_pack_symbol, syms, exp)): 1})
    return _unpack_poly(total, series.ring)


def denominator_profile(series: TruncatedSeries) -> list[tuple[int, int]]:
    """For each order i, the least k with n^k times the coefficient integral.

    Only meaningful for one-variable series over a ring inverting a single
    integer n (as produced by division_series).
    """
    if len(series.vars) != 1:
        raise ValueError("profile applies to one-variable series")
    inv = sorted(series.ring.inverted)
    if len(inv) != 1:
        raise ValueError("profile needs a ring inverting exactly one integer")
    n = inv[0]
    out = []
    for (i,), d in sorted(series._coeffs.items()):
        # n^k clears every denominator exactly when it clears their lcm
        den = lcm(*[c.denominator for c in d.values()])
        k = 0
        while den > 1:
            g = gcd(den, n)
            if g == 1:
                raise ArithmeticError(f"denominator {den} is foreign to 1/{n}")
            den //= g
            k += 1
        out.append((i, k))
    return out


def series_to_json(series: TruncatedSeries) -> dict:
    return {
        "vars": list(series.vars),
        "order": series.order,
        "coeffs": [
            {"exp": list(exp), "poly": poly_to_json(poly)}
            for exp, poly in series.coefficients()
        ],
    }
