"""Truncated formal group law arithmetic, exact over the free coefficient ring.

A law is a two-variable series u + v + sum of c_ij u^i v^j with c_ij = c_ji.
In universal mode the c_ij are free symbols a[i][j] (stored with i <= j); the
additive and multiplicative modes specialize them.  Everything is computed
modulo total degree > order, with series coefficients held as polynomials in
the c_ij alphabet.

Internally coefficient polynomials are dicts keyed by a packed integer: each
registered symbol owns a 6-bit exponent field.  Monomial multiplication is
then integer addition, which is what makes order-10 n-fold sums and division
round trips cheap.  Exponents never overflow their fields because a
coefficient of u^k has total symbol degree below k, and orders are capped
well under the field size.  Packed keys never leave this module; public
surfaces speak `algebra.Polynomial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Union

from .algebra import (
    CoeffRing,
    Coeff,
    Monomial,
    Polynomial,
    VarSymbol,
    ZZ,
    _normalize_coeff,
    poly_to_json,
)

MAX_ORDER = 32

VAR_CANON = ("u", "v", "w")

BETA = VarSymbol("beta")


class NonzeroConstantTerm(ValueError):
    """Raised when a series that must vanish at the origin does not."""


# packed coefficient polynomials ------------------------------------------

_FIELD_BITS = 6
_FIELD_MAX = (1 << _FIELD_BITS) - 1

_pos: dict[VarSymbol, int] = {}
_syms: list[VarSymbol] = []

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
    pairs = []
    pos = 0
    while key:
        e = key & _FIELD_MAX
        if e:
            pairs.append((_syms[pos], e))
        key >>= _FIELD_BITS
        pos += 1
    return Monomial(pairs)


def _unpack_poly(d: Packed, ring: CoeffRing) -> Polynomial:
    return Polynomial(ring, ((_unpack(k), c) for k, c in d.items()))


def _padd_into(acc: Packed, d: Packed) -> None:
    for k, c in d.items():
        s = _normalize_coeff(acc.get(k, 0) + c)
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s


def _pscale(d: Packed, c: Coeff) -> Packed:
    if c == 0:
        return {}
    if c == 1:
        return d
    return {k: _normalize_coeff(v * c) for k, v in d.items()}


def _pmul(d1: Packed, d2: Packed) -> Packed:
    if not d1 or not d2:
        return {}
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    out: Packed = {}
    get = out.get
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    for k, c in list(out.items()):
        n = _normalize_coeff(c)
        if n is not c:
            out[k] = n
    return out


# law modes -----------------------------------------------------------------


@dataclass(frozen=True)
class FglMode:
    """Which group law the series ops should expand.

    kind is one of "universal", "additive", "multiplicative", "custom".
    For multiplicative, beta is the coefficient of the uv cross term (a free
    symbol by default).  For custom, table maps (i, j) with i <= j to the
    numeric coefficient of u^i v^j.
    """

    kind: str
    beta: Union[int, Fraction, None] = None
    table: tuple = ()

    def coefficient(self, i: int, j: int) -> "Packed":
        """Packed coefficient of u^i v^j, for i, j >= 1."""
        if self.kind == "universal":
            return {_pack_symbol(VarSymbol("a", (min(i, j), max(i, j)))): 1}
        if self.kind == "additive":
            return {}
        if self.kind == "multiplicative":
            if i == j == 1:
                if self.beta is None:
                    return {_pack_symbol(BETA): 1}
                return {0: self.beta} if self.beta != 0 else {}
            return {}
        got = dict(self.table).get((min(i, j), max(i, j)), 0)
        return {0: _normalize_coeff(got)} if got != 0 else {}


def universal_mode() -> FglMode:
    return FglMode("universal")


def additive_mode() -> FglMode:
    return FglMode("additive")


def multiplicative_mode(beta: Union[int, Fraction, None] = None) -> FglMode:
    return FglMode("multiplicative", beta=beta)


def custom_mode(table: Mapping[tuple[int, int], Coeff]) -> FglMode:
    entries = {}
    for (i, j), c in table.items():
        if i < 1 or j < 1:
            raise ValueError("custom table indexes start at (1, 1)")
        key = (min(i, j), max(i, j))
        if key in entries and entries[key] != c:
            raise ValueError(f"asymmetric custom table at {key}")
        entries[key] = _normalize_coeff(c)
    return FglMode("custom", table=tuple(sorted(entries.items())))


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


class TruncatedSeries:
    """A series in up to three variables, exact modulo total degree > order."""

    __slots__ = ("vars", "order", "ring", "_coeffs")

    def __init__(self, vars: tuple[str, ...], order: int, ring: CoeffRing, coeffs: dict):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}")
        object.__setattr__(self, "vars", _canon_vars(vars))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, vars: Iterable[str], order: int, ring: CoeffRing = ZZ) -> "TruncatedSeries":
        return cls(tuple(vars), order, ring, {})

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
        out = []
        for exp in sorted(self._coeffs, key=lambda e: (sum(e), e)):
            out.append((exp, _unpack_poly(self._coeffs[exp], self.ring)))
        return out

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

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def _compat(self, other: "TruncatedSeries") -> CoeffRing:
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("series shapes differ")
        return self.ring.join(other.ring)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._compat(other)
        out = {e: dict(d) for e, d in self._coeffs.items()}
        for e, d in other._coeffs.items():
            acc = out.setdefault(e, {})
            _padd_into(acc, d)
            if not acc:
                del out[e]
        return TruncatedSeries(self.vars, self.order, ring, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.vars, self.order, self.ring,
            {e: {k: -c for k, c in d.items()} for e, d in self._coeffs.items()},
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._compat(other)
        order = self.order
        out: dict = {}
        for e1, d1 in self._coeffs.items():
            deg1 = sum(e1)
            for e2, d2 in other._coeffs.items():
                if deg1 + sum(e2) > order:
                    continue
                prod = _pmul(d1, d2)
                if not prod:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.setdefault(e, {})
                _padd_into(acc, prod)
                if not acc:
                    del out[e]
        return TruncatedSeries(self.vars, self.order, ring, out)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(
            self.vars, order, self.ring,
            {e: dict(d) for e, d in self._coeffs.items() if sum(e) <= order},
        )

    def lift(self, vars: Iterable[str]) -> "TruncatedSeries":
        """Reinterpret over a larger variable set."""
        vars = _canon_vars(vars)
        if not set(self.vars) <= set(vars):
            raise ValueError("lift target must contain current variables")
        slot = {v: vars.index(v) for v in self.vars}
        out = {}
        for e, d in self._coeffs.items():
            ne = [0] * len(vars)
            for v, x in zip(self.vars, e):
                ne[slot[v]] = x
            out[tuple(ne)] = dict(d)
        return TruncatedSeries(vars, self.order, self.ring, out)

    def rename_variable(self, old: str, new: str) -> "TruncatedSeries":
        if old not in self.vars:
            raise ValueError(f"{old!r} not present")
        names = [new if v == old else v for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("rename collides with an existing variable")
        reorder = sorted(range(len(names)), key=lambda i: VAR_CANON.index(names[i]))
        out = {tuple(e[i] for i in reorder): dict(d) for e, d in self._coeffs.items()}
        return TruncatedSeries(tuple(sorted(names, key=VAR_CANON.index)), self.order, self.ring, out)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        bits = []
        for exp, poly in self.coefficients():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e
            )
            body = str(poly)
            if len(poly.terms) > 1 or (body.startswith("-") and mono):
                body = f"({body})"
            bits.append(f"{body}*{mono}" if mono else body)
        return " + ".join(bits) + f" + O(deg {self.order + 1})"

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

    one = TruncatedSeries(vars, order, ring, {(0,) * len(vars): {0: 1}})
    pows: list[list[TruncatedSeries]] = [[one, s] for s in args]

    def power(t: int, e: int) -> TruncatedSeries:
        cache = pows[t]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    total: dict = {}
    for exp in sorted(outer._coeffs, key=sum):
        if sum(exp) > order:
            continue  # args vanish at 0, so this contributes nothing
        coeff = outer._coeffs[exp]
        prod = one
        for t, e in enumerate(exp):
            if e:
                prod = prod * power(t, e)
        for e_out, d in prod._coeffs.items():
            piece = _pmul(coeff, d)
            if not piece:
                continue
            acc = total.setdefault(e_out, {})
            _padd_into(acc, piece)
            if not acc:
                del total[e_out]
    return TruncatedSeries(vars, order, ring, total)


def compose(outer: TruncatedSeries, var: str, inner: TruncatedSeries) -> TruncatedSeries:
    """Substitute `inner` for one variable of `outer`, keeping the others."""
    if var not in outer.vars:
        raise ValueError(f"{var!r} is not a variable of the outer series")
    target = _canon_vars(set(outer.vars) - {var} | set(inner.vars))
    ring = outer.ring.join(inner.ring)
    args = []
    for v in outer.vars:
        if v == var:
            args.append(inner.lift(target))
        else:
            args.append(TruncatedSeries.variable(v, target, outer.order, ring))
    return series_apply(outer, args)


# the laws themselves --------------------------------------------------------


def law_series(mode: FglMode, order: int, vars: tuple[str, str] = ("u", "v")) -> TruncatedSeries:
    """The group law F(u, v) itself, truncated at total degree `order`."""
    vars = _canon_vars(vars)
    if len(vars) != 2:
        raise ValueError("a law takes exactly two variables")
    coeffs: dict = {(1, 0): {0: 1}, (0, 1): {0: 1}}
    for i in range(1, order):
        for j in range(1, order - i + 1):
            d = mode.coefficient(i, j)
            if d:
                coeffs[(i, j)] = d
    return TruncatedSeries(vars, order, ZZ, coeffs)


@lru_cache(maxsize=None)
def inverse_series(mode: FglMode, order: int) -> TruncatedSeries:
    """The series g with F(u, g(u)) = 0, solved degree by degree."""
    law = law_series(mode, order)
    gamma: dict = {(1,): {0: -1}}
    for k in range(2, order + 1):
        partial = TruncatedSeries(("u",), k, ZZ, {e: d for e, d in gamma.items() if e[0] <= k})
        residue = compose(law.truncate(k), "v", partial)
        top = residue._coeffs.get((k,))
        if top:
            gamma[(k,)] = {key: -c for key, c in top.items()}
    result = TruncatedSeries(("u",), order, ZZ, gamma)
    check = compose(law, "v", result)
    if not check.is_zero():
        raise ArithmeticError("inverse series failed to cancel the law")
    return result


def f_minus(mode: FglMode, order: int) -> TruncatedSeries:
    """F(u, g(v)): the formal difference of the two variables."""
    gamma_v = inverse_series(mode, order).rename_variable("u", "v")
    return compose(law_series(mode, order), "v", gamma_v)


@lru_cache(maxsize=None)
def n_fold_sum(mode: FglMode, n: int, order: int) -> TruncatedSeries:
    """u added to itself n times under the law, bracketed as F(u, F(u, ...))."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return TruncatedSeries.variable("u", ("u",), order)
    inner = n_fold_sum(mode, n - 1, order)
    return compose(law_series(mode, order), "v", inner)


def division_series(n: int, mode: FglMode, order: int) -> TruncatedSeries:
    """The series B over Z[1/n] with B(nfold(u)) = u; checks nfold(B(u)) = u too."""
    if n < 2:
        raise ValueError("division needs n >= 2")
    a = n_fold_sum(mode, n, order)
    ring = CoeffRing([n])
    # triangular solve for b_i from sum_k b_k * A(u)^k = u
    apow = a
    apow_coeffs: list[dict] = [dict(a._coeffs)]  # A^1, A^2, ...
    b: dict[int, Packed] = {1: {0: Fraction(1, n)}}
    for i in range(2, order + 1):
        while len(apow_coeffs) < i:
            apow = apow * a
            apow_coeffs.append(dict(apow._coeffs))
        acc: Packed = {}
        for k in range(1, i):
            piece = apow_coeffs[k - 1].get((i,))
            if piece:
                _padd_into(acc, _pmul(b[k], piece))
        b[i] = _pscale({key: -c for key, c in acc.items()}, Fraction(1, n**i))
    series = TruncatedSeries(
        ("u",), order, ring, {(i,): d for i, d in b.items() if d}
    )
    back = series_apply(a, [series])
    if back != TruncatedSeries.variable("u", ("u",), order, ring):
        raise ArithmeticError("division series failed the return round trip")
    return series


def associativity_relations(mode: FglMode, order: int) -> dict[tuple[int, int, int], Polynomial]:
    """Nonzero coefficients of F(F(u,v),w) - F(u,F(v,w)), keyed by exponent."""
    law = law_series(mode, order)
    uvw = ("u", "v", "w")
    u3 = TruncatedSeries.variable("u", uvw, order)
    w3 = TruncatedSeries.variable("w", uvw, order)
    f_uv = law.lift(uvw)
    f_vw = law.rename_variable("v", "w").rename_variable("u", "v").lift(uvw)
    left = series_apply(law, [f_uv, w3])
    right = series_apply(law, [u3, f_vw])
    diff = left - right
    return {
        exp: poly
        for exp, poly in diff.coefficients()
    }


def eval_dim_truncated(series: TruncatedSeries, syms, dim: int) -> Polynomial:
    """Evaluate the series at first-degree symbols, one per variable, on a
    space of the given dimension: any product of total degree above `dim`
    is killed.

    Accepts a single VarSymbol for one-variable series or a sequence of
    them matching the series variables.
    """
    if isinstance(syms, VarSymbol):
        syms = [syms]
    syms = list(syms)
    if len(syms) != len(series.vars):
        raise ValueError("need one symbol per series variable")
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    total = Polynomial.zero(series.ring)
    for exp, d in series._coeffs.items():
        if sum(exp) > dim:
            continue
        piece = _unpack_poly(d, series.ring)
        for sym, k in zip(syms, exp):
            if k:
                piece = piece * Polynomial.variable(sym, series.ring) ** k
        total = total + piece
    return total


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
        worst = 0
        for c in d.values():
            den = Fraction(c).denominator
            k = 0
            while den > 1:
                g = gcd(den, n)
                if g == 1:
                    raise ArithmeticError(f"denominator {den} is foreign to 1/{n}")
                den //= g
                k += 1
            worst = max(worst, k)
        out.append((i, worst))
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
