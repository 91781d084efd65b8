"""Exact sparse multivariate polynomials over localized integer coefficient rings.

Everything downstream (series arithmetic, relation builders, verifier
sampling) reduces to the small kernel in this module: interned variable
symbols with a deterministic total order (`VarSymbol.sort_key`), immutable
monomials, and polynomials whose coefficients are ints or Fractions with
denominators controlled by the coefficient ring.  All arithmetic is exact;
nothing here ever rounds.  Coefficients are whatever exact arithmetic
returns, so an integral value may be held as an int or as a Fraction; the
two compare alike, so equal polynomials have equal term dicts.  Inexact
input (a float, a Decimal) raises TypeError where it comes in.
"""

from __future__ import annotations

import operator
# the C function json.encoder re-exports, taken from its own module so that
# writing JSON does not import the json package
from _json import encode_basestring_ascii as _json_str
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Union

Coeff = Union[int, Fraction]


class IncompatibleRings(ValueError):
    """Raised when two coefficient rings cannot be joined by containment."""


class UnboundVariable(KeyError):
    """Raised when evaluation meets a symbol with no assigned value."""


class Immutable:
    """Base of every dprkit value class: assigning an attribute raises.

    Constructors set their slots with `object.__setattr__`.  The empty
    `__slots__` keeps a slotted subclass free of a `__dict__`.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class CoeffRing(Immutable):
    """Z with a chosen set of inverted integers, e.g. Z[1/2, 1/3].

    Two rings are compatible only when one's inverted set contains the
    other's; the join is then the larger ring.  A denominator is admitted
    when it divides some power of the product of the inverted integers.  No
    prime's exponent in den reaches den.bit_length(), so one modular power
    decides it, with no factorization.
    """

    __slots__ = ("inverted",)
    _cache: dict[frozenset[int], "CoeffRing"] = {}

    def __new__(cls, inverted: Iterable[int] = ()) -> "CoeffRing":
        key = frozenset(operator.index(n) for n in inverted)
        for n in key:
            if n <= 1:
                raise ValueError(f"cannot invert {n}")
        cached = cls._cache.get(key)
        if cached is None:
            cached = object.__new__(cls)
            object.__setattr__(cached, "inverted", key)
            cls._cache[key] = cached
        return cached

    def __repr__(self) -> str:
        if not self.inverted:
            return "CoeffRing()"
        return f"CoeffRing({sorted(self.inverted)})"

    def contains(self, other: "CoeffRing") -> bool:
        return other.inverted <= self.inverted

    def join(self, other: "CoeffRing") -> "CoeffRing":
        if self.contains(other):
            return self
        if other.contains(self):
            return other
        raise IncompatibleRings(f"{self!r} and {other!r} are not nested")

    def admits_denominator(self, den: int) -> bool:
        den = abs(den)
        return pow(prod(self.inverted), den.bit_length(), den) == 0

    def check_coeff(self, c: Coeff) -> Coeff:
        """The one admission rule for outside coefficients.

        An int passes, and a Fraction passes when this ring inverts its
        denominator.  Any other integer (a bool, an object with __index__)
        comes back as a plain int; anything inexact raises TypeError.
        """
        if type(c) is int:
            return c
        if isinstance(c, Fraction):
            if not self.admits_denominator(c.denominator):
                raise IncompatibleRings(f"denominator {c.denominator} not invertible in {self!r}")
            return c
        return operator.index(c)


ZZ = CoeffRing()

# The relation alphabet needs X < Y < U < V while every other family sorts
# alphabetically after them; plain string comparison would put U before X.
_FAMILY_RANK = {"X": 0, "Y": 1, "U": 2, "V": 3}
_LATE_RANK = len(_FAMILY_RANK)


class VarSymbol(Immutable):
    """An interned variable: a family tag plus integer indices.

    Families are free-form strings; bracketed annotations that are not pure
    integers stay part of the family (``sigma1[A]`` is a family with no
    indices, ``U[1][3]`` is family ``U`` with indices (1, 3)).  Interning
    makes one object per name, so the default identity ``__eq__`` and
    ``__hash__`` are equality, and monomials share sort keys.
    """

    __slots__ = ("family", "indices", "sort_key", "_name")
    _cache: dict[tuple[str, tuple[int, ...]], "VarSymbol"] = {}

    def __new__(cls, family: str, indices: Iterable[int] = ()) -> "VarSymbol":
        idx = tuple(operator.index(i) for i in indices)
        cached = cls._cache.get((family, idx))
        if cached is None:
            if not family:
                raise ValueError("empty symbol family")
            cached = object.__new__(cls)
            object.__setattr__(cached, "family", family)
            object.__setattr__(cached, "indices", idx)
            object.__setattr__(
                cached, "sort_key", (_FAMILY_RANK.get(family, _LATE_RANK), family, idx)
            )
            object.__setattr__(cached, "_name", family + "".join(f"[{i}]" for i in idx))
            cls._cache[(family, idx)] = cached
        return cached

    def __repr__(self) -> str:
        return f"VarSymbol({str(self)!r})"

    def __str__(self) -> str:
        return self._name


class Monomial(Immutable):
    """An immutable product of symbol powers; exponents are positive ints.

    Sorted internally by symbol so equal monomials share one representation.
    The order on monomials is graded lexicographic: lower total degree
    first, and within a degree a higher power of an earlier symbol first.
    """

    # _key is the sort key, set by the first `sort_key` call only
    __slots__ = ("pairs", "degree", "_hash", "_key")

    def __init__(self, exponents: Mapping[VarSymbol, int] | Iterable[tuple[VarSymbol, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        pairs = []
        for sym, exp in items:
            exp = operator.index(exp)
            if exp == 0:
                continue
            if exp < 0:
                raise ValueError(f"negative exponent for {sym}")
            pairs.append((sym, exp))
        pairs.sort(key=lambda p: p[0].sort_key)
        for i in range(1, len(pairs)):
            if pairs[i - 1][0] is pairs[i][0]:
                raise ValueError(f"duplicate symbol {pairs[i][0]}")
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "degree", sum(e for _, e in pairs))
        object.__setattr__(self, "_hash", hash(self.pairs))

    @classmethod
    def _raw(cls, pairs: tuple[tuple[VarSymbol, int], ...]) -> "Monomial":
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "degree", sum(e for _, e in pairs))
        object.__setattr__(self, "_hash", hash(pairs))
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            key = (self.degree, tuple((s.sort_key, -e) for s, e in self.pairs))
            object.__setattr__(self, "_key", key)
            return key

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        # merge two symbol-sorted pair lists
        a, b = self.pairs, other.pairs
        out: list[tuple[VarSymbol, int]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            sa, sb = a[i][0], b[j][0]
            if sa is sb:
                out.append((sa, a[i][1] + b[j][1]))
                i += 1
                j += 1
            elif sa.sort_key < sb.sort_key:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial._raw(tuple(out))

    def symbols(self) -> Iterator[VarSymbol]:
        return (s for s, _ in self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(str(s) if e == 1 else f"{s}^{e}" for s, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


UNIT = Monomial()


class Polynomial(Immutable):
    """A finite sum of coefficient*monomial terms over a CoeffRing.

    Terms live in a dict keyed by Monomial; zero coefficients are never
    stored.  An integral coefficient may be an int or a Fraction, which
    compare alike, so equal polynomials have equal term dicts.
    Coefficients from outside pass `CoeffRing.check_coeff`: inexact ones
    raise TypeError.  Binary operations join the two rings and fail loudly
    when the rings are not nested.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: Mapping[Monomial, Coeff] | Iterable[tuple[Monomial, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Coeff] = {}
        for mono, c in items:
            c = ring.check_coeff(c)
            if c == 0:
                continue
            if mono in clean:
                c = clean[mono] + c
                if c == 0:
                    del clean[mono]
                    continue
            clean[mono] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, ring: CoeffRing, terms: dict[Monomial, Coeff]) -> "Polynomial":
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, ring: CoeffRing = ZZ) -> "Polynomial":
        return cls._raw(ring, {})

    @classmethod
    def constant(cls, c: Coeff, ring: CoeffRing = ZZ) -> "Polynomial":
        c = ring.check_coeff(c)
        if c == 0:
            return cls._raw(ring, {})
        return cls._raw(ring, {UNIT: c})

    @classmethod
    def variable(cls, sym: VarSymbol, ring: CoeffRing = ZZ) -> "Polynomial":
        return cls._raw(ring, {Monomial._raw(((sym, 1),)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and UNIT in self.terms)

    def constant_value(self) -> Coeff:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and UNIT in self.terms:
            return self.terms[UNIT]
        raise ValueError("polynomial is not constant")

    def symbols(self) -> set[VarSymbol]:
        out: set[VarSymbol] = set()
        for m in self.terms:
            out.update(m.symbols())
        return out

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            # a number the ring does not admit is unequal, not an error:
            # only arithmetic raises IncompatibleRings
            return self.terms == ({UNIT: other} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.ring)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring.join(other.ring)
        if not self.terms:
            return other if other.ring is ring else Polynomial._raw(ring, dict(other.terms))
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return Polynomial._raw(ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.check_coeff(other)
            if other == 0:
                return Polynomial._raw(self.ring, {})
            if other == 1:
                return self
            return Polynomial._raw(self.ring, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        ring = self.ring.join(other.ring)
        out: dict[Monomial, Coeff] = {}
        # iterate the smaller factor outside
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = ma * mb
                acc = out.get(mono, 0) + ca * cb
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return Polynomial._raw(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, bindings: Mapping[VarSymbol, "Polynomial | Coeff"]) -> "Polynomial":
        """Ring morphism: replace bound symbols, keep unbound ones as themselves."""
        ring = self.ring
        cache: dict[tuple[VarSymbol, int], Polynomial] = {}

        def image_power(sym: VarSymbol, exp: int) -> Polynomial:
            got = cache.get((sym, exp))
            if got is None:
                val = bindings[sym]
                if not isinstance(val, Polynomial):
                    val = Polynomial.constant(val, ring)
                got = val**exp
                cache[(sym, exp)] = got
            return got

        total = Polynomial.zero(ring)
        for mono, c in self.terms.items():
            kept: list[tuple[VarSymbol, int]] = []
            factor: Polynomial | None = None
            for sym, exp in mono.pairs:
                if sym in bindings:
                    piece = image_power(sym, exp)
                    factor = piece if factor is None else factor * piece
                else:
                    kept.append((sym, exp))
            term = Polynomial._raw(self.ring, {Monomial._raw(tuple(kept)): c})
            total = total + (term if factor is None else term * factor)
        return total

    def evaluate_rational(self, point: Mapping[VarSymbol, Coeff]) -> Fraction:
        """Evaluate at a full rational point; every symbol must be bound."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            acc = Fraction(c)
            for sym, exp in mono.pairs:
                if sym not in point:
                    raise UnboundVariable(str(sym))
                acc *= Fraction(point[sym]) ** exp
            total += acc
        return total

    def map_symbols(self, mapping: Callable[[VarSymbol], VarSymbol]) -> "Polynomial":
        """Rename symbols; the map must stay injective on each monomial."""
        out: dict[Monomial, Coeff] = {}
        for mono, c in self.terms.items():
            renamed = Monomial((mapping(s), e) for s, e in mono.pairs)
            acc = out.get(renamed, 0) + c
            if acc == 0:
                out.pop(renamed, None)
            else:
                out[renamed] = acc
        return Polynomial._raw(self.ring, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, c in self.sorted_terms():
            if mono is UNIT or not mono.pairs:
                body = str(c)
            elif c == 1:
                body = str(mono)
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if parts and not body.startswith("-"):
                parts.append(f"+ {body}")
            elif parts:
                parts.append(f"- {body[1:]}")
            else:
                parts.append(body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


# serialization

def coeff_to_json(c: Coeff) -> dict:
    if type(c) is int:
        return {"num": str(c), "den": "1"}
    return {"num": str(c.numerator), "den": str(c.denominator)}


def poly_to_json(p: Polynomial) -> dict:
    terms = []
    for mono, c in p.sorted_terms():
        terms.append(
            {
                "coeff": coeff_to_json(c),
                "monomial": {str(sym): exp for sym, exp in mono.pairs},
            }
        )
    return {"ring": {"inverted": sorted(p.ring.inverted)}, "terms": terms}


def canonical_json(obj) -> str:
    """Deterministic rendering used for every machine-readable output.

    The text equals ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``
    byte for byte: keys in insertion order, every item on a line of its
    own indented two spaces per level, "," ending each item but the last,
    ": " after each key, "{}" and "[]" for empty containers, and text
    outside ASCII written as \\u escapes.  It covers dicts with str keys,
    lists, tuples, str, int, bool and None.  Any other value, a float or a
    Fraction included, and any key that is not a str raise TypeError.
    """
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """The text of `obj`; `newline` is a newline plus the indentation of
    the line `obj` starts on.  A str or int inside a container is written
    in place, without a call of its own: most values are one of the two."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # _json_str raises TypeError for a key that is not a str
        return "{" + inner + ("," + inner).join([
            _json_str(k) + ": "
            + (_json_str(v) if type(v) is str else str(v) if type(v) is int else _json_text(v, inner))
            for k, v in obj.items()]) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            _json_str(v) if type(v) is str else str(v) if type(v) is int else _json_text(v, inner)
            for v in obj]) + newline + "]"
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
