"""Exact sparse multivariate polynomials over localized integer coefficient rings.

Interned variable symbols with a deterministic total order
(`VarSymbol.sort_key`), immutable monomials, and polynomials whose
coefficients are ints or Fractions with denominators controlled by the
coefficient ring.  All arithmetic is exact; nothing here ever rounds.
Coefficients are whatever exact arithmetic returns, so an integral value
may be held as an int or as a Fraction; the two compare alike, so equal
polynomials have equal term dicts.  Inexact input (a float, a Decimal)
raises TypeError where it comes in.

Series arithmetic runs on `fgl`'s packed kernel, relation polynomials on
`dpr`'s bitmask form, and the verifiers sample ints.  `Polynomial` runs
`fixedpoint claim1` and `selftest`'s explicit forms and residue
specialisations, and holds what the fast forms hand out, which tests
compare with it.  As the reference it keeps one plain path per operation.
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
    decides it, with no factorization.  The product is taken once per ring.
    """

    __slots__ = ("inverted", "_product")
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
            object.__setattr__(cached, "_product", prod(key))
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
        return pow(self._product, den.bit_length(), den) == 0

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
    The sort key is one flat tuple, the degree followed by four slots per
    pair (the symbol's three-slot `sort_key`, then minus the exponent).
    Every pair adds the same four slots, so comparing flat keys orders
    monomials as comparing the nested pairs would, prefixes included.

    A monomial also holds its JSON names dict, ``{name: exponent}`` in
    Monomial order, made by the first `json_names` call: every document
    `poly_to_json` makes with this monomial shares that one dict.
    """

    # _key is the sort key, set by the first `sort_key` call only, and
    # _names the names dict, set by the first `json_names` call only
    __slots__ = ("pairs", "degree", "_hash", "_key", "_names")

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
        key = getattr(self, "_key", None)  # as in `json_names`
        if key is None:
            key = (self.degree,)
            for s, e in self.pairs:
                key += (*s.sort_key, -e)
            object.__setattr__(self, "_key", key)
        return key

    def json_names(self) -> dict[str, int]:
        """The held ``{name: exponent}`` dict of the JSON export, the same
        object on every call: it is for rendering, and editing it edits the
        monomial in every document that holds it."""
        # getattr's default costs less than a caught AttributeError on the
        # miss, which every exported monomial meets once
        names = getattr(self, "_names", None)
        if names is None:
            names = {sym._name: exp for sym, exp in self.pairs}
            object.__setattr__(self, "_names", names)
        return names

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.pairs)
        for sym, e in other.pairs:
            exps[sym] = exps.get(sym, 0) + e
        return Monomial(exps)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring.join(other.ring)
        out: dict[Monomial, Coeff] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
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
        for _ in range(n):
            result = result * self
        return result

    def substitute(self, bindings: Mapping[VarSymbol, "Polynomial | Coeff"]) -> "Polynomial":
        """Ring morphism: replace bound symbols, keep unbound ones as themselves.
        A number bound to a symbol must be admitted by this ring."""
        ring = self.ring
        total = Polynomial.zero(ring)
        for mono, c in self.terms.items():
            kept = tuple((sym, exp) for sym, exp in mono.pairs if sym not in bindings)
            term = Polynomial._raw(ring, {Monomial._raw(kept): c})
            for sym, exp in mono.pairs:
                if sym in bindings:
                    image = bindings[sym]
                    if not isinstance(image, Polynomial):
                        image = Polynomial.constant(image, ring)
                    term = term * image**exp
            total = total + term
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
        """Rename symbols; the map must stay injective on each monomial.
        Terms that meet are summed by the constructor."""
        return Polynomial(self.ring, ((Monomial((mapping(s), e) for s, e in mono.pairs), c)
                                      for mono, c in self.terms.items()))

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
    """The JSON document of p: its ring, then its terms in `sorted_terms`
    order, each a coefficient dict and a monomial names dict.

    Each repeated piece is made once.  A term's monomial dict is the one
    its Monomial holds (`Monomial.json_names`), shared by every document
    that has the monomial, and within one document the terms with one int
    coefficient share one ``{"num": ..., "den": "1"}`` dict.  A Fraction
    coefficient, an integral one included, gets a dict of its own per term:
    keying by a Fraction would run its Python-level `__hash__` per term.
    The document is made to be rendered: editing a shared dict edits every
    term, and every document, that holds it.
    """
    ints: dict[int, dict] = {}
    return {"ring": {"inverted": sorted(p.ring.inverted)}, "terms": [
        {"coeff": (ints.get(c) or ints.setdefault(c, {"num": str(c), "den": "1"}))
         if type(c) is int else coeff_to_json(c),
         "monomial": mono.json_names()}
        for mono, c in p.sorted_terms()]}


def canonical_json(obj) -> str:
    """Deterministic rendering used for every machine-readable output.

    The text equals ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``
    byte for byte: keys in insertion order, every item on a line of its
    own indented two spaces per level, "," ending each item but the last,
    ": " after each key, "{}" and "[]" for empty containers, and text
    outside ASCII written as \\u escapes.  It covers dicts with str keys,
    lists, tuples, str, int, bool and None.  Any other value, a float or a
    Fraction included, and any key that is not a str raise TypeError.

    The writer, `_write_pieces`, appends the text's pieces to one list,
    joined once, so each byte is copied once at any depth.  Per call it
    renders each `"key": value` text of a str or int value once per depth,
    looked up key first and then by value; every other value is written in
    place each time it is met.  `write_json` hands the pieces on in chunks.
    """
    out: list[str] = []
    _write_pieces(obj, out, None)
    return "".join(out)


def write_json(obj, write: Callable[[str], object]) -> None:
    """Write `canonical_json(obj)` through `write` in chunks: at the end of a
    list element, once over `_CHUNK` pieces are pending, they are joined and
    handed on, so a long text is never held whole, even one met twice.  A
    TypeError midway leaves the chunks before it written."""
    out: list[str] = []
    _write_pieces(obj, out, write)
    write("".join(out))


# pieces pending before `write_json` hands them on
_CHUNK = 4096


def _level(depth: int) -> tuple:
    """The fixed texts of one depth: a list's opening, the separator, a
    dict's opening, the two closings, then dicts keyed by a dict key: the
    {value: `"key": value` text} of a str or int value after a dict's
    opening and after the separator, and any other value's two `"key": `
    texts."""
    nl = "\n" + "  " * depth
    inner = nl + "  "
    return ("[" + inner, "," + inner, "{" + inner, nl + "}", nl + "]", {}, {}, {})


def _write_pieces(obj, top: list, write) -> None:
    """Append the pieces of `canonical_json(obj)` to `top`, handing whole
    list elements to `write` unless it is None.

    A dict item is one piece with the text before it.  One whose value is
    of type exactly str or int (so never a bool) is read key first from its
    depth's texts, `texts[key][value]`, and made on a KeyError.  Any other
    value follows its `"key": ` text and is written in place every time, so
    no value's text is held and a list met twice is streamed in chunks both
    times.
    """
    levels: list[tuple] = []  # `_level(depth)` at index depth
    append = top.append

    def put(obj, depth: int) -> None:
        if depth == len(levels):
            levels.append(_level(depth))
        if isinstance(obj, dict):
            if not obj:
                return append("{}")
            _, comma, opening, close, _, first, later, fields = levels[depth]
            texts = first
            for key, value in obj.items():
                if (kind := type(value)) is int or kind is str:
                    try:
                        append(texts[key][value])
                    except KeyError:
                        # a key that is not a str raises before any text is kept
                        text = texts.setdefault(key, {})[value] = (
                            (opening if texts is first else comma) + _json_str(key) + ": "
                            + (_json_str(value) if kind is str else int.__repr__(value)))
                        append(text)
                    texts = later
                    continue
                try:
                    head, tail = fields[key]
                except KeyError:
                    name = _json_str(key) + ": "
                    head, tail = fields[key] = (opening + name, comma + name)
                append(head if texts is first else tail)
                texts = later
                put(value, depth + 1)
            append(close)
        elif isinstance(obj, (list, tuple)):
            if not obj:
                return append("[]")
            sep, comma, _, _, close, _, _, _ = levels[depth]
            for value in obj:
                append(sep)
                sep = comma
                if type(value) is str:
                    append(_json_str(value))
                elif type(value) is int:
                    append(int.__repr__(value))
                else:
                    put(value, depth + 1)
                if write is not None and len(top) > _CHUNK:
                    write("".join(top))
                    top.clear()
            append(close)
        elif isinstance(obj, str):
            append(_json_str(obj))
        elif obj is None or obj is True or obj is False:
            append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, int):
            append(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    try:
        put(obj, 0)
    finally:
        # `put` reaches itself through its closure: without this the cycle
        # keeps the pieces and texts alive until a garbage collection
        del put
    top.append("\n")
