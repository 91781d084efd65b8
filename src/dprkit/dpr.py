"""The recursive double point relation polynomials and their structural checks.

The free ring here has four symbol families: first-family classes X[i],
second-family classes Y[j], and their excess/correction markers U[p][k] and
V[p][l] with p in {1, 2, 3}.  The excess polynomials E and the correction
polynomials F are built by a two-term recursion; the full relation
polynomial G glues an X-side pair with a Y-side pair.  Every polynomial
this module builds is multilinear in all generators: each recursion step
multiplies previously built terms by brand-new symbols, so no exponent can
ever reach 2.  That theorem is load-bearing for the representation and is
asserted at every product.

Representation: a term is a bitmask.  Index k owns the byte at bit
8*(k-1), with bit offsets X=0, Y=1, U1=2, V1=3, U2=4, V2=5, U3=6, V3=7
inside the byte.  Masks live in a numpy array whose dtype is chosen from
the support: uint64 while every index is at most 8, object (plain Python
ints) past that; coefficients, always small integers, ride along in an
int64 array.  Every method has one code path for both dtypes, because the
bitwise operators, `np.bitwise_count`, sorting and `np.unique` act on
object arrays of Python ints too, and the per-family byte patterns are
built as wide as the support and typed like the masks.  Swapping the two sides is then one
shift pair, structural checks are vectorized popcounts, and the
4.7-million-term top acceptance case stays comfortably inside its time
budget.

Consumers that need only the value of a relation polynomial at a point do
not expand it: `chain_values` and `relation_value` run the same recursion
on values in any commutative ring, in O(n + m) ring operations.  Run on
the generators themselves, as `relation_polynomial`, it expands a relation
polynomial into a core `Polynomial` without masks and without numpy; that
serves small relations.  The mask form serves the structural checks of
large ones, and is the slow oracle (`DprPolynomial.evaluate_rational`,
`substitute_families`) the fast path is tested against.

numpy is loaded on demand: importing this module registers it without
running it, and the first use of a mask array loads it.  Loading numpy
costs more than the rest of a short dprkit command, and only the mask
engine needs it.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .algebra import Coeff, Monomial, Polynomial, UnboundVariable, VarSymbol, ZZ, poly_to_json

__all__ = [
    "DprPolynomial",
    "NotMultilinear",
    "build_ex",
    "build_fx",
    "build_ey",
    "build_fy",
    "build_gx",
    "build_gy",
    "chain_symbols",
    "chain_values",
    "relation_value",
    "relation_polynomial",
    "check_multilinear",
    "check_index_bounds",
    "weight_check",
    "mirror_check",
    "padding_check",
    "from_polynomial",
    "dpr_to_json",
    "WEIGHTS",
]


def _import_on_first_use(name: str):
    """`import name`, except that the module's code runs at its first
    attribute access (the `importlib.util.LazyLoader` recipe)."""
    if name in sys.modules:
        # a second, lazy copy would load the module twice
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _import_on_first_use("numpy")

_BITS_PER_INDEX = 8

# bit offset of each family inside an index block
_OFFSET = {
    ("X", None): 0,
    ("Y", None): 1,
    ("U", 1): 2,
    ("V", 1): 3,
    ("U", 2): 4,
    ("V", 2): 5,
    ("U", 3): 6,
    ("V", 3): 7,
}
_FAMILY_AT_OFFSET = {off: fam for fam, off in _OFFSET.items()}

# per-generator weights: classes +1, first markers -1, second/third markers -2
WEIGHTS = {"X": 1, "Y": 1, ("U", 1): -1, ("V", 1): -1,
           ("U", 2): -2, ("V", 2): -2, ("U", 3): -2, ("V", 3): -2}

_XY_BYTE, _M1_BYTE, _M23_BYTE = 0x03, 0x0C, 0xF0
_EVEN_BYTE, _ODD_BYTE = 0x55, 0xAA


class NotMultilinear(ValueError):
    """A polynomial strayed outside the multilinear free ring."""


def _rep_mask(byte: int, support: int) -> int:
    """Repeat a byte pattern across every index block touched by `support`.

    The result never exceeds the blocks of `support`, so it stays a valid
    uint64 operand for masks that are.  0x0101...01 = (2^(8b) - 1) / 0xFF.
    """
    blocks = -(-support.bit_length() // _BITS_PER_INDEX)
    return byte * ((1 << (_BITS_PER_INDEX * blocks)) - 1) // 0xFF


def x_mask(i: int) -> int:
    if i < 1:
        raise ValueError("index must be >= 1")
    return 1 << (_BITS_PER_INDEX * (i - 1) + _OFFSET[("X", None)])


def y_mask(j: int) -> int:
    if j < 1:
        raise ValueError("index must be >= 1")
    return 1 << (_BITS_PER_INDEX * (j - 1) + _OFFSET[("Y", None)])


def u_mask(p: int, k: int) -> int:
    if k < 1 or p not in (1, 2, 3):
        raise ValueError("marker must be U[1..3][k>=1]")
    return 1 << (_BITS_PER_INDEX * (k - 1) + _OFFSET[("U", p)])


def v_mask(p: int, l: int) -> int:
    if l < 1 or p not in (1, 2, 3):
        raise ValueError("marker must be V[1..3][l>=1]")
    return 1 << (_BITS_PER_INDEX * (l - 1) + _OFFSET[("V", p)])


def _symbol_of_bit(pos: int) -> VarSymbol:
    block, off = divmod(pos, _BITS_PER_INDEX)
    fam, sup = _FAMILY_AT_OFFSET[off]
    if sup is None:
        return VarSymbol(fam, (block + 1,))
    return VarSymbol(fam, (sup, block + 1))


def symbol_mask(sym: VarSymbol) -> int:
    if sym.family in ("X", "Y") and len(sym.indices) == 1:
        return (x_mask if sym.family == "X" else y_mask)(sym.indices[0])
    if sym.family in ("U", "V") and len(sym.indices) == 2:
        p, k = sym.indices
        return (u_mask if sym.family == "U" else v_mask)(p, k)
    raise NotMultilinear(f"{sym} is not a relation-ring generator")


def mask_to_monomial(mask: int) -> Monomial:
    pairs = []
    pos = 0
    m = int(mask)
    while m:
        if m & 1:
            pairs.append((_symbol_of_bit(pos), 1))
        m >>= 1
        pos += 1
    return Monomial(pairs)


class DprPolynomial:
    """An element of the multilinear relation ring over Z.

    Terms are a parallel pair of arrays (bitmask, coefficient); every mask is
    distinct and no coefficient is zero.  Treat instances as immutable: the
    arrays are marked read-only.
    """

    __slots__ = ("masks", "coeffs", "support")

    def __init__(self, masks: np.ndarray, coeffs: np.ndarray, support: int | None = None):
        if masks.shape != coeffs.shape:
            raise ValueError("mask and coefficient arrays differ in length")
        masks.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "coeffs", coeffs)
        if support is None:
            support = int(np.bitwise_or.reduce(masks)) if len(masks) else 0
        object.__setattr__(self, "support", support)

    def __setattr__(self, name, value):
        raise AttributeError("DprPolynomial is immutable")

    # construction ---------------------------------------------------------

    @staticmethod
    def _dtype_for(max_mask: int):
        return np.uint64 if max_mask < (1 << 64) else object

    @classmethod
    def zero(cls) -> "DprPolynomial":
        return cls(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), 0)

    @classmethod
    def from_terms(cls, terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> "DprPolynomial":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for mask, c in items:
            mask = int(mask)
            if mask < 0:
                raise ValueError("negative mask")
            s = acc.get(mask, 0) + int(c)
            if s == 0:
                acc.pop(mask, None)
            else:
                acc[mask] = s
        if not acc:
            return cls.zero()
        top = max(acc)
        if any(abs(c) >= (1 << 62) for c in acc.values()):
            raise OverflowError("coefficient too large for the int64 backend")
        dtype = cls._dtype_for(top)
        masks = np.array(list(acc.keys()), dtype=dtype)
        coeffs = np.array(list(acc.values()), dtype=np.int64)
        return cls(masks, coeffs)

    @classmethod
    def generator(cls, mask: int) -> "DprPolynomial":
        return cls.from_terms({mask: 1})

    # queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.masks)

    def is_zero(self) -> bool:
        return len(self.masks) == 0

    def _key_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.masks, kind="stable")
        return self.masks[order], self.coeffs[order]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DprPolynomial):
            return NotImplemented
        if len(self) != len(other) or self.support != other.support:
            return False
        if len(self) == 0:
            return True
        # the builders emit both sides of a mirror pair in the same order,
        # so try the cheap elementwise test before sorting; numpy compares
        # uint64 masks with object ones by value
        if bool((self.masks == other.masks).all()) and bool(
            (self.coeffs == other.coeffs).all()
        ):
            return True
        ma, ca = self._key_sorted()
        mb, cb = other._key_sorted()
        return bool((ma == mb).all()) and bool((ca == cb).all())

    def __hash__(self):
        raise TypeError("DprPolynomial is not hashable")

    def terms(self) -> Iterable[tuple[int, int]]:
        for m, c in zip(self.masks.tolist(), self.coeffs.tolist()):
            yield int(m), int(c)

    # arithmetic ------------------------------------------------------------

    def __neg__(self) -> "DprPolynomial":
        return DprPolynomial(self.masks, -self.coeffs, self.support)

    def _pattern(self, byte: int):
        """`byte` repeated across the support, as a scalar of the masks' dtype.

        Against a numpy scalar numpy reuses temporaries in place; against a
        Python int it allocates, which doubles the cost of `swap_sides` on
        the (8, 8) relation."""
        return self.masks.dtype.type(_rep_mask(byte, self.support))

    def swap_sides(self) -> "DprPolynomial":
        """Exchange the two families: X <-> Y and U <-> V, coefficients kept."""
        if self.is_zero():
            return self

        def swap(bits, even, odd, one):
            return ((bits & even) << one) | ((bits & odd) >> one)

        masks = swap(self.masks, self._pattern(_EVEN_BYTE), self._pattern(_ODD_BYTE),
                     self.masks.dtype.type(1))
        support = swap(self.support, _rep_mask(_EVEN_BYTE, self.support),
                       _rep_mask(_ODD_BYTE, self.support), 1)
        return DprPolynomial(masks, self.coeffs.copy(), support)

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
        for mask, c in self.terms():
            prod = Fraction(c)
            m = mask
            while m:
                low = m & -m
                prod *= values[low.bit_length() - 1]
                m ^= low
            total += prod
        return total

    def substitute_families(self, values: Mapping[str | tuple[str, int], int]) -> int:
        """Exact integer value when every generator of a family gets one value.

        `values` must bind all eight families, keyed like WEIGHTS: "X", "Y",
        and ("U", p) / ("V", p) for the marker kinds.
        """
        fams = [(fam if sup is None else (fam, sup), off)
                for (fam, sup), off in sorted(_OFFSET.items(), key=lambda kv: kv[1])]
        vals = [int(values[key]) for key, _ in fams]
        # pack the eight per-family popcounts into one key, then group:
        # distinct exponent profiles are few even when terms run to millions
        keys = np.zeros(len(self.masks), dtype=np.int64)
        for slot, (_, off) in enumerate(fams):
            counts = np.bitwise_count(self.masks & self._pattern(1 << off))
            keys |= counts.astype(np.int64) << np.int64(6 * slot)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, self.coeffs)
        total = 0
        for key, s in zip(uniq.tolist(), sums.tolist()):
            prod = 1
            for slot, v in enumerate(vals):
                prod *= v ** ((key >> (6 * slot)) & 63)
            total += s * prod
        return total

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        pairs = [(mask_to_monomial(m), c) for m, c in self.terms()]
        pairs.sort(key=lambda t: t[0].sort_key())
        return pairs

    def to_polynomial(self) -> Polynomial:
        return Polynomial(ZZ, ((mask_to_monomial(m), c) for m, c in self.terms()))

    def __str__(self) -> str:
        return str(self.to_polynomial())

    def __repr__(self) -> str:
        return f"DprPolynomial({len(self)} terms)"


def _concat_chunks(chunks: list[DprPolynomial]) -> DprPolynomial:
    """Sum chunks whose term masks are pairwise distinct by construction.

    Each recursion step tags new terms with a generator the older chunks
    cannot contain, so plain concatenation is the sum; small results are
    re-verified for distinctness outright.
    """
    chunks = [c for c in chunks if not c.is_zero()]
    if not chunks:
        return DprPolynomial.zero()
    if len(chunks) == 1:
        return chunks[0]
    support = 0
    for c in chunks:
        support |= c.support
    # a uint64 mask ORed or compared with an int >= 2^64 overflows: promote
    masks = np.concatenate([c.masks for c in chunks], dtype=DprPolynomial._dtype_for(support))
    coeffs = np.concatenate([c.coeffs for c in chunks])
    if len(masks) <= 100_000 and len(np.unique(masks)) != len(masks):
        raise AssertionError("chunk masks collided; recursion invariant broken")
    return DprPolynomial(masks, coeffs, support)


def _product_disjoint(a: DprPolynomial, b: DprPolynomial) -> DprPolynomial:
    """Outer product of two polynomials with disjoint symbol supports."""
    if a.support & b.support:
        raise NotMultilinear("factors share generators")
    peak_a = int(np.abs(a.coeffs).max(initial=0))
    peak_b = int(np.abs(b.coeffs).max(initial=0))
    if peak_a * peak_b >= (1 << 62):
        # disjoint factors never merge terms, so no sum could shrink it back
        raise OverflowError("coefficient too large for the int64 backend")
    dtype = DprPolynomial._dtype_for(a.support | b.support)
    masks = np.bitwise_or.outer(a.masks.astype(dtype, copy=False),
                                b.masks.astype(dtype, copy=False)).ravel()
    coeffs = np.multiply.outer(a.coeffs, b.coeffs).ravel()
    return DprPolynomial(masks, coeffs, a.support | b.support)


# builders -------------------------------------------------------------------

_EF_CACHE: dict[tuple[str, int], tuple[DprPolynomial, DprPolynomial]] = {}


def _class_mask(side: str, i: int) -> int:
    return x_mask(i) if side == "X" else y_mask(i)


def _marker_mask(side: str, p: int, k: int) -> int:
    return u_mask(p, k) if side == "X" else v_mask(p, k)


def _ef(side: str, n: int) -> tuple[DprPolynomial, DprPolynomial]:
    """Excess and correction polynomials for one family, built together."""
    if n < 1:
        raise ValueError("n must be >= 1")
    got = _EF_CACHE.get((side, n))
    if got is not None:
        return got
    if n == 1:
        pair = (DprPolynomial.zero(), DprPolynomial.zero())
    else:
        e_prev, f_prev = _ef(side, n - 1)
        head = _concat_chunks(
            [_own_sum(side, n - 1), e_prev]
        )
        x_n = DprPolynomial.generator(_class_mask(side, n))
        excess_step = _product_disjoint(
            head, DprPolynomial.generator(_class_mask(side, n) | _marker_mask(side, 1, n - 1))
        )
        e_n = _concat_chunks([e_prev, -excess_step, -_product_disjoint(x_n, f_prev)])
        corr = DprPolynomial.from_terms(
            {
                _class_mask(side, n) | _marker_mask(side, 2, n): 1,
                _class_mask(side, n) | _marker_mask(side, 3, n): -1,
            }
        )
        f_n = _concat_chunks([f_prev, _product_disjoint(head, corr)])
        pair = (e_n, f_n)
    _EF_CACHE[(side, n)] = pair
    return pair


def build_ex(n: int) -> DprPolynomial:
    return _ef("X", n)[0]


def build_fx(n: int) -> DprPolynomial:
    return _ef("X", n)[1]


def build_ey(n: int) -> DprPolynomial:
    return _ef("Y", n)[0]


def build_fy(n: int) -> DprPolynomial:
    return _ef("Y", n)[1]


def _own_sum(side: str, n: int) -> DprPolynomial:
    return DprPolynomial.from_terms({_class_mask(side, i): 1 for i in range(1, n + 1)})


def build_gx(n: int, m: int) -> DprPolynomial:
    """Full relation polynomial with n first-family and m second-family classes."""
    if n < 1 or m < 1:
        raise ValueError("both counts must be >= 1")
    e_x, f_x = _ef("X", n)
    e_y = _ef("Y", m)[0]
    other = _concat_chunks([_own_sum("Y", m), e_y])
    return _concat_chunks(
        [_own_sum("X", n), e_x, _product_disjoint(other, f_x)]
    )


def build_gy(n: int, m: int) -> DprPolynomial:
    """Mirror image: n second-family and m first-family classes."""
    if n < 1 or m < 1:
        raise ValueError("both counts must be >= 1")
    e_y, f_y = _ef("Y", n)
    e_x = _ef("X", m)[0]
    other = _concat_chunks([_own_sum("X", m), e_x])
    return _concat_chunks(
        [_own_sum("Y", n), e_y, _product_disjoint(other, f_y)]
    )


# recurrence-first evaluation -------------------------------------------------

_MARKER_FAMILY = {"X": "U", "Y": "V"}


def _marker_family(side: str) -> str:
    if side not in _MARKER_FAMILY:
        raise ValueError(f"side must be X or Y, got {side!r}")
    return _MARKER_FAMILY[side]


def chain_symbols(side: str, n: int) -> list[VarSymbol]:
    """The generators of a chain of n classes on one side, in a fixed order:
    classes 1..n, first markers 1..n-1, then second and third markers 2..n."""
    marker = _marker_family(side)
    syms = [VarSymbol(side, (i,)) for i in range(1, n + 1)]
    syms += [VarSymbol(marker, (1, k)) for k in range(1, n)]
    for p in (2, 3):
        syms += [VarSymbol(marker, (p, k)) for k in range(2, n + 1)]
    return syms


def chain_values(side: str, n: int, value: Mapping[VarSymbol, object]) -> list[tuple]:
    """[(T_1, F_1), ..., (T_n, F_n)] for one side's chain at `value`.

    T_k = S_k + E_k is the class sum plus the excess polynomial and F_k the
    correction polynomial of `_ef`, evaluated by the recursion itself:

        T_1 = X_1,  F_1 = 0,
        T_k = T_{k-1} + X_k - T_{k-1}*X_k*U1_{k-1} - X_k*F_{k-1},
        F_k = F_{k-1} + T_{k-1}*X_k*(U2_k - U3_k).

    `value` binds generators (Y and V on the Y side) to elements of any
    commutative ring that mixes with int: ints, Fractions, Polynomials.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    marker = _marker_family(side)

    def at(family: str, *indices: int):
        sym = VarSymbol(family, indices)
        if sym not in value:
            raise UnboundVariable(str(sym))
        return value[sym]

    t, f = at(side, 1), 0
    out = [(t, f)]
    for k in range(2, n + 1):
        x = at(side, k)
        t, f = (
            t + x - t * x * at(marker, 1, k - 1) - x * f,
            f + t * x * (at(marker, 2, k) - at(marker, 3, k)),
        )
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


def _generators(*chains: tuple[str, int]) -> dict[VarSymbol, Polynomial]:
    return {s: Polynomial.variable(s) for side, n in chains for s in chain_symbols(side, n)}


def relation_polynomial(kind: str, n: int, m: int | None = None) -> Polynomial:
    """`build_ex(n)` .. `build_gy(n, m)` (kind "EX" .. "GY") as a core
    Polynomial, expanded by running the recursion on the generators.

    It equals `to_polynomial()` of the mask engine's result and needs no
    numpy.  It is the quicker route to a Polynomial at every size, since the
    mask engine decodes each term bit by bit; for a structural check the mask
    engine is quicker once numpy is loaded.
    """
    if kind not in ("EX", "FX", "EY", "FY", "GX", "GY"):
        raise ValueError(f"unknown relation polynomial {kind!r}")
    family, side = kind
    if family == "G":
        if n < 1 or m < 1:
            raise ValueError("both counts must be >= 1")
        return relation_value(side, n, m, _generators((side, n), (_other_side(side), m)))
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = _generators((side, n))
    t, f = chain_values(side, n, gens)[-1]
    if family == "F":
        return Polynomial.zero() + f  # F_1 is the int 0
    for i in range(1, n + 1):
        t = t - gens[VarSymbol(side, (i,))]
    return t


# checks ----------------------------------------------------------------------


def check_multilinear(g: Union[DprPolynomial, Polynomial]) -> bool:
    """No generator may appear squared in any term.

    For the native representation this holds by construction (a bitmask
    cannot hold an exponent of 2); plain polynomials are scanned.
    """
    if isinstance(g, DprPolynomial):
        return True
    for mono in g.terms:
        for _, exp in mono.pairs:
            if exp > 1:
                return False
    return True


def _allowed_support(n: int, m: int) -> int:
    allowed = 0
    for i in range(1, n + 1):
        allowed |= x_mask(i)
    for k in range(1, n):
        allowed |= u_mask(1, k)
    for k in range(2, n + 1):
        allowed |= u_mask(2, k) | u_mask(3, k)
    for j in range(1, m + 1):
        allowed |= y_mask(j)
    for l in range(1, m):
        allowed |= v_mask(1, l)
    for l in range(2, m + 1):
        allowed |= v_mask(2, l) | v_mask(3, l)
    return allowed


def check_index_bounds(g: Union[DprPolynomial, Polynomial], n: int, m: int) -> bool:
    """Indices stay inside the ranges the recursion can produce:
    classes up to their count, first markers strictly below it, and
    second/third markers between 2 and the count."""
    if isinstance(g, Polynomial):
        support = 0
        for mask, _ in _term_masks(g):
            support |= mask
    else:
        support = g.support
    return (support & ~_allowed_support(n, m)) == 0


def _mask_weight(mask: int) -> int:
    def count(byte: int) -> int:
        return (mask & _rep_mask(byte, mask)).bit_count()

    return count(_XY_BYTE) - count(_M1_BYTE) - 2 * count(_M23_BYTE)


def weight_check(g: Union[DprPolynomial, Polynomial], weight: int) -> bool:
    """True iff every term has the given total weight (classes +1,
    first markers -1, second/third markers -2)."""
    if isinstance(g, Polynomial):
        return all(_mask_weight(mask) == weight for mask, _ in _term_masks(g))
    if g.is_zero():
        return True
    # a term's weight lies in [-2k, k] for its k generators, and k is at most
    # the support's bit length: int8 for uint64 masks
    dtype = np.min_scalar_type(-2 * g.support.bit_length())

    def count(byte: int) -> np.ndarray:
        return np.bitwise_count(g.masks & g._pattern(byte)).astype(dtype)

    w = count(_XY_BYTE) - count(_M1_BYTE) - 2 * count(_M23_BYTE)
    return bool(w.min() == w.max() == weight)


_MIRROR_FAMILY = {"X": "Y", "Y": "X", "U": "V", "V": "U"}


def _mirror_symbol(sym: VarSymbol) -> VarSymbol:
    return VarSymbol(_MIRROR_FAMILY[sym.family], sym.indices)


def mirror_check(n: int, m: int, *, by_recursion: bool = False) -> bool:
    """Swapping families in one relation polynomial gives the other.

    `by_recursion` expands both with `relation_polynomial` instead of the
    mask engine."""
    if by_recursion:
        return (relation_polynomial("GX", n, m).map_symbols(_mirror_symbol)
                == relation_polynomial("GY", n, m))
    return build_gx(n, m).swap_sides() == build_gy(n, m)


def padding_check(n: int, m: int, big_n: int, big_m: int, *, by_recursion: bool = False) -> bool:
    """The larger relation polynomial reduces to the smaller one when every
    term mentioning an out-of-range class is killed.

    `by_recursion` expands both with `relation_polynomial` instead of the
    mask engine."""
    if not (1 <= n <= big_n and 1 <= m <= big_m):
        raise ValueError("padding requires n <= N and m <= M")
    if by_recursion:
        killed = {VarSymbol("X", (i,)) for i in range(n + 1, big_n + 1)}
        killed |= {VarSymbol("Y", (j,)) for j in range(m + 1, big_m + 1)}
        big = relation_polynomial("GX", big_n, big_m)
        kept = Polynomial(ZZ, ((mono, c) for mono, c in big.terms.items()
                               if killed.isdisjoint(mono.symbols())))
        return kept == relation_polynomial("GX", n, m)
    out = 0
    for i in range(n + 1, big_n + 1):
        out |= x_mask(i)
    for j in range(m + 1, big_m + 1):
        out |= y_mask(j)
    big = build_gx(big_n, big_m)
    if out == 0:
        kept = big
    else:
        keep = (big.masks & out) == 0
        kept = DprPolynomial(big.masks[keep], big.coeffs[keep])
    return kept == build_gx(n, m)


# interop ----------------------------------------------------------------------


def _term_masks(p: Polynomial) -> list[tuple[int, int]]:
    """The (mask, coefficient) terms of a core polynomial over relation
    generators, as plain ints."""
    terms = []
    for mono, c in p.terms.items():
        if isinstance(c, Fraction):
            raise NotMultilinear("relation polynomials live over plain Z")
        mask = 0
        for sym, exp in mono.pairs:
            if exp != 1:
                raise NotMultilinear(f"{sym} appears with exponent {exp}")
            mask |= symbol_mask(sym)
        terms.append((mask, c))
    return terms


def from_polynomial(p: Polynomial) -> DprPolynomial:
    """Exact conversion from a core polynomial over relation generators."""
    return DprPolynomial.from_terms(_term_masks(p))


def dpr_to_json(g: DprPolynomial) -> dict:
    return poly_to_json(g.to_polynomial())
