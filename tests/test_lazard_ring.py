"""The universal associativity residues against Lazard's theorem.

Give a[i][j] the weight i + j - 1.  Every residue of the universal law is
then homogeneous, and the quotient of Q[a_ij] by the ideal they generate is
the Lazard ring tensored with Q: a polynomial ring with one generator in
each weight (Lazard 1955; Hazewinkel, "Formal Groups and Applications",
1978, ch. 1; Adams, "Stable Homotopy and Generalised Homology", 1974, part
II).  So its weight-w part has rank p(w), the number of partitions of w.

The weight-w part of the ideal is spanned by each residue of weight at
most w times every monomial that completes it to weight w.  The residues
are read as `Polynomial`s, independent of the packed kernel, and the rank
is found by exact elimination over Fractions, with sympy's as a second
oracle.  Residues at u^a v^b w^k of total degree d have weight d - 1, so
weights up to 8 need the residues of order 10.
"""

from fractions import Fraction

import pytest

from dprkit.algebra import Monomial, Polynomial, VarSymbol
from dprkit.fgl import associativity_relations, universal_mode

TOP = 8
A11 = VarSymbol("a", (1, 1))


def weight(sym: VarSymbol) -> int:
    i, j = sym.indices
    return i + j - 1


def poly_weight(p: Polynomial) -> int:
    weights = {sum(weight(s) * e for s, e in mono.pairs) for mono in p.terms}
    assert len(weights) == 1, f"a residue is not homogeneous: {weights}"
    return weights.pop()


def partitions(w: int) -> int:
    counts = [1] + [0] * w
    for part in range(1, w + 1):
        for total in range(part, w + 1):
            counts[total] += counts[total - part]
    return counts[w]


def generators(w: int) -> list[VarSymbol]:
    """a[i][j] with i <= j of weight at most w, the universal law's free
    coefficients."""
    return [VarSymbol("a", (i, d + 1 - i)) for d in range(1, w + 1)
            for i in range(1, d // 2 + 2) if i <= d + 1 - i]


def monomials(w: int, syms: list[VarSymbol]):
    """Every monomial of weight exactly w in `syms`, as {symbol: exponent}."""
    if w == 0:
        yield {}
        return
    if not syms:
        return
    head, rest = syms[0], syms[1:]
    for e in range(w // weight(head) + 1):
        for tail in monomials(w - e * weight(head), rest):
            yield {head: e, **tail} if e else tail


def ideal_rows(residues, w: int) -> tuple[list[Monomial], list[dict[int, int]]]:
    """The weight-w monomials, and the rows {column: coefficient} of each
    residue times each monomial completing it to weight w."""
    syms = generators(w)
    basis = [Monomial(m) for m in monomials(w, syms)]
    column = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for p in residues:
        lift = w - poly_weight(p)
        for extra in monomials(lift, syms) if lift >= 0 else ():
            shift = Monomial(extra)
            rows.append({column[mono * shift]: c for mono, c in p.terms.items()})
    return basis, rows


def rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q by elimination on sparse rows of Fractions."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {col: Fraction(c) for col, c in row.items()}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = {c: v / row[col] for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivots[col].items():
                rest = row.get(c, 0) - factor * v
                if rest:
                    row[c] = rest
                else:
                    del row[c]
    return len(pivots)


def quotient_rank(residues, w: int) -> int:
    basis, rows = ideal_rows(residues, w)
    return len(basis) - rank(rows)


@pytest.fixture(scope="module")
def residues():
    return associativity_relations(universal_mode(), TOP + 2)


def test_partition_counts():
    assert [partitions(w) for w in range(1, 11)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@pytest.mark.parametrize("w", range(1, TOP + 1))
def test_each_weight_has_partition_rank(residues, w):
    assert quotient_rank(residues.values(), w) == partitions(w)


@pytest.mark.parametrize("w", range(1, TOP + 1))
def test_sympy_rank_agrees(residues, w):
    domain = pytest.importorskip("sympy.polys.matrices")
    from sympy import ZZ

    basis, rows = ideal_rows(residues.values(), w)
    dense = [[row.get(col, 0) for col in range(len(basis))] for row in rows]
    matrix = domain.DomainMatrix(dense, (len(dense), len(basis)), ZZ)
    sympy_rank = matrix.convert_to(ZZ.get_field()).rank()
    assert len(basis) - sympy_rank == partitions(w)
    assert rank(rows) == sympy_rank


def _pairs(residues, top_degree):
    """Keys (a, b, k) with a < k of residues up to `top_degree`: each with
    its mirror (k, b, a), its negative by the antisymmetry under u <-> w."""
    return [e for e in residues if sum(e) <= top_degree and e[0] < e[2]]


def test_every_order_8_pair_pins_the_rank(residues):
    # a11^w added to both residues of one pair puts a11^w itself in the
    # ideal, and a11^w is not zero in the Lazard ring
    pairs = _pairs(residues, 8)
    assert len(pairs) == 22
    for e in pairs:
        mirror = e[::-1]
        assert residues[mirror] == -residues[e], e
        w = sum(e) - 1
        bump = Polynomial.variable(A11) ** w
        tampered = {**residues, e: residues[e] + bump, mirror: residues[mirror] + bump}
        assert quotient_rank(tampered.values(), w) < partitions(w), e


def test_dropping_the_first_pair_lifts_the_rank(residues):
    # (1, 1, 2) and its mirror are the only residues of weight 3, so without
    # them the weight-3 part is free
    dropped = [p for e, p in residues.items() if e not in ((1, 1, 2), (2, 1, 1))]
    assert quotient_rank(dropped, 3) > partitions(3)
