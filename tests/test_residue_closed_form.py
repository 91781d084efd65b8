"""The universal associativity residues' count and linear part in closed form.

Write the universal law as F(u, v) = u + v + sum a_ij u^i v^j over all
ordered pairs, with a_ij = a_ji stored as a[min][max].  The part of
F(F(u, v), w) - F(u, F(v, w)) that is linear in the a's is

    sum a_ij [(u+v)^i w^j + u^i v^j - u^i (v+w)^j - v^i w^j],

so for a, b, k >= 1 the coefficient of u^a v^b w^k in it is

    C(a+b, a) a[a+b][k] - C(b+k, b) a[a][b+k].

The two symbols are equal, and the two binomials too, exactly when a = k.
Higher-degree terms cannot cancel a linear one, so the residue at (a, b, k)
is nonzero exactly when a != k, and `associativity_relations` at order N
gives C(N, 3) - sum_{a >= 1} max(N - 2a, 0) residues: one per triple of
total degree at most N, less the triples (a, b, a).

The residues are made once, at the top order, and every lower order reads
them as `Polynomial`s; each one's terms of degree at most 1 must be the
closed form, which also says it has no constant term.  Unlike the rank
(`test_lazard_ring.py`) and the Lazard points (`test_lazard_points.py`),
this pins each residue's lowest part and their number before any is made.
"""

from math import comb

from dprkit import fgl
from dprkit.algebra import Monomial, Polynomial, VarSymbol, ZZ
from dprkit.fgl import associativity_relations, universal_mode

TOP = 20


def residue_count(order: int) -> int:
    return comb(order, 3) - sum(max(order - 2 * a, 0) for a in range(1, order))


def a(i: int, j: int) -> Monomial:
    return Monomial({VarSymbol("a", (min(i, j), max(i, j))): 1})


def closed_form(e: tuple[int, int, int]) -> Polynomial:
    """C(a+b, a) a[a+b][k] - C(b+k, b) a[a][b+k], the residue's linear part."""
    i, j, k = e
    return Polynomial(ZZ, [(a(i + j, k), comb(i + j, i)), (a(i, j + k), -comb(j + k, j))])


def lowest_part(poly: Polynomial) -> Polynomial:
    return Polynomial(ZZ, [(mono, c) for mono, c in poly.terms.items() if mono.degree <= 1])


def test_the_count_formula_gives_the_printed_counts():
    assert [residue_count(n) for n in (8, 12, 16, 20, 24)] == [44, 190, 504, 1050, 1892]


def test_every_residue_up_to_order_20_has_the_closed_form_count_and_linear_part(monkeypatch):
    # a private kept-residue table: the order-20 residues are made here and
    # dropped with the test, whatever other tests kept before
    monkeypatch.setattr(fgl, "_residues", {})
    mode = universal_mode()
    assert len(associativity_relations(mode, TOP)) == residue_count(TOP)
    for order in range(1, TOP + 1):
        rels = associativity_relations(mode, order)
        assert set(rels) == {(i, j, k) for i in range(1, order) for j in range(1, order)
                             for k in range(1, order) if i != k and i + j + k <= order}, order
        assert len(rels) == residue_count(order), order
        for e, poly in rels.items():
            assert lowest_part(poly) == closed_form(e), (order, e)
