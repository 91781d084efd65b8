"""Series output: the bytes of orders where term order is rich, and the
fast output steps against the routes they replace.

`Monomial.sort_key` is one flat tuple, `fgl._unpack` visits only the set
fields of a packed key, and `denominator_profile` takes one lcm per order.
The oracles below are the nested key, the per-coefficient gcd loop and a
field-by-field decode through the validating `Monomial` constructor.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from dprkit import cli, fgl
from dprkit.algebra import CoeffRing, Monomial, Polynomial, VarSymbol
from dprkit.fgl import (
    TruncatedSeries, additive_mode, custom_mode, denominator_profile, division_series,
    multiplicative_mode, universal_mode,
)


def run(capsys, command):
    try:
        code = cli.main(command.split())
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().out


# "argv": (exit code, sha256 of stdout); at order 10 and above many
# same-degree monomials share their first symbols, so the order of the
# terms is pinned where the sort key's later slots decide it
PINNED = {
    "fgl relations --order 10 --format json":
        (0, "b5dc59f8d51a42de3f138326cb8faf6e2f45c8cb089c5b285f3c811153462577"),
    "fgl relations --order 10 --format text":
        (0, "f3ee7a652bd02e3895ecdbb6750693efe2dc332f97d910a735d5e620c7df7add"),
    "fgl inverse --order 12 --format json":
        (0, "4b14d0bb8fbbfaa13ad8ec04d2bb9f5f28da19fd1151995aa7fb4e61c70cfdc8"),
    "fgl inverse --order 12 --format text":
        (0, "52abb1bbb01e218d085e31994c47a8797f90743efbf04cdb85aed4e5c41ca957"),
    "fgl nfold -n 4 --order 10 --format json":
        (0, "deb23c48ce0e7354433131a582a2911f1f560d8ede02a3acb4bdf0c95aaf6d2f"),
    "fgl nfold -n 4 --order 10 --format text":
        (0, "1567d38f37996e15420808f561dbddb49fdf00085eaecf1b3e9a9013de304cc6"),
    "fgl divide -n 6 --order 10 --format json":
        (0, "26a47a9f1288575b5b819c593137d1429901aafe18657ca2b6c367e2b2cb3f11"),
    "fgl divide -n 6 --order 10 --format text":
        (0, "3689d402b9227878126ffc8f85aad5ce7eeecb23bb9312cd5800e1f1bb6aae5a"),
    "fgl divide -n 6 --order 10 --denominator-profile --format json":
        (0, "6015320be3fa41252c8b45ec7ba50c02716b65a4f26cf01bc6e7b648bd477c39"),
    "fgl divide -n 6 --order 10 --denominator-profile --format text":
        (0, "d2f97aa5939be2cf8818a889b05841d68dddc3ad8453f99612e58906cbc2fbd0"),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_series_bytes_are_pinned(capsys, command):
    code, out = run(capsys, command)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[command]


# the sort key ---------------------------------------------------------------


def nested_key(mono):
    """The key as it was: the degree, then one (symbol key, -exponent) pair
    per symbol."""
    return (mono.degree, tuple((s.sort_key, -e) for s, e in mono.pairs))


# relation symbols with one and two indices, the law's a[i][j] and beta,
# and families with no indices, one of them with a bracketed annotation
ALPHABET = [
    VarSymbol("X", (1,)), VarSymbol("X", (2,)), VarSymbol("Y", (1,)), VarSymbol("Y", (10,)),
    VarSymbol("U", (1, 2)), VarSymbol("U", (1, 10)), VarSymbol("U", (2, 1)), VarSymbol("V", (1, 1)),
    VarSymbol("a", (1, 1)), VarSymbol("a", (1, 2)), VarSymbol("a", (2, 2)), VarSymbol("a", (1, 11)),
    VarSymbol("beta"), VarSymbol("t"), VarSymbol("sigma1[A]"),
]


def _drawn_monomials(seed, count):
    rng = random.Random(seed)
    monos = []
    for _ in range(count):
        syms = rng.sample(ALPHABET, rng.randint(0, 4))
        mono = Monomial({s: rng.randint(1, 5) for s in syms})
        monos.append(mono)
        # m and m * s, with s after every symbol of m: m's pairs are a prefix
        later = [s for s in ALPHABET if all(s.sort_key > t.sort_key for t in mono.symbols())]
        if later:
            monos.append(mono * Monomial({rng.choice(later): rng.randint(1, 5)}))
    return monos


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_key_sorts_as_the_nested_key(seed):
    monos = _drawn_monomials(seed, 300)
    assert any(len(m.pairs) > len(n.pairs) and m.pairs[:len(n.pairs)] == n.pairs
               for m, n in zip(monos[1:], monos))
    flat = sorted(monos, key=Monomial.sort_key)
    nested = sorted(monos, key=nested_key)
    assert all(f is n for f, n in zip(flat, nested))
    for m, n in zip(monos, reversed(monos)):
        assert (m.sort_key() < n.sort_key()) == (nested_key(m) < nested_key(n))
        assert (m.sort_key() == n.sort_key()) == (m == n)


def test_same_degree_monomials_with_a_shared_first_symbol():
    # the nested key's later pairs decide here, so the flat key's later
    # slots must: the symbol first, then the higher power first
    x1, u12, a11, beta = ALPHABET[0], ALPHABET[4], ALPHABET[8], ALPHABET[12]
    monos = [Monomial({x1: 2, u12: 1, beta: 1}), Monomial({x1: 2, a11: 2}),
             Monomial({x1: 2, u12: 2}), Monomial({x1: 2, beta: 2}), Monomial({x1: 3, beta: 1})]
    assert sorted(monos, key=Monomial.sort_key) == sorted(monos, key=nested_key) == [
        monos[4], monos[2], monos[0], monos[1], monos[3]]


# the profile and the decode -------------------------------------------------


def profile_oracle(series):
    """The least k with n^k times each coefficient integral, stripped one
    coefficient at a time by gcd with n."""
    (n,) = series.ring.inverted
    out = []
    for (i,), d in sorted(series._coeffs.items()):
        worst = 0
        for c in d.values():
            den = c.denominator
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


def decode_oracle(d, ring):
    """A packed coefficient read field by field into the validating
    constructors, every coefficient through the ring's admission rule."""
    width = fgl._FIELD_BITS
    return Polynomial(ring, {
        Monomial((fgl._syms[pos], (key >> width * pos) & fgl._FIELD_MAX)
                 for pos in range(-(-key.bit_length() // width))): ring.check_coeff(c)
        for key, c in d.items()})


def _drawn_custom(seed, order):
    rng = random.Random(seed)
    return custom_mode({(i, j): rng.randint(-4, 4)
                        for i in range(1, order) for j in range(i, order - i + 1)})


PROFILE_MODES = {
    "universal": universal_mode(), "additive": additive_mode(),
    "multiplicative": multiplicative_mode(),
    "custom-5": _drawn_custom(5, 10), "custom-19": _drawn_custom(19, 10),
}


@pytest.mark.parametrize("name", list(PROFILE_MODES))
def test_profile_and_decode_match_the_per_coefficient_routes(name):
    mode = PROFILE_MODES[name]
    for n in range(2, 10):
        for order in (1, 3, 6, 10):
            series = division_series(n, mode, order)
            assert denominator_profile(series) == profile_oracle(series), (n, order)
            assert [(e, p.terms) for e, p in series.coefficients()] == [
                (e, decode_oracle(series._coeffs[e], series.ring).terms)
                for e in sorted(series._coeffs, key=lambda e: (sum(e), e))], (n, order)


@pytest.mark.parametrize("coeffs", [
    {(1,): {0: Fraction(1, 6)}},
    # a foreign denominator beside admitted ones of the same order
    {(1,): {0: Fraction(1, 2)}, (2,): {0: Fraction(1, 4), 1: Fraction(1, 3)}},
], ids=["one-coefficient", "across-coefficients"])
def test_a_foreign_denominator_still_raises(coeffs):
    series = TruncatedSeries(("u",), 2, CoeffRing([2]), coeffs)
    with pytest.raises(ArithmeticError, match="is foreign to 1/2"):
        denominator_profile(series)
    with pytest.raises(ArithmeticError, match="is foreign to 1/2"):
        profile_oracle(series)
