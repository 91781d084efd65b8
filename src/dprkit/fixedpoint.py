"""Divisor goodness model and the induced evaluation of relation polynomials.

A divisor class carries a character of a finite abelian group
Z/o1 x .. x Z/or, held as its tuple of residues; it is "good" when that
character is trivial, every residue zero.  Characters add residue by residue
along formal sums, so the goodness of any combination is decided by the
residues of its names alone.  One consequence is structural: among the
triple (D, A, D + A) it is impossible for exactly one member to be bad,
since any two trivial characters force the third to be trivial.
`_step_goodness` decides the five cases below in one place for the table,
the chain steps and the final class of the mixed verifier, and raises
`ImpossibleGoodness` should exactly one member ever come out bad;
`guard_report` brute-forces that fact over a whole group.

The goodness table sends each relation-ring generator to an affine image
a*s + b in one of the first-class symbols c[D], sigma1[D], or the opaque
tower composites p2/p3 (q2/q3 on the mirrored side), with fixed integer
values taking over whenever the relevant divisors go bad:

    class X_i        -> c[A_i]               or 1
    marker U1_k      -> sigma1[A_1+..+A_k]   or 2
    marker U2_k      -> p2[k], 2*sigma1[D], 2 + sigma1[A_k],
                        2 + sigma1[D+A_k], or 4
    marker U3_k      -> p3[k], 1 + sigma1[D], 1 + sigma1[A_k],
                        1 + sigma1[D+A_k], or 3

where for U2_k and U3_k the combination D is A_1 + .. + A_{k-1} and the five
cases are: all of (D, A_k, D+A_k) good; only D good; only A_k good; only
D+A_k good; all bad.  Y and V generators mirror the table with the B-side
divisor list.  Indices past the declared class counts map to zero.  The
fixed integers are read from `ALL_BAD_VALUES`, the same values that
`all_bad_evaluation` substitutes.

The table is held once, in that affine form, by `_image`.  It has two
readers: `fprime_of_var` builds the image as a polynomial (for
`claim1_case_check` and `fprime_eval`), and the mixed verifier reads it as
a value at the sampled point, a*point[s] + b, with no polynomial built.

A context keeps, for as long as it lives, the character of each
combination it was asked about and the case of each chain step
(`GoodnessContext.step`), so a chain walk and the U2_k and U3_k entries of
the table classify a step once between them; `_step_goodness` itself stays
pure.  The table's symbols (`c_symbol`, `sigma_symbol` and the p2/p3/q2/q3
towers, `_tower_symbol`) are `functools.cache` functions of their names:
pure, so a process-wide cache changes no output, and what they return are
interned `VarSymbol`s, which live that long anyway.

`claim1_case_check` runs the two-and-one base identity through every
goodness pattern: with all three divisors good the difference of the two
sides is exactly the blow-up defect expression (verified to vanish by the
sampled checks in `operators`), and in the four degenerate patterns the
difference collapses to literally zero.  `verify_mixed_contexts` extends
this to larger class counts by sampling random characters, propagating the
chain of blow-up relations through good steps, and comparing both sides
exactly.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterable, Mapping, Sequence, Union

from .algebra import Coeff, Immutable, Polynomial, UnboundVariable, VarSymbol, poly_to_json
from .dpr import DprPolynomial, family_key, relation_symbols, relation_values
from .operators import VerificationReport, blow_up, h_expression, last_class, run_trials

__all__ = [
    "GoodnessContext",
    "UnknownDivisor",
    "IndexOutOfRange",
    "ImpossibleGoodness",
    "InconsistentSolve",
    "guard_report",
    "parse_group_spec",
    "c_symbol",
    "sigma_symbol",
    "fprime_of_var",
    "fprime_eval",
    "claim1_case_check",
    "all_bad_evaluation",
    "verify_mixed_contexts",
    "DEFAULT_GUARD_GROUPS",
]

DEFAULT_GUARD_GROUPS = ((2,), (3,), (2, 2), (6,))

ALL_BAD_VALUES = {"X": 1, "Y": 1, ("U", 1): 2, ("V", 1): 2,
                  ("U", 2): 4, ("V", 2): 4, ("U", 3): 3, ("V", 3): 3}


class UnknownDivisor(KeyError):
    """A combination mentions a divisor name the context does not bind."""


class IndexOutOfRange(ValueError):
    """A generator index is structurally invalid for the evaluation table."""


class ImpossibleGoodness(AssertionError):
    """Exactly one of (D, A, D + A) came out bad, which additive characters
    rule out; the goodness model is broken."""


class InconsistentSolve(AssertionError):
    """A solve contradicted what goodness forces; the mixed verifier raises it
    when a bad total class does not pin the first-family chain to 1."""


def _add(a: tuple[int, ...], b: tuple[int, ...], group: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of two characters of `group`, reduced."""
    return tuple((x + y) % o for x, y, o in zip(a, b, group))


class GoodnessContext(Immutable):
    """Ordered divisor lists for both sides plus their characters.

    `residues` binds every divisor name to its character, a residue tuple of
    Z/o1 x .. x Z/or reduced on construction; `aliases` maps whole
    combinations (as ordered name tuples) to one label so that linearly
    equivalent sums on the two sides share one sigma1 label.  An alias target
    that is itself a bound name must carry the same character as the
    combination it names.

    A context keeps what it classifies: the character of each combination
    `good` was asked about, and the case `step` found for each chain step,
    keyed by (names, k).  Both live as long as the context does; a trial of
    the mixed verifier draws a fresh one.
    """

    __slots__ = ("group", "x_divisors", "y_divisors", "_residues", "_aliases", "_characters",
                 "_steps")

    def __init__(
        self,
        group: Sequence[int],
        x_divisors: Sequence[str],
        y_divisors: Sequence[str],
        residues: Mapping[str, Sequence[int]],
        aliases: Mapping[tuple[str, ...], str] | None = None,
    ):
        group = tuple(group)
        if not group or any(o < 1 for o in group):
            raise ValueError("group orders must be positive")
        reduced = {}
        for name, res in residues.items():
            if not name:
                raise ValueError("empty divisor name")
            if len(res) != len(group):
                raise ValueError(f"residue count of {name} must match the group rank")
            reduced[name] = tuple(r % o for r, o in zip(res, group))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "x_divisors", tuple(x_divisors))
        object.__setattr__(self, "y_divisors", tuple(y_divisors))
        object.__setattr__(self, "_residues", reduced)
        object.__setattr__(self, "_aliases", dict(aliases or {}))
        object.__setattr__(self, "_characters", {})
        object.__setattr__(self, "_steps", {})
        for name in self.x_divisors + self.y_divisors:
            if name not in reduced:
                raise UnknownDivisor(name)
        for combo, target in self._aliases.items():
            total = self.character_of(combo)
            if target in reduced and reduced[target] != total:
                raise ValueError(f"alias {target} disagrees with its combination")

    def character_of(self, combo: Union[str, Iterable[str]]) -> tuple[int, ...]:
        if isinstance(combo, str):
            combo = (combo,)
        total = None
        for name in combo:
            if name not in self._residues:
                raise UnknownDivisor(name)
            res = self._residues[name]
            total = res if total is None else _add(total, res, self.group)
        if total is None:
            raise ValueError("empty combination")
        return total

    def good(self, combo: Union[str, Iterable[str]]) -> bool:
        """Whether the character of `combo` is trivial.  Each combination's
        character is summed once per context and kept, so the chain steps and
        the table entries that ask again read it back."""
        key = (combo,) if isinstance(combo, str) else tuple(combo)
        char = self._characters.get(key)
        if char is None:
            char = self._characters[key] = self.character_of(key)
        return not any(char)

    def step(self, names: tuple[str, ...], k: int) -> tuple[str, VarSymbol | None]:
        """`_step_goodness(self, names, k)`, classified on the first ask for
        `(names, k)` and kept, so a chain walk and the U2_k and U3_k entries
        of the table read one case.  A raise is not kept."""
        key = (names, k)
        case = self._steps.get(key)
        if case is None:
            case = self._steps[key] = _step_goodness(self, names, k)
        return case

    def combo_name(self, combo: Union[str, Sequence[str]]) -> str:
        """Canonical label: alias if declared, else the joined name sum."""
        if isinstance(combo, str):
            combo = (combo,)
        combo = tuple(combo)
        hit = self._aliases.get(combo)
        if hit is not None:
            return hit
        if len(combo) == 1:
            return combo[0]
        return "+".join(combo)


def guard_report(group: Sequence[int]) -> dict:
    """Check the guard over every character assignment to a two-and-one alphabet."""
    orders = tuple(group)
    residue_space = list(itertools.product(*(range(o) for o in orders)))
    holds = True
    for res_a, res_b in itertools.product(residue_space, repeat=2):
        try:
            _step_goodness(_claim1_context(orders, res_a, res_b), ("A", "B"), 2)
        except ImpossibleGoodness:
            holds = False
    return {"group": list(orders), "contexts": len(residue_space) ** 2, "holds": holds}


def parse_group_spec(text: str) -> tuple[int, ...]:
    """Parse a product-group spec such as "2", "2x2", or "2x3"."""
    parts = text.strip().lower().split("x")
    try:
        orders = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad group spec: {text!r}") from None
    if not orders or any(o < 1 for o in orders):
        raise ValueError(f"bad group spec: {text!r}")
    return orders


# the evaluation table ------------------------------------------------------


# the table's symbols, cached by name: a repeat ask builds no name string
@cache
def c_symbol(name: str) -> VarSymbol:
    return VarSymbol(f"c[{name}]")


@cache
def sigma_symbol(name: str) -> VarSymbol:
    return VarSymbol(f"sigma1[{name}]")


@cache
def _tower_symbol(prefix: str, k: int) -> VarSymbol:
    return VarSymbol(prefix, (k,))


def _step_goodness(ctx: GoodnessContext, names: Sequence[str], k: int) -> tuple[str, VarSymbol | None]:
    """Goodness of step k of a chain: the triple (D, A_k, D + A_k) with
    D = A_1 + .. + A_{k-1}.

    Returns the case and the sigma1 symbol it uses.  The case is "all" when
    all three are good (sigma1 of D), "head", "last" or "full" when only D,
    A_k or D + A_k is (sigma1 of that member), and "none" when all are bad
    (no symbol).  Exactly one bad member cannot come from characters and
    raises ImpossibleGoodness.
    """
    head, last, full = names[:k - 1], names[k - 1], names[:k]
    good = (ctx.good(head), ctx.good(last), ctx.good(full))
    if sum(good) == 2:
        raise ImpossibleGoodness(f"exactly one bad divisor among {(head, last, full)}")
    if all(good):
        return "all", sigma_symbol(ctx.combo_name(head))
    for case, combo, is_good in zip(("head", "last", "full"), (head, (last,), full), good):
        if is_good:
            return case, sigma_symbol(ctx.combo_name(combo))
    return "none", None


def _image(var: VarSymbol, ctx: GoodnessContext) -> tuple[VarSymbol | None, int, int]:
    """Image of one relation-ring generator under the goodness table, in
    affine form (symbol, a, b): a*symbol + b, or the integer b when symbol
    is None."""
    fam = var.family
    if fam in ("X", "Y"):
        if len(var.indices) != 1:
            raise IndexOutOfRange(f"malformed class symbol {var}")
        names = ctx.x_divisors if fam == "X" else ctx.y_divisors
        i = var.indices[0]
        if i < 1:
            raise IndexOutOfRange(f"class index must be positive: {var}")
        if i > len(names):
            return None, 0, 0
        name = names[i - 1]
        if ctx.good(name):
            return c_symbol(name), 1, 0
        return None, 0, ALL_BAD_VALUES[fam]
    if fam in ("U", "V"):
        if len(var.indices) != 2:
            raise IndexOutOfRange(f"malformed marker symbol {var}")
        kind, k = var.indices
        names = ctx.x_divisors if fam == "U" else ctx.y_divisors
        towers = ("p2", "p3") if fam == "U" else ("q2", "q3")
        if kind == 1:
            if k < 1:
                raise IndexOutOfRange(f"marker index must be positive: {var}")
            if k > len(names):
                return None, 0, 0
            combo = names[:k]
            if ctx.good(combo):
                return sigma_symbol(ctx.combo_name(combo)), 1, 0
            return None, 0, ALL_BAD_VALUES[fam, kind]
        if kind in (2, 3):
            if k < 2:
                raise IndexOutOfRange(f"tower marker needs index >= 2: {var}")
            if k > len(names):
                return None, 0, 0
            case, sigma = ctx.step(names, k)
            if case == "all":
                return _tower_symbol(towers[kind - 2], k), 1, 0
            if case == "none":
                return None, 0, ALL_BAD_VALUES[fam, kind]
            if case == "head" and kind == 2:
                return sigma, 2, 0
            return sigma, 1, 2 if kind == 2 else 1
        raise IndexOutOfRange(f"unknown marker kind {kind} in {var}")
    raise IndexOutOfRange(f"{var} is not a relation-ring generator")


def fprime_of_var(var: VarSymbol, ctx: GoodnessContext) -> Polynomial:
    """Image of one relation-ring generator under the goodness table, as a
    polynomial."""
    sym, a, b = _image(var, ctx)
    if sym is None:
        return Polynomial.constant(b)
    return Polynomial.variable(sym) * a + b


def _image_value(var: VarSymbol, ctx: GoodnessContext,
                 point: Mapping[VarSymbol, Coeff]) -> Coeff:
    """Value of one generator's image at `point`, read off the table without
    building a polynomial; what `fprime_of_var(var, ctx).evaluate_rational(point)`
    gives."""
    sym, a, b = _image(var, ctx)
    if sym is None:
        return b
    if sym not in point:
        raise UnboundVariable(str(sym))
    return a * point[sym] + b


def fprime_eval(g: Union[DprPolynomial, Polynomial], ctx: GoodnessContext) -> Polynomial:
    """Homomorphic extension of the table to a whole relation polynomial."""
    poly = g.to_polynomial() if isinstance(g, DprPolynomial) else g
    return poly.substitute({s: fprime_of_var(s, ctx) for s in poly.symbols()})


# the five base goodness patterns -------------------------------------------

_CLAIM1_PATTERNS = {
    1: ((2,), (0,), (0,)),
    2: ((2,), (0,), (1,)),
    3: ((2,), (1,), (0,)),
    4: ((2,), (1,), (1,)),
    5: ((3,), (1,), (1,)),
}


def _claim1_context(group: tuple[int, ...], res_a: Sequence[int], res_b: Sequence[int]) -> GoodnessContext:
    return GoodnessContext(
        group,
        ("A", "B"),
        ("C",),
        {"A": res_a, "B": res_b, "C": _add(res_a, res_b, group)},
        {("A", "B"): "C"},
    )


def _render(p: Polynomial):
    if p.is_constant():
        return int(p.constant_value())
    return poly_to_json(p)


def claim1_case_check(case: int) -> dict:
    """Compare both sides of the two-and-one identity under one goodness pattern.

    Case 1 has every divisor good; its difference is the blow-up defect
    expression whose vanishing the sampled verifiers certify, so equality is
    checked against that expression rather than against zero.  Cases 2-5 set
    (A good, B good) to (+,-), (-,+), (-,-) with A+B good, and all-bad over
    Z/3; in each the two sides collapse to the same expression outright.
    """
    if case not in _CLAIM1_PATTERNS:
        raise ValueError(f"case must be 1..5, got {case}")
    group, res_a, res_b = _CLAIM1_PATTERNS[case]
    ctx = _claim1_context(group, res_a, res_b)
    # the table extends to a ring morphism, so running the recursion on the
    # generators' images gives fprime_eval(build_gx(2, 1), ctx) and
    # fprime_eval(build_gy(1, 2), ctx) without expanding either
    images = {sym: fprime_of_var(sym, ctx) for sym in relation_symbols(2, 1)}
    lhs, rhs = relation_values(2, 1, images)
    if case == 1:
        renames = {
            VarSymbol("cL"): c_symbol("A"),
            VarSymbol("cM"): c_symbol("B"),
            VarSymbol("cLM"): c_symbol("C"),
            VarSymbol("sigma1"): sigma_symbol("A"),
            VarSymbol("sigma2"): _tower_symbol("p2", 2),
            VarSymbol("sigma3"): _tower_symbol("p3", 2),
        }
        defect = h_expression().map_symbols(lambda s: renames.get(s, s))
        equal = (lhs - rhs) == defect
    else:
        equal = lhs == rhs
    return {"case": case, "lhs": _render(lhs), "rhs": _render(rhs), "equal": equal}


def all_bad_evaluation(n: int, m: int) -> dict:
    """Evaluate both sides with every divisor bad, where images are integers."""
    if n < 1 or m < 1:
        raise ValueError("class counts must be positive")
    point = {sym: ALL_BAD_VALUES[family_key(sym)] for sym in relation_symbols(n, m)}
    lhs, rhs = relation_values(n, m, point)
    return {"n": n, "m": m, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# sampled mixed-goodness identity -------------------------------------------


def _sample_degenerate(case, sigma, last, val) -> None:
    """Sample what the images of a step that is not all good use: the last
    class when it alone is good, then the sigma1 of the good member."""
    if case == "last":
        val(c_symbol(last))
    if sigma is not None:
        val(sigma)


def _walk(ctx, names, classes, val, fresh, towers) -> Coeff:
    """Combined class value of the first `classes` classes of a chain,
    sampling what each step needs.

    The first class takes its sampled value when good and 1 when bad.  An
    all-good step is forced by the blow-up relation; a step whose combined
    class is bad pins the value to 1, and when only the combined class is
    good the relation is vacuous so the value is free.  The value is an
    int (a draw or the pinned 1) except after an all-good step, where
    `blow_up` divides and returns a Fraction.  Values come from
    the samples, never through the table reader `_image`: the recursion
    solves the blow-up law at any generator values, so a walk read off the
    table would let the final comparison pass whatever an all-good entry
    said.
    """
    first = names[0]
    t = val(c_symbol(first)) if ctx.good(first) else 1
    for k in range(2, classes + 1):
        case, sigma = ctx.step(names, k)
        if case == "all":
            s1 = val(sigma)
            c = val(c_symbol(names[k - 1]))
            p2 = val(_tower_symbol(towers[0], k))
            p3 = val(_tower_symbol(towers[1], k))
            t = blow_up(t, c, s1, p2 - p3)
        else:
            _sample_degenerate(case, sigma, names[k - 1], val)
            t = fresh() if case == "full" else 1
    return t


def _mixed_context(rng, n, m, group) -> GoodnessContext:
    """Characters for n A classes and m B classes with equal totals; both
    full sums are aliased to the shared total class T."""
    def draw() -> tuple[int, ...]:
        return tuple(rng.randrange(o) for o in group)

    a_res = [draw() for _ in range(n)]
    b_res = [draw() for _ in range(m - 1)]
    # the last B class balances the totals; the context reduces it
    b_res.append(tuple(sum(a[i] for a in a_res) - sum(b[i] for b in b_res)
                       for i in range(len(group))))
    x_names = tuple(f"A{i}" for i in range(1, n + 1))
    y_names = tuple(f"B{j}" for j in range(1, m + 1))
    return GoodnessContext(group, x_names, y_names, dict(zip(x_names + y_names, a_res + b_res)),
                           {x_names: "T", y_names: "T"})


def _mixed_trial(rng, ctx: GoodnessContext, sample_range) -> bool:
    """One sampled goodness pattern: GX(n, m) and GY(m, n) at the images of
    their generators must agree, for the n A classes and m B classes of a
    context `_mixed_context` drew.

    Sample the first classes and the towers, walk both chains forward by
    `_walk`, and set the last B class so that both chains meet at the
    shared total-class value t.  Samples are drawn as ints and stay ints
    through the table and the recursion; a Fraction comes only from
    `blow_up` and `last_class`.  The images are read off the table as
    values (`_image_value`), so no polynomial is built.  Write R = T + t*F - t for each chain at the images; then

        GX - GY = (1 - F^Y_m) * R_X - (1 - F^X_n) * R_Y,

    so the final comparison can fail whenever a blow-up iterate stops
    solving its chain relation at the sample, for instance under a wrong
    table entry (`test_mixed_contexts_catch_a_wrong_table_entry`).
    """
    x_names, y_names = ctx.x_divisors, ctx.y_divisors
    n, m = len(x_names), len(y_names)

    point: dict[VarSymbol, Coeff] = {}

    def fresh() -> Coeff:
        return rng.randint(-sample_range, sample_range)

    def val(sym: VarSymbol) -> Coeff:
        if sym not in point:
            point[sym] = fresh()
        return point[sym]

    t = _walk(ctx, x_names, n, val, fresh, ("p2", "p3"))
    if t != 1 and not ctx.good(x_names):
        # a bad total class pins the first-family chain to 1, for every m
        raise InconsistentSolve(
            f"first-family chain gave {t} where a bad total class pins it to 1")

    if m == 1:
        if ctx.good(y_names[0]):
            point[c_symbol(y_names[0])] = t
    else:
        t_y = _walk(ctx, y_names, m - 1, val, fresh, ("q2", "q3"))
        case, sigma = ctx.step(y_names, m)
        last = y_names[m - 1]
        if case == "all":
            # solve the final class value so both chains meet at the
            # shared total class
            s1 = val(sigma)
            q2 = val(_tower_symbol("q2", m))
            q3 = val(_tower_symbol("q3", m))
            point[c_symbol(last)] = last_class(t, t_y, s1, q2 - q3)
        else:
            _sample_degenerate(case, sigma, last, val)

    images = {sym: _image_value(sym, ctx, point) for sym in relation_symbols(n, m)}
    gx, gy = relation_values(n, m, images)
    return gx == gy


def verify_mixed_contexts(
    n: int,
    m: int,
    trials: int = 20,
    seed: int = 0,
    sample_range: int = 1000,
) -> VerificationReport:
    """Sample random goodness patterns and compare both sides exactly."""
    if n < 1 or m < 1:
        raise ValueError("class counts must be positive")

    def trial(number, rng) -> bool:
        group = DEFAULT_GUARD_GROUPS[number % len(DEFAULT_GUARD_GROUPS)]
        # the context is the first draw of each trial, its samples follow
        return _mixed_trial(rng, _mixed_context(rng, n, m, group), sample_range)

    return run_trials("mixed", n, m, None, trial, seed, trials, sample_range)
