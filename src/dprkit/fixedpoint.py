"""Divisor goodness model and the induced evaluation of relation polynomials.

A divisor class carries a character of a finite abelian group; it is "good"
when that character is trivial.  Characters add along formal sums, so the
goodness of any combination is decided by the basic assignments alone.  One
consequence is structural: among the triple (D, A, D + A) it is impossible
for exactly one member to be bad, since any two trivial characters force the
third to be trivial.  `impossible_case_guard` exposes that fact as an
executable check and `exhaustive_guard` brute-forces it over a whole group.

`fprime_of_var` sends each relation-ring generator to a small polynomial in
first-class symbols c[D], sigma1[D], and opaque tower composites p2/p3 (or
q2/q3 on the mirrored side), with fixed integer values taking over whenever
the relevant divisors go bad:

    class X_i        -> c[A_i]               or 1
    marker U1_k      -> sigma1[A_1+..+A_k]   or 2
    marker U2_k      -> p2[k], 2*sigma1[D], 2 + sigma1[A_k],
                        2 + sigma1[D+A_k], or 4
    marker U3_k      -> p3[k], 1 + sigma1[D], 1 + sigma1[A_k],
                        1 + sigma1[D+A_k], or 3

where for U2_k and U3_k the combination D is A_1 + .. + A_{k-1} and the five
cases are: all of (D, A_k, D+A_k) good; only D good; only A_k good; only
D+A_k good; all bad.  Y and V generators mirror the table with the B-side
divisor list.  Indices past the declared class counts map to zero.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .algebra import Polynomial, VarSymbol, poly_to_json
from .dpr import DprPolynomial, chain_symbols, relation_value
from .operators import (
    DegenerateSample,
    InconsistentSolve,
    RESAMPLE_LIMIT,
    RelationSystem,
    ResampleLimitExceeded,
    VerificationReport,
    apply_G,
    h_expression,
)

__all__ = [
    "Character",
    "GoodnessContext",
    "UnknownDivisor",
    "IndexOutOfRange",
    "ImpossibleGoodness",
    "make_context",
    "impossible_case_guard",
    "exhaustive_guard",
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


def _check_not_exactly_one_bad(good: Sequence[bool], names) -> None:
    if sum(good) == 2:
        raise ImpossibleGoodness(f"exactly one bad divisor among {names}")


@dataclass(frozen=True)
class Character:
    """An element of Z/o1 x .. x Z/or, written additively."""

    orders: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(o < 1 for o in self.orders):
            raise ValueError("group orders must be positive")
        if len(self.residues) != len(self.orders):
            raise ValueError("residue count must match group rank")
        object.__setattr__(
            self, "residues",
            tuple(r % o for r, o in zip(self.residues, self.orders)),
        )

    @classmethod
    def zero(cls, orders: Sequence[int]) -> "Character":
        return cls(tuple(orders), tuple(0 for _ in orders))

    @property
    def trivial(self) -> bool:
        return all(r == 0 for r in self.residues)

    def __add__(self, other: "Character") -> "Character":
        if self.orders != other.orders:
            raise ValueError("characters live in different groups")
        return Character(
            self.orders,
            tuple(a + b for a, b in zip(self.residues, other.residues)),
        )

    def __neg__(self) -> "Character":
        return Character(self.orders, tuple(-r for r in self.residues))

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)


@dataclass(frozen=True)
class GoodnessContext:
    """Ordered divisor lists for both sides plus their character assignment.

    `basic` binds every divisor name to a character; `aliases` renames whole
    combinations (as ordered name tuples) so that linearly equivalent sums on
    the two sides share one sigma1 label.  An alias target that is itself a
    bound name must carry the same character as the combination it names.
    """

    group: tuple[int, ...]
    x_divisors: tuple[str, ...]
    y_divisors: tuple[str, ...]
    basic: tuple[tuple[str, Character], ...]
    aliases: tuple[tuple[tuple[str, ...], str], ...] = ()

    def __post_init__(self):
        chars = dict(self.basic)
        if len(chars) != len(self.basic):
            raise ValueError("duplicate divisor name")
        for name, ch in self.basic:
            if not name:
                raise ValueError("empty divisor name")
            if ch.orders != self.group:
                raise ValueError(f"character of {name} lives in the wrong group")
        for name in self.x_divisors + self.y_divisors:
            if name not in chars:
                raise UnknownDivisor(name)
        alias_map = {}
        for combo, target in self.aliases:
            total = self._sum_character(chars, combo)
            if target in chars and chars[target] != total:
                raise ValueError(f"alias {target} disagrees with its combination")
            alias_map[combo] = target
        object.__setattr__(self, "_chars", chars)
        object.__setattr__(self, "_alias_map", alias_map)

    @staticmethod
    def _sum_character(chars: Mapping[str, Character], combo: Iterable[str]) -> Character:
        total = None
        for name in combo:
            if name not in chars:
                raise UnknownDivisor(name)
            total = chars[name] if total is None else total + chars[name]
        if total is None:
            raise ValueError("empty combination")
        return total

    def character_of(self, combo: Union[str, Iterable[str]]) -> Character:
        if isinstance(combo, str):
            combo = (combo,)
        return self._sum_character(self._chars, combo)

    def good(self, combo: Union[str, Iterable[str]]) -> bool:
        return self.character_of(combo).trivial

    def combo_name(self, combo: Union[str, Sequence[str]]) -> str:
        """Canonical label: alias if declared, else the joined name sum."""
        if isinstance(combo, str):
            combo = (combo,)
        combo = tuple(combo)
        hit = self._alias_map.get(combo)
        if hit is not None:
            return hit
        if len(combo) == 1:
            return combo[0]
        return "+".join(combo)


def make_context(
    group: Sequence[int],
    x_divisors: Sequence[str],
    y_divisors: Sequence[str],
    residues: Mapping[str, Sequence[int]],
    aliases: Mapping[Sequence[str], str] | None = None,
) -> GoodnessContext:
    orders = tuple(group)
    basic = tuple((name, Character(orders, tuple(res))) for name, res in residues.items())
    alias_items = tuple(
        (tuple(combo), target) for combo, target in (aliases or {}).items()
    )
    return GoodnessContext(orders, tuple(x_divisors), tuple(y_divisors), basic, alias_items)


def impossible_case_guard(ctx: GoodnessContext, combo: Union[str, Sequence[str]], extra: str) -> bool:
    """True iff NOT exactly one of (combo, extra, combo+extra) is bad."""
    if isinstance(combo, str):
        combo = (combo,)
    bad = sum((
        not ctx.good(combo),
        not ctx.good(extra),
        not ctx.good(tuple(combo) + (extra,)),
    ))
    return bad != 1


def exhaustive_guard(group: Sequence[int]) -> bool:
    """Check the guard over every character assignment to a two-and-one alphabet."""
    return guard_report(group)["holds"]


def guard_report(group: Sequence[int]) -> dict:
    orders = tuple(group)
    residue_space = list(itertools.product(*(range(o) for o in orders)))
    contexts = 0
    holds = True
    for res_a in residue_space:
        for res_b in residue_space:
            ctx = _claim1_context(orders, res_a, res_b)
            contexts += 1
            if not impossible_case_guard(ctx, ("A",), "B"):
                holds = False
    return {"group": list(orders), "contexts": contexts, "holds": holds}


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


def c_symbol(name: str) -> VarSymbol:
    return VarSymbol(f"c[{name}]")


def sigma_symbol(name: str) -> VarSymbol:
    return VarSymbol(f"sigma1[{name}]")


def _tower_symbol(prefix: str, k: int) -> VarSymbol:
    return VarSymbol(prefix, (k,))


def _const(v: int) -> Polynomial:
    return Polynomial.constant(v)


def _var(sym: VarSymbol) -> Polynomial:
    return Polynomial.variable(sym)


def fprime_of_var(var: VarSymbol, ctx: GoodnessContext) -> Polynomial:
    """Image of one relation-ring generator under the goodness table."""
    fam = var.family
    if fam in ("X", "Y"):
        if len(var.indices) != 1:
            raise IndexOutOfRange(f"malformed class symbol {var}")
        names = ctx.x_divisors if fam == "X" else ctx.y_divisors
        i = var.indices[0]
        if i < 1:
            raise IndexOutOfRange(f"class index must be positive: {var}")
        if i > len(names):
            return Polynomial.zero()
        name = names[i - 1]
        return _var(c_symbol(name)) if ctx.good(name) else _const(1)
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
                return Polynomial.zero()
            combo = names[:k]
            if ctx.good(combo):
                return _var(sigma_symbol(ctx.combo_name(combo)))
            return _const(2)
        if kind in (2, 3):
            if k < 2:
                raise IndexOutOfRange(f"tower marker needs index >= 2: {var}")
            if k > len(names):
                return Polynomial.zero()
            head = names[:k - 1]
            last = names[k - 1]
            full = names[:k]
            base = 2 if kind == 2 else 1
            good_head, good_last, good_full = ctx.good(head), ctx.good(last), ctx.good(full)
            _check_not_exactly_one_bad((good_head, good_last, good_full), (head, last, full))
            if good_head and good_last and good_full:
                return _var(_tower_symbol(towers[kind - 2], k))
            if good_head:
                s = _var(sigma_symbol(ctx.combo_name(head)))
                return s * 2 if kind == 2 else s + 1
            if good_last:
                return _var(sigma_symbol(ctx.combo_name((last,)))) + base
            if good_full:
                return _var(sigma_symbol(ctx.combo_name(full))) + base
            # exactly one bad is ruled out above, so each branch before this
            # one has a single good member; here all three are bad
            return _const(4 if kind == 2 else 3)
        raise IndexOutOfRange(f"unknown marker kind {kind} in {var}")
    raise IndexOutOfRange(f"{var} is not a relation-ring generator")


def fprime_eval(g: Union[DprPolynomial, Polynomial], ctx: GoodnessContext) -> Polynomial:
    """Homomorphic extension of the table to a whole relation polynomial."""
    poly = g.to_polynomial() if isinstance(g, DprPolynomial) else g
    images = {s: fprime_of_var(s, ctx) for s in poly.symbols()}
    return apply_G(poly, images)


# the five base goodness patterns -------------------------------------------

_CLAIM1_PATTERNS = {
    1: ((2,), (0,), (0,)),
    2: ((2,), (0,), (1,)),
    3: ((2,), (1,), (0,)),
    4: ((2,), (1,), (1,)),
    5: ((3,), (1,), (1,)),
}


def _claim1_context(group: tuple[int, ...], res_a: Sequence[int], res_b: Sequence[int]) -> GoodnessContext:
    a = Character(group, tuple(res_a))
    b = Character(group, tuple(res_b))
    return make_context(
        group,
        ("A", "B"),
        ("C",),
        {"A": a.residues, "B": b.residues, "C": (a + b).residues},
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
    images = {sym: fprime_of_var(sym, ctx)
              for sym in chain_symbols("X", 2) + chain_symbols("Y", 1)}
    lhs = relation_value("X", 2, 1, images)
    rhs = relation_value("Y", 1, 2, images)
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


def _family_key(sym: VarSymbol):
    """Key of ALL_BAD_VALUES for a generator: "X", "Y", or (family, kind)."""
    return sym.family if sym.family in ("X", "Y") else (sym.family, sym.indices[0])


def all_bad_evaluation(n: int, m: int) -> dict:
    """Evaluate both sides with every divisor bad, where images are integers."""
    if n < 1 or m < 1:
        raise ValueError("class counts must be positive")
    point = {sym: ALL_BAD_VALUES[_family_key(sym)]
             for sym in chain_symbols("X", n) + chain_symbols("Y", m)}
    lhs = relation_value("X", n, m, point)
    rhs = relation_value("Y", m, n, point)
    return {"n": n, "m": m, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# sampled mixed-goodness identity -------------------------------------------


def _advance(ctx, names, k, t_prev, val, fresh, towers):
    """Push the chain value one class forward, sampling what the step needs.

    Returns the value of the combined class through index k.  Good steps are
    forced by the blow-up relation; a step whose combined class is bad pins
    the value to 1, and when only the combined class is good the relation is
    vacuous so the value is free.
    """
    head = names[:k - 1]
    last = names[k - 1]
    full = names[:k]
    good_head, good_last, good_full = ctx.good(head), ctx.good(last), ctx.good(full)
    if good_head and good_last and good_full:
        s1 = val(sigma_symbol(ctx.combo_name(head)))
        c = val(c_symbol(last))
        p2 = val(_tower_symbol(towers[0], k))
        p3 = val(_tower_symbol(towers[1], k))
        den = 1 - t_prev * c * (p2 - p3)
        if den == 0:
            raise DegenerateSample("vanishing blow-up denominator")
        return (t_prev + c - t_prev * c * s1) / den
    if good_head:
        val(sigma_symbol(ctx.combo_name(head)))
        return Fraction(1)
    if good_last:
        val(c_symbol(last))
        val(sigma_symbol(ctx.combo_name((last,))))
        return Fraction(1)
    if good_full:
        val(sigma_symbol(ctx.combo_name(full)))
        return fresh()
    return Fraction(1)


def _start(ctx, names, val):
    first = names[0]
    return val(c_symbol(first)) if ctx.good(first) else Fraction(1)


def _mixed_trial(rng, n, m, group, sample_range) -> bool:
    zero = Character.zero(group)

    def draw() -> Character:
        return Character(tuple(group), tuple(rng.randrange(o) for o in group))

    a_chars = [draw() for _ in range(n)]
    b_chars = [draw() for _ in range(m - 1)]
    total = sum(a_chars, zero)
    b_chars.append(total - sum(b_chars, zero))
    x_names = tuple(f"A{i}" for i in range(1, n + 1))
    y_names = tuple(f"B{j}" for j in range(1, m + 1))
    residues = {name: ch.residues for name, ch in
                zip(x_names + y_names, a_chars + b_chars)}
    ctx = make_context(group, x_names, y_names, residues,
                       {x_names: "T", y_names: "T"})

    point: dict[VarSymbol, Fraction] = {}

    def fresh() -> Fraction:
        return Fraction(rng.randint(-sample_range, sample_range))

    def val(sym: VarSymbol) -> Fraction:
        if sym not in point:
            point[sym] = fresh()
        return point[sym]

    t = _start(ctx, x_names, val)
    for k in range(2, n + 1):
        t = _advance(ctx, x_names, k, t, val, fresh, ("p2", "p3"))

    if m == 1:
        if ctx.good(y_names[0]):
            point[c_symbol(y_names[0])] = t
    else:
        t_y = _start(ctx, y_names, val)
        for l in range(2, m):
            t_y = _advance(ctx, y_names, l, t_y, val, fresh, ("q2", "q3"))
        head = y_names[:m - 1]
        last = y_names[m - 1]
        good_head, good_last = ctx.good(head), ctx.good(last)
        if ctx.good(y_names):
            if good_head and good_last:
                # solve the final class value so both chains meet at the
                # shared total class
                s1 = val(sigma_symbol(ctx.combo_name(head)))
                q2 = val(_tower_symbol("q2", m))
                q3 = val(_tower_symbol("q3", m))
                den = 1 - t_y * s1 + t_y * t * (q2 - q3)
                if den == 0:
                    raise DegenerateSample("vanishing final-class denominator")
                point[c_symbol(last)] = (t - t_y) / den
            else:
                _check_not_exactly_one_bad((good_head, good_last, True), (head, last, y_names))
                val(sigma_symbol(ctx.combo_name(y_names)))
        else:
            if good_head:
                val(sigma_symbol(ctx.combo_name(head)))
            elif good_last:
                val(c_symbol(last))
                val(sigma_symbol(ctx.combo_name((last,))))
            if t != 1:
                raise InconsistentSolve(
                    f"first-family chain gave {t} where a bad total class pins it to 1"
                )

    images = {sym: fprime_of_var(sym, ctx).evaluate_rational(point)
              for sym in chain_symbols("X", n) + chain_symbols("Y", m)}
    return relation_value("X", n, m, images) == relation_value("Y", m, n, images)


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
    system = RelationSystem(seed=seed, trials=trials, sample_range=sample_range)
    resamples = 0
    passed = True
    for trial in range(trials):
        group = DEFAULT_GUARD_GROUPS[trial % len(DEFAULT_GUARD_GROUPS)]
        outcome = None
        for retry in range(RESAMPLE_LIMIT):
            rng = system.rng(trial, retry)
            try:
                outcome = _mixed_trial(rng, n, m, group, sample_range)
            except DegenerateSample:
                resamples += 1
                continue
            break
        if outcome is None:
            raise ResampleLimitExceeded(
                f"no usable sample for trial {trial} after {RESAMPLE_LIMIT} tries"
            )
        if not outcome:
            passed = False
    return VerificationReport(
        identity="mixed",
        n=n,
        m=m,
        trials=trials,
        resamples=resamples,
        passed=passed,
        seed=seed,
        degree_bound=None,
        sample_range=sample_range,
    )
