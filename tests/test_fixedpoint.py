"""Goodness contexts, the generator evaluation table, and its identities."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dprkit import fixedpoint
from dprkit.algebra import Polynomial, UnboundVariable, VarSymbol, poly_to_json
from dprkit.dpr import (build_ex, build_ey, build_fx, build_fy, build_gx, build_gy,
                       chain_symbols, family_key, relation_symbols, relation_values)
from dprkit.fixedpoint import (
    GoodnessContext,
    IndexOutOfRange,
    UnknownDivisor,
    all_bad_evaluation,
    c_symbol,
    claim1_case_check,
    fprime_eval,
    fprime_of_var,
    guard_report,
    parse_group_spec,
    sigma_symbol,
    verify_mixed_contexts,
)


def ctx_for(res_a, res_b, group=(2,)):
    # divisors A, B on the first side and C = A + B on the second
    return fixedpoint._claim1_context(group, res_a, res_b)


ALL_GOOD = ctx_for((0,), (0,))
A_ONLY = ctx_for((0,), (1,))       # B, C bad
B_ONLY = ctx_for((1,), (0,))       # A, C bad
C_ONLY = ctx_for((1,), (1,))       # A, B bad
ALL_BAD = ctx_for((1,), (1,), group=(3,))


def V(sym):
    return Polynomial.variable(sym)


def test_contexts_reduce_residues_and_are_immutable():
    ctx = GoodnessContext((3,), ("A",), ("B",), {"A": (4,), "B": (-2,)})
    assert ctx.character_of("A") == ctx.character_of("B") == (1,)
    assert ctx.character_of(("A", "B")) == (2,)
    assert ctx.good(("A", "A", "A"))
    for orders, residues in [((), {}), ((0,), {"A": (0,)}), ((2, -1), {"A": (0, 0)}),
                             ((2,), {"A": (0, 1)}), ((2, 3), {"A": (1,)}),
                             ((2,), {"A": (0,), "": (0,)})]:
        with pytest.raises(ValueError):
            GoodnessContext(orders, (), (), residues)
    with pytest.raises(AttributeError):
        ctx.group = (2,)
    with pytest.raises(AttributeError):
        ALL_GOOD.x_divisors = ()


def test_context_validation():
    with pytest.raises(UnknownDivisor):
        GoodnessContext((2,), ("A",), ("Z",), {"A": (0,)})
    with pytest.raises(ValueError):
        # alias target bound to a conflicting character
        GoodnessContext((2,), ("A", "B"), ("C",),
                        {"A": (1,), "B": (1,), "C": (1,)}, {("A", "B"): "C"})
    with pytest.raises(UnknownDivisor):
        # an alias may name a new label, but only a sum of bound names
        GoodnessContext((2,), ("A",), (), {"A": (0,)}, {("A", "Z"): "T"})
    with pytest.raises(UnknownDivisor):
        ALL_GOOD.good(("A", "missing"))


def test_goodness_of_combinations():
    assert ALL_GOOD.good("A")
    assert not A_ONLY.good("B")
    assert not A_ONLY.good(("A", "B"))
    # characters cancel pairwise
    assert C_ONLY.good(("A", "B"))
    ctx = GoodnessContext((4,), ("A", "B"), (), {"A": (1,), "B": (3,)})
    assert ctx.good(("A", "B"))
    assert not ctx.good(("A", "A"))
    # residues add componentwise in a product group
    ctx = GoodnessContext((2, 3), ("A", "B"), (), {"A": (1, 2), "B": (1, 1)})
    assert ctx.character_of(("A", "B")) == (0, 0)
    assert ctx.good(("A", "B")) and not ctx.good("A")


def test_combo_aliasing():
    assert ALL_GOOD.combo_name(("A", "B")) == "C"
    assert ALL_GOOD.combo_name(("A",)) == "A"
    ctx = GoodnessContext((2,), ("A", "B"), (), {"A": (0,), "B": (0,)})
    assert ctx.combo_name(("A", "B")) == "A+B"


def test_guard_examples():
    # the triple (A, B, A + B) that guard_report decides for each context
    assert fixedpoint._step_goodness(ALL_GOOD, ("A", "B"), 2)[0] == "all"
    # one nontrivial character forces a second bad member
    assert fixedpoint._step_goodness(A_ONLY, ("A", "B"), 2)[0] == "head"
    assert fixedpoint._step_goodness(ALL_BAD, ("A", "B"), 2)[0] == "none"
    # guard_report runs the first two contexts over Z/2, the third over Z/3
    assert guard_report((2,))["holds"] and guard_report((3,))["holds"]


def test_guard_exhaustive_over_small_groups():
    for group in ((2,), (3,), (2, 2), (6,), (2, 3)):
        assert guard_report(group)["holds"]
    report = guard_report((2, 3))
    assert report == {"group": [2, 3], "contexts": 36, "holds": True}


def test_parse_group_spec():
    assert parse_group_spec("2") == (2,)
    assert parse_group_spec("2x2") == (2, 2)
    assert parse_group_spec("2X3") == (2, 3)
    with pytest.raises(ValueError):
        parse_group_spec("")
    with pytest.raises(ValueError):
        parse_group_spec("2x0")


def test_class_images():
    x1 = VarSymbol("X", (1,))
    assert fprime_of_var(x1, ALL_GOOD) == V(c_symbol("A"))
    assert fprime_of_var(x1, B_ONLY) == 1
    assert fprime_of_var(VarSymbol("Y", (1,)), ALL_GOOD) == V(c_symbol("C"))
    assert fprime_of_var(VarSymbol("Y", (1,)), A_ONLY) == 1
    # class index past the declared count contributes nothing
    assert fprime_of_var(VarSymbol("X", (3,)), ALL_GOOD).is_zero()
    assert fprime_of_var(VarSymbol("Y", (2,)), ALL_GOOD).is_zero()


def test_first_marker_images():
    u11 = VarSymbol("U", (1, 1))
    assert fprime_of_var(u11, ALL_GOOD) == V(sigma_symbol("A"))
    assert fprime_of_var(u11, B_ONLY) == 2
    # the combined two-class sum picks up the alias name
    u12 = VarSymbol("U", (1, 2))
    assert fprime_of_var(u12, C_ONLY) == V(sigma_symbol("C"))
    assert fprime_of_var(u12, A_ONLY) == 2
    assert fprime_of_var(VarSymbol("U", (1, 3)), ALL_GOOD).is_zero()


def test_tower_marker_images():
    u22 = VarSymbol("U", (2, 2))
    u32 = VarSymbol("U", (3, 2))
    assert fprime_of_var(u22, ALL_GOOD) == V(VarSymbol("p2", (2,)))
    assert fprime_of_var(u32, ALL_GOOD) == V(VarSymbol("p3", (2,)))
    # only the head combination stays good
    assert fprime_of_var(u22, A_ONLY) == V(sigma_symbol("A")) * 2
    assert fprime_of_var(u32, A_ONLY) == V(sigma_symbol("A")) + 1
    # only the new class stays good
    assert fprime_of_var(u22, B_ONLY) == V(sigma_symbol("B")) + 2
    assert fprime_of_var(u32, B_ONLY) == V(sigma_symbol("B")) + 1
    # only the combined sum stays good
    assert fprime_of_var(u22, C_ONLY) == V(sigma_symbol("C")) + 2
    assert fprime_of_var(u32, C_ONLY) == V(sigma_symbol("C")) + 1
    # everything bad
    assert fprime_of_var(u22, ALL_BAD) == 4
    assert fprime_of_var(u32, ALL_BAD) == 3


def test_invalid_generator_indices():
    with pytest.raises(IndexOutOfRange):
        fprime_of_var(VarSymbol("X", (0,)), ALL_GOOD)
    with pytest.raises(IndexOutOfRange):
        fprime_of_var(VarSymbol("U", (2, 1)), ALL_GOOD)
    with pytest.raises(IndexOutOfRange):
        fprime_of_var(VarSymbol("U", (4, 2)), ALL_GOOD)
    with pytest.raises(IndexOutOfRange):
        fprime_of_var(VarSymbol("a", (1, 1)), ALL_GOOD)


def test_eval_is_homomorphic():
    p = V(VarSymbol("X", (1,))) + V(VarSymbol("X", (2,))) * 3
    q = V(VarSymbol("Y", (1,))) - V(VarSymbol("U", (2, 2)))
    for ctx in (ALL_GOOD, A_ONLY, C_ONLY, ALL_BAD):
        assert fprime_eval(p * q, ctx) == fprime_eval(p, ctx) * fprime_eval(q, ctx)


def test_eval_examples():
    assert fprime_eval(build_gy(1, 2), ALL_GOOD) == V(c_symbol("C"))
    assert fprime_eval(build_gy(1, 2), ALL_BAD) == 1
    both = V(VarSymbol("X", (1,))) * V(VarSymbol("X", (2,)))
    assert fprime_eval(both, ALL_BAD) == 1
    assert fprime_eval(build_gy(1, 2), C_ONLY) == V(c_symbol("C"))


def test_claim1_degenerate_cases_collapse():
    # sides agree outright once any divisor goes bad
    assert fprime_eval(build_gx(2, 1), A_ONLY) == 1
    assert fprime_eval(build_gx(2, 1), B_ONLY) == 1
    assert fprime_eval(build_gx(2, 1), C_ONLY) == V(c_symbol("C"))
    assert fprime_eval(build_gx(2, 1), ALL_BAD) == 1


def test_claim1_reports():
    for case in range(1, 6):
        report = claim1_case_check(case)
        assert report["case"] == case
        assert report["equal"] is True
    assert claim1_case_check(5) == {"case": 5, "lhs": 1, "rhs": 1, "equal": True}
    assert claim1_case_check(2)["lhs"] == 1
    assert claim1_case_check(3)["lhs"] == 1
    four = claim1_case_check(4)
    assert four["lhs"] == poly_to_json(V(c_symbol("C")))
    assert four["rhs"] == four["lhs"]
    one = claim1_case_check(1)
    assert isinstance(one["lhs"], dict) and isinstance(one["rhs"], dict)
    with pytest.raises(ValueError):
        claim1_case_check(6)


@pytest.mark.parametrize("case, ctx", [
    (1, ALL_GOOD), (2, A_ONLY), (3, B_ONLY), (4, C_ONLY), (5, ALL_BAD),
], ids=[f"case{case}" for case in range(1, 6)])
def test_claim1_recursion_matches_expanded_oracle(case, ctx):
    # claim1_case_check runs the recursion on the generators' images;
    # fprime_eval maps every term of the expanded relation polynomial
    report = claim1_case_check(case)
    assert report["lhs"] == fixedpoint._render(fprime_eval(build_gx(2, 1), ctx))
    assert report["rhs"] == fixedpoint._render(fprime_eval(build_gy(1, 2), ctx))


def test_all_bad_values_frozen():
    for n in range(1, 9):
        for m in range(1, 9):
            report = all_bad_evaluation(n, m)
            assert report["equal"] is True
            expect = 1 if min(n, m) == 1 else 0
            assert report["lhs"] == expect, (n, m)
            assert report["rhs"] == expect, (n, m)
    assert all_bad_evaluation(2, 1) == {"n": 2, "m": 1, "lhs": 1, "rhs": 1, "equal": True}
    with pytest.raises(ValueError):
        all_bad_evaluation(0, 1)


def test_all_bad_point_is_the_table_read_through_family_key(monkeypatch):
    # each chain's point is made once per table and is a plain dict of the
    # chain's generators, in chain order; the evaluation merges two of them
    # and follows a patched table
    seen = []

    def recording(n, m, point):
        seen.append(point)
        return relation_values(n, m, point)

    monkeypatch.setattr(fixedpoint, "relation_values", recording)
    table = fixedpoint.ALL_BAD_VALUES
    key = tuple(table.items())
    for side in ("X", "Y"):
        for n in range(1, 9):
            point = fixedpoint._all_bad_chain(side, n, key)
            assert type(point) is dict
            assert list(point.items()) == [(sym, table[family_key(sym)])
                                           for sym in chain_symbols(side, n)], (side, n)
            assert fixedpoint._all_bad_chain(side, n, key) is point
    for n, m in itertools.product(range(1, 9), repeat=2):
        seen.clear()
        all_bad_evaluation(n, m)
        assert seen == [{sym: table[family_key(sym)] for sym in relation_symbols(n, m)}], (n, m)

    tampered = {**table, "X": 2, ("V", 2): 5}
    monkeypatch.setattr(fixedpoint, "ALL_BAD_VALUES", tampered)
    for n, m in ((1, 1), (3, 2), (2, 4)):
        report = all_bad_evaluation(n, m)
        assert seen[-1] == {sym: tampered[family_key(sym)] for sym in relation_symbols(n, m)}
        assert report["lhs"] == build_gx(n, m).substitute_families(tampered), (n, m)
        assert report["rhs"] == build_gy(m, n).substitute_families(tampered), (n, m)


def test_claim1_reads_the_all_bad_table(monkeypatch):
    # the table sends bad generators to ALL_BAD_VALUES, the values criterion
    # 6 checks, so a wrong entry there reaches the all-bad base case too
    table = dict(fixedpoint.ALL_BAD_VALUES)
    table["U", 2] = table["V", 2] = 5
    monkeypatch.setattr(fixedpoint, "ALL_BAD_VALUES", table)
    assert claim1_case_check(5) == {"case": 5, "lhs": 2, "rhs": 1, "equal": False}


def test_all_bad_chain_closed_form():
    # every divisor bad: S_n + E_n = [n = 1] and F_n = [n >= 2] on both
    # sides, so each chain satisfies S_n + E_n + c*F_n = c at c = 1
    table = fixedpoint.ALL_BAD_VALUES
    for side, build_e, build_f in (("X", build_ex, build_fx), ("Y", build_ey, build_fy)):
        for n in range(1, 9):
            t = n * table[side] + build_e(n).substitute_families(table)
            f = build_f(n).substitute_families(table)
            assert (t, f) == (int(n == 1), int(n >= 2)), (side, n)


def test_mixed_contexts_pass_and_replay():
    first = verify_mixed_contexts(3, 3, trials=8, seed=42)
    again = verify_mixed_contexts(3, 3, trials=8, seed=42)
    assert first.passed
    assert first.to_json() == again.to_json()
    for n, m in ((1, 1), (1, 3), (2, 2), (4, 2), (2, 4), (4, 4)):
        assert verify_mixed_contexts(n, m, trials=6, seed=7).passed, (n, m)


def test_mixed_contexts_catch_a_wrong_table_entry(monkeypatch):
    # both readers read the one affine table, so the tamper reaches the
    # values the mixed verifier compares
    real = fixedpoint._image

    def tampered(var, ctx):
        out = real(var, ctx)
        if var.family == "X" and out == (None, 0, 1):
            return None, 0, 2
        return out

    monkeypatch.setattr(fixedpoint, "_image", tampered)
    assert fprime_of_var(VarSymbol("X", (1,)), B_ONLY) == 2
    report = verify_mixed_contexts(3, 3, trials=8, seed=42)
    assert not report.passed


def _send_all_good_u2_to_p3(monkeypatch):
    """Tamper the table: an all-good U2_k goes to p3[k] in place of p2[k]."""
    real = fixedpoint._image

    def tampered(var, ctx):
        sym, a, b = real(var, ctx)
        if var.family == "U" and var.indices[0] == 2 and sym is not None and sym.family == "p2":
            return VarSymbol("p3", sym.indices), a, b
        return sym, a, b

    monkeypatch.setattr(fixedpoint, "_image", tampered)


def test_a_wrong_all_good_tower_entry_is_caught(monkeypatch):
    # the mixed verifier sees the tamper where the entry fires in few steps,
    # and claim1 case 1 sees it
    _send_all_good_u2_to_p3(monkeypatch)
    for n, m in ((2, 2), (2, 1)):
        assert not verify_mixed_contexts(n, m, trials=20, seed=42).passed, (n, m)
    assert claim1_case_check(1)["equal"] is False


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (4, 4), (5, 5)])
def test_every_divisor_good_exposes_a_wrong_all_good_tower_entry(monkeypatch, n, m):
    # over the trivial group every step is all good, so every U2_k reads
    # the tampered entry; the clean table passes the same trials
    monkeypatch.setattr(fixedpoint, "DEFAULT_GUARD_GROUPS", ((1,),))
    assert verify_mixed_contexts(n, m, trials=20, seed=42).passed
    _send_all_good_u2_to_p3(monkeypatch)
    assert not verify_mixed_contexts(n, m, trials=20, seed=42).passed


class Replay:
    """Stands in for the rng of `_mixed_context`: each draw is the next of
    the given residues, reduced, so a product over residue tuples
    enumerates every context the verifier can draw."""

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, order):
        return next(self._values) % order


def _goodness_pattern(ctx):
    """Goodness of every class and every chain prefix, both sides: all the
    verifier's walks and table entries read."""
    sides = (ctx.x_divisors, ctx.y_divisors)
    return (tuple(ctx.good(names[:k]) for names in sides for k in range(2, len(names) + 1))
            + tuple(ctx.good(name) for names in sides for name in names))


# (contexts, distinct goodness patterns) of DEFAULT_GUARD_GROUPS by (n, m)
_PATTERN_COUNTS = {
    (1, 1): (15, 2), (1, 2): (65, 5), (1, 3): (315, 13),
    (2, 1): (65, 5), (2, 2): (315, 13), (2, 3): (1649, 34),
    (3, 1): (315, 13), (3, 2): (1649, 34), (3, 3): (9075, 89),
}


def test_every_goodness_pattern_gets_a_trial():
    # every context the default groups can draw up to (3, 3), one mixed
    # trial at the first context of each distinct pattern
    cases = set()
    for (n, m), counts in _PATTERN_COUNTS.items():
        contexts, first = 0, {}
        for group in fixedpoint.DEFAULT_GUARD_GROUPS:
            for values in itertools.product(*[range(o) for o in group] * (n + m - 1)):
                ctx = fixedpoint._mixed_context(Replay(values), n, m, group)
                contexts += 1
                first.setdefault(_goodness_pattern(ctx), ctx)
        assert (contexts, len(first)) == counts, (n, m)
        for pattern, ctx in first.items():
            rng = random.Random(f"{n}:{m}:{pattern}")
            assert fixedpoint._mixed_trial(rng, ctx, 1000), (n, m, pattern)
            cases.update(case for case, _ in ctx._steps.values())
    assert cases == {"all", "head", "last", "full", "none"}


def test_table_values_match_the_polynomial_images():
    # the value reader against the slow path: each image built as a
    # polynomial and evaluated, over drawn contexts and points
    for group in fixedpoint.DEFAULT_GUARD_GROUPS + ((1,),):
        for n, m in itertools.product(range(1, 6), repeat=2):
            rng = random.Random(f"{group}:{n}:{m}")
            ctx = fixedpoint._mixed_context(rng, n, m, group)
            images = {sym: fprime_of_var(sym, ctx) for sym in relation_symbols(n, m)}
            point = {}
            for image in images.values():
                for s in sorted(image.symbols(), key=lambda s: s.sort_key):
                    point.setdefault(s, Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            for sym, image in images.items():
                value = fixedpoint._image_value(sym, ctx, point)
                assert value == image.evaluate_rational(point), (group, n, m, sym)
                for s in image.symbols():
                    unbound = {k: v for k, v in point.items() if k is not s}
                    with pytest.raises(UnboundVariable):
                        fixedpoint._image_value(sym, ctx, unbound)


def test_mixed_contexts_build_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built or evaluated")

    for name in ("evaluate_rational", "variable", "_raw", "__init__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    assert verify_mixed_contexts(4, 4).passed


def test_large_counts_run_the_recursion_alone(no_expansion):
    start = time.perf_counter()
    report = verify_mixed_contexts(10, 10)
    mixed_s = time.perf_counter() - start
    assert report.passed and report.trials == 20
    assert mixed_s < 1.0, mixed_s
    start = time.perf_counter()
    assert all_bad_evaluation(30, 30) == {"n": 30, "m": 30, "lhs": 0, "rhs": 0, "equal": True}
    assert time.perf_counter() - start < 1.0


def test_tower_images_check_the_goodness_guard(monkeypatch):
    # a context where exactly one of (D, A, D + A) is bad cannot arise from
    # characters; forcing one must raise, not pass or fail silently
    ctx = GoodnessContext((2,), ("A", "B"), ("C",), {"A": (0,), "B": (0,), "C": (0,)})
    pattern = {}

    def forced(self, combo):
        return pattern[(combo,) if isinstance(combo, str) else tuple(combo)]

    monkeypatch.setattr(fixedpoint.GoodnessContext, "good", forced)
    # the classifier over all eight goodness triples of step 2 of the chain
    # (A, B), where D is A and A_2 is B: five cases, and a raise wherever
    # exactly one is bad
    expected = {
        (True, True, True): ("all", sigma_symbol("A")),
        (True, False, False): ("head", sigma_symbol("A")),
        (False, True, False): ("last", sigma_symbol("B")),
        (False, False, True): ("full", sigma_symbol("A+B")),
        (False, False, False): ("none", None),
    }
    for triple in itertools.product((True, False), repeat=3):
        pattern.update(zip([("A",), ("B",), ("A", "B")], triple))
        if sum(triple) == 2:
            with pytest.raises(fixedpoint.ImpossibleGoodness):
                fixedpoint._step_goodness(ctx, ("A", "B"), 2)
            with pytest.raises(fixedpoint.ImpossibleGoodness):
                fprime_of_var(VarSymbol("U", (2, 2)), ctx)
        else:
            assert fixedpoint._step_goodness(ctx, ("A", "B"), 2) == expected[triple], triple
    # every two-class sum bad and everything else good: the mixed verifier
    # meets it in a chain step at (3, 3) and in the final class at (1, 2)
    monkeypatch.setattr(fixedpoint.GoodnessContext, "good",
                        lambda self, combo: isinstance(combo, str) or len(combo) != 2)
    for n, m in ((3, 3), (1, 2)):
        with pytest.raises(fixedpoint.ImpossibleGoodness):
            verify_mixed_contexts(n, m, trials=4, seed=1)


def test_bad_total_class_pins_the_first_chain(monkeypatch):
    # with the total class bad the first-family chain must end at 1; a chain
    # walk that gets it wrong is an inconsistent solve, not a silent pass,
    # for every m: with one B class no later step compares that value
    real = fixedpoint._walk

    def tampered(*args):
        real(*args)  # keeps the values the walk samples
        return Fraction(5)

    monkeypatch.setattr(fixedpoint, "_walk", tampered)
    for n, m in ((3, 3), (2, 2), (3, 1), (4, 1), (5, 1)):
        with pytest.raises(fixedpoint.InconsistentSolve):
            verify_mixed_contexts(n, m, trials=20, seed=1)
