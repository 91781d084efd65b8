"""Operator identity verification: the H expression, images, sampled checks."""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

from dprkit import dpr, fixedpoint, operators
from dprkit.algebra import Polynomial, VarSymbol, canonical_json
from dprkit.dpr import build_gx, build_gy, chain_symbols
from dprkit.fixedpoint import verify_mixed_contexts
from dprkit.operators import (
    VerificationReport,
    h_expression,
    verify_full_identity,
    verify_step_identity,
)


def V(family, *indices):
    return Polynomial.variable(VarSymbol(family, indices))


def test_h_expression_frozen():
    h = h_expression()
    assert len(h.terms) == 6
    expected = (
        V("cL")
        + V("cM")
        - V("cL") * V("cM") * V("sigma1")
        + V("cL") * V("cM") * V("cLM") * (V("sigma2") - V("sigma3"))
        - V("cLM")
    )
    assert h == expected


def test_two_one_relation_is_the_h_expression():
    images = {
        VarSymbol("X", (1,)): V("cL"),
        VarSymbol("X", (2,)): V("cM"),
        VarSymbol("Y", (1,)): V("cLM"),
        VarSymbol("U", (1, 1)): V("sigma1"),
        VarSymbol("U", (2, 2)): V("sigma2"),
        VarSymbol("U", (3, 2)): V("sigma3"),
    }
    lhs = build_gx(2, 1).to_polynomial().substitute(images)
    rhs = build_gy(1, 2).to_polynomial().substitute(images)
    assert lhs - rhs == h_expression()


def test_step_identity_passes_and_is_deterministic():
    first = verify_step_identity(3, trials=6, seed=42)
    again = verify_step_identity(3, trials=6, seed=42)
    assert first.passed
    assert first.to_json() == again.to_json()
    for n in (2, 4, 5):
        assert verify_step_identity(n, trials=4, seed=7).passed


def test_step_identity_rejects_tiny_n():
    with pytest.raises(ValueError):
        verify_step_identity(1)


def test_verifiers_reject_counts_below_one():
    for bad in ({"trials": 0}, {"sample_range": 0}):
        with pytest.raises(ValueError):
            verify_step_identity(3, seed=1, **bad)
        with pytest.raises(ValueError):
            verify_full_identity(2, 2, seed=1, **bad)
        with pytest.raises(ValueError):
            verify_mixed_contexts(2, 2, seed=1, **bad)


@pytest.mark.parametrize("bad", [{"trials": 0}, {"trials": -1},
                                 {"sample_range": 0}, {"sample_range": -1}], ids=str)
def test_verifiers_reject_counts_below_one_before_any_draw(monkeypatch, bad):
    draws = []
    monkeypatch.setattr(operators, "_trial_rng", lambda *args: draws.append(args))
    for call in (lambda: verify_step_identity(3, seed=1, **bad),
                 lambda: verify_full_identity(2, 2, seed=1, **bad),
                 lambda: verify_mixed_contexts(2, 2, seed=1, **bad)):
        with pytest.raises(ValueError):
            call()
    assert draws == []


def test_sampling_harness_and_reports_are_immutable():
    report = verify_step_identity(2, trials=2, seed=1)
    with pytest.raises(AttributeError):
        report.passed = False
    assert report.to_json() == verify_step_identity(2, trials=2, seed=1).to_json()
    assert report.to_json() != verify_step_identity(2, trials=2, seed=2).to_json()


def test_full_identity_small_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            report = verify_full_identity(n, m, trials=4, seed=11)
            assert report.passed, (n, m)
            assert report.identity == "full"


def test_report_json_field_order():
    report = verify_step_identity(2, trials=2, seed=1)
    blob = report.to_json()
    assert list(blob.keys()) == [
        "identity",
        "n",
        "m",
        "trials",
        "resamples",
        "pass",
        "seed",
        "degree_bound",
        "sample_range",
    ]
    assert blob["pass"] is True
    assert blob["m"] is None
    # canonical rendering is reproducible
    assert canonical_json(blob) == canonical_json(verify_step_identity(2, trials=2, seed=1).to_json())


def _tamper_f3(monkeypatch, module):
    # a correction value F_3 that is off by X_1, in the chain_values that
    # `module` calls
    real = module.chain_values

    def tampered(side, n, value):
        chain = real(side, n, value)
        if n >= 3:
            t, f = chain[2]
            chain[2] = (t, f + value[VarSymbol("X", (1,))])
        return chain

    monkeypatch.setattr(module, "chain_values", tampered)


def test_broken_builder_is_caught(monkeypatch):
    # the verifier reads T_k and F_k from the recursion; a wrong F_3 must
    # fail the step identity
    _tamper_f3(monkeypatch, operators)
    report = verify_step_identity(3, trials=3, seed=5)
    assert not report.passed


def test_broken_builder_fails_the_full_identity(monkeypatch):
    # the meeting value comes from the blow-up law, not from the recursion,
    # so a wrong F_3 on either side is a reported fail
    _tamper_f3(monkeypatch, dpr)
    assert verify_full_identity(3, 2, trials=3, seed=5).passed is False
    assert verify_full_identity(2, 3, trials=3, seed=5).passed is False


def _plus_xf_chain_values(side, n, value):
    # the recursion with + x*f in place of - x*f
    t, f = value[chain_symbols(side, n)[0]], 0
    out = [(t, f)]
    for step in dpr.chain_steps(side, n):
        x, u1, u2, u3 = (value[s] for s in step)
        t, f = t + x - t * x * u1 + x * f, f + t * x * (u2 - u3)
        out.append((t, f))
    return out


def test_plus_xf_recursion_fails_the_full_identity(monkeypatch):
    monkeypatch.setattr(dpr, "chain_values", _plus_xf_chain_values)
    assert verify_full_identity(3, 2, trials=5, seed=3).passed is False
    # F_1 = 0, so x*f first differs from -x*f at the third class: below
    # three classes on both sides the tamper changes nothing
    assert verify_full_identity(2, 2, trials=5, seed=3).passed is True


@pytest.mark.parametrize("run, counts", [
    (lambda: fixedpoint.all_bad_evaluation(3, 2), (3, 2)),
    (lambda: fixedpoint.claim1_case_check(1), (2, 1)),
    (lambda: verify_mixed_contexts(3, 2, trials=1), (3, 2)),
    (lambda: verify_full_identity(3, 2, trials=1), (3, 2)),
], ids=["allbad", "claim1", "mixed", "full"])
def test_both_sides_share_one_chain_run_per_side(monkeypatch, run, counts):
    # every comparison of GX with GY reads both from one relation_values
    # call, which runs each side's chain once
    real = dpr.chain_values
    calls = []

    def recorded(side, n, value):
        calls.append((side, n))
        return real(side, n, value)

    monkeypatch.setattr(dpr, "chain_values", recorded)
    run()
    assert calls == [("X", counts[0]), ("Y", counts[1])]


def test_last_class_solves_the_blow_up_law():
    # c = 3/7 and c_l = -5/2 as unreduced pairs, one with a negative
    # denominator; cM comes back a pair too, and the law reaches c from it
    a, b, p, q, s1, s23 = 6, 14, 5, -2, 4, -3
    c_m = Fraction(*operators.last_class(a, b, p, q, s1, s23))
    assert Fraction(*operators.blow_up(p, q, c_m, s1, s23)) == Fraction(a, b)
    # 1 - c_l*s1 + c*c_l*s23 = 1 - 1 + 0 at c_l = 1, s1 = 1, s23 = 0
    with pytest.raises(operators.DegenerateSample):
        operators.last_class(2, 1, 1, 1, 1, 0)


def _plain_blow_up(c_l, c_m, s1, s23):
    denom = 1 - c_l * c_m * s23
    if denom == 0:
        raise operators.DegenerateSample("blow-up denominator vanished")
    return Fraction(c_l + c_m - c_l * c_m * s1) / denom


def _plain_last_class(c, c_l, s1, s23):
    denom = 1 - c_l * s1 + c * c_l * s23
    if denom == 0:
        raise operators.DegenerateSample("last-class denominator vanished")
    return Fraction(c - c_l) / denom


def test_blow_up_and_last_class_match_the_plain_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # ints as the verifiers draw them; pairs as the walks carry them,
    # unreduced and with either sign of denominator
    ints = st.integers(-50, 50)
    dens = st.integers(-12, 12).filter(bool)
    outcomes = []

    def same_outcome(fast, plain, fast_args, plain_args):
        try:
            expected = plain(*plain_args)
        except operators.DegenerateSample:
            with pytest.raises(operators.DegenerateSample):
                fast(*fast_args)
            outcomes.append("degenerate")
            return
        pair = fast(*fast_args)
        assert pair[1] != 0 and Fraction(*pair) == expected
        outcomes.append("value")

    @hypothesis.settings(derandomize=True, database=None, max_examples=300)
    @hypothesis.given(ints, dens, ints, dens, ints, ints, ints, st.booleans())
    def check(a, b, p, q, c_m, s1, s23, degenerate):
        # with `degenerate`, pick c_l (blow_up) or c (last_class) to zero
        # the plain denominator wherever it can be
        if degenerate and p * c_m * s23:
            q = p * c_m * s23
        same_outcome(operators.blow_up, _plain_blow_up,
                     (p, q, c_m, s1, s23), (Fraction(p, q), c_m, s1, s23))
        if degenerate and p * s23:
            a, b = p * s1 - q, p * s23
        same_outcome(operators.last_class, _plain_last_class,
                     (a, b, p, q, s1, s23), (Fraction(a, b), Fraction(p, q), s1, s23))

    check()
    assert {"value", "degenerate"} <= set(outcomes)


@pytest.mark.parametrize("sample_range", [1, 2, 1000])
def test_walk_pairs_are_the_plain_fold(sample_range):
    # every prefix of a chain's walk, from (X_1, 1): the pair is the
    # Fraction fold of the plain blow-up law, and both degenerate at the
    # same step
    outcomes = set()
    for n in range(1, 19):
        symbols, steps = chain_symbols("X", n), dpr.chain_steps("X", n)
        for trial in range(8):
            rng = random.Random(f"walk:{sample_range}:{n}:{trial}")
            point = operators._draw(rng, symbols, sample_range)
            value = Fraction(point[symbols[0]])
            for k, (x, u1, u2, u3) in enumerate(steps, 1):
                try:
                    value = _plain_blow_up(value, point[x], point[u1], point[u2] - point[u3])
                except operators.DegenerateSample:
                    with pytest.raises(operators.DegenerateSample):
                        operators._walk(point, point[symbols[0]], 1, steps[:k])
                    outcomes.add("degenerate")
                    break
                assert Fraction(*operators._walk(point, point[symbols[0]], 1, steps[:k])) == value
            else:
                outcomes.add("value")
    assert "value" in outcomes
    assert "degenerate" in outcomes or sample_range == 1000


def test_walks_make_no_fraction_per_step(monkeypatch):
    # the step verifier compares in ints; the full verifier makes at most
    # one Fraction per accepted draw, the last second-family class
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(operators, "Fraction", counted)
    for sample_range in (1, 2, 1000):
        for n in range(2, 9):
            verify_step_identity(n, trials=6, seed=3, sample_range=sample_range)
        assert made == [], sample_range
        for n in range(1, 7):
            for m in range(1, 7):
                report = verify_full_identity(n, m, trials=6, seed=3,
                                              sample_range=sample_range)
                assert len(made) <= report.trials, (n, m, sample_range)
                made.clear()
    # the stand-in is the one the full verifier calls
    verify_full_identity(3, 3, trials=6, seed=3)
    assert made


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def test_step_identity_at_large_n(no_expansion):
    report, elapsed = timed(lambda: verify_step_identity(30))
    assert report.passed and report.trials == 20
    assert elapsed < 1.0, elapsed


def test_full_identity_at_large_counts(no_expansion):
    report, elapsed = timed(lambda: verify_full_identity(20, 20))
    assert report.passed and report.trials == 20
    assert elapsed < 1.0, elapsed


def test_sampling_is_seed_stable():
    a = verify_full_identity(2, 2, trials=5, seed=99)
    b = verify_full_identity(2, 2, trials=5, seed=99)
    assert a.to_json() == b.to_json()


def _degenerate(*args):
    raise operators.DegenerateSample("forced")


@pytest.mark.parametrize("target, name, call, where", [
    (operators, "_solve_chain_value", lambda: verify_step_identity(3, seed=1), "step n=3"),
    (operators, "last_class", lambda: verify_full_identity(2, 3, seed=1), "full (2,3)"),
    (fixedpoint, "_mixed_trial", lambda: verify_mixed_contexts(2, 3, seed=1), "mixed (2,3)"),
], ids=["step", "full", "mixed"])
def test_resample_limit_ends_a_trial_of_degenerate_draws(monkeypatch, target, name, call, where):
    # every draw degenerate: the first trial gives up after exactly
    # RESAMPLE_LIMIT draws, each from its own (trial, retry) rng
    draws = []
    real_rng = operators._trial_rng

    def counted(seed, trial, retry):
        draws.append((trial, retry))
        return real_rng(seed, trial, retry)

    monkeypatch.setattr(operators, "_trial_rng", counted)
    monkeypatch.setattr(target, name, _degenerate)
    with pytest.raises(operators.ResampleLimitExceeded) as err:
        call()
    assert str(err.value) == f"trial 0 of {where}"
    assert draws == [(0, retry) for retry in range(operators.RESAMPLE_LIMIT)]


def test_resample_totals_freeze_the_draw_order():
    # a small range makes degenerate draws common; the totals pin which rng
    # each trial and retry consumes, and in what order
    seeds = range(6)
    small = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    step = [verify_step_identity(n, trials=5, seed=s, sample_range=2)
            for s in seeds for n in range(2, 7)]
    full = [verify_full_identity(n, m, trials=4, seed=s, sample_range=2)
            for s in seeds for n, m in small]
    mixed = [verify_mixed_contexts(n, m, trials=4, seed=s, sample_range=2)
             for s in seeds for n, m in small]
    # the full verifier's degenerate draws are those of its blow-up and
    # last-class denominators
    for reports, total in ((step, 6), (full, 29), (mixed, 5)):
        assert all(r.passed for r in reports)
        assert sum(r.resamples for r in reports) == total


_SMALL = [(n, m) for n in range(1, 5) for m in range(1, 5)]


def _verifier_runs(seed, sample_range):
    """Every verifier at n, m <= 4, as (label, call) pairs."""
    kw = {"trials": 6, "seed": seed, "sample_range": sample_range}
    return ([(("step", n), lambda n=n: verify_step_identity(n, **kw)) for n in range(2, 5)]
            + [(("full", n, m), lambda n=n, m=m: verify_full_identity(n, m, **kw))
               for n, m in _SMALL]
            + [(("mixed", n, m), lambda n=n, m=m: verify_mixed_contexts(n, m, **kw))
               for n, m in _SMALL])


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("sample_range", [1000, 2, 1])
def test_int_draws_report_what_fraction_draws_do(monkeypatch, seed, sample_range):
    # the slow path: every value draw made a Fraction, as the verifiers
    # once drew them; `_mixed_context` draws residues by randrange and is
    # unchanged.  Every dprkit module that binds the sampler gets the
    # Fraction one, and each verifier must be seen drawing through it
    runs = _verifier_runs(seed, sample_range)
    plain = [call().to_json() for _, call in runs]
    real, widths = operators.randbelow, []

    def as_fraction(getrandbits, n):
        widths.append(n)
        return Fraction(real(getrandbits, n))

    bound = [module for name, module in list(sys.modules.items())
             if name.startswith("dprkit") and getattr(module, "randbelow", None) is real]
    assert {operators, fixedpoint} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "randbelow", as_fraction)
    for (label, call), fast in zip(runs, plain):
        before = len(widths)
        assert call().to_json() == fast, label
        assert len(widths) > before, label
    assert set(widths) == {2 * sample_range + 1}


# width 1, a power of two, neighbours of powers of two (2**k + 1 redraws
# almost half its draws, 2**k - 1 almost none), the default range's 2001,
# and widths past 2**32
SAMPLER_WIDTHS = (1, 2, 3, 5, 6, 7, 9, 2001, 2**40 + 1, 2**41 - 1)


@pytest.mark.parametrize("seed", ["0:0:0", 7, 2026])
def test_randbelow_draws_what_randint_and_randrange_draw(seed):
    # interleaved over every width, the sampler on one rng gives the values
    # randint(-r, r) (odd widths 2r + 1) and randrange(width) give on a
    # twin, and leaves the twins in one state
    reference, ours = random.Random(seed), random.Random(seed)
    schedule = random.Random(f"schedule:{seed}")
    for _ in range(2000):
        width = schedule.choice(SAMPLER_WIDTHS)
        if width % 2 and schedule.getrandbits(1):
            r = width // 2
            assert operators.randbelow(ours.getrandbits, width) - r == reference.randint(-r, r)
        else:
            assert operators.randbelow(ours.getrandbits, width) == reference.randrange(width)
    assert ours.getstate() == reference.getstate()


def test_verifiers_pass_ints_until_a_solve_divides(monkeypatch):
    # the values each verifier hands the recursion: drawn ints, except the
    # last second-family class, which `last_class` (or, at m = 1, the
    # walk's `blow_up`) sets
    seen = []

    def recording(real):
        def wrapped(*args):
            seen.extend((sym, type(v)) for sym, v in args[-1].items())
            return real(*args)
        return wrapped

    for module, name in ((operators, "chain_values"), (operators, "relation_values"),
                         (fixedpoint, "relation_values")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    divided = set()
    for sample_range in (1000, 2):
        for label, call in _verifier_runs(7, sample_range):
            seen.clear()
            call()
            assert seen, label
            assert float not in {t for _, t in seen}, label
            last_y = VarSymbol("Y", (label[2],)) if label[0] != "step" else None
            off_int = {sym for sym, t in seen if t is not int}
            assert off_int <= {last_y}, (label, off_int)
            if off_int:
                divided.add(label[0])
    # the exception is taken: the last class does come out a Fraction
    assert divided == {"full", "mixed"}
