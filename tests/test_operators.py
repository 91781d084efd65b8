"""Operator identity verification: the H expression, images, sampled checks."""

import json
import time

import pytest

from dprkit import operators
from dprkit.algebra import Monomial, Polynomial, VarSymbol, ZZ, canonical_json
from dprkit.dpr import build_gx, build_gy
from dprkit.fixedpoint import verify_mixed_contexts
from dprkit.operators import (
    MissingImage,
    VerificationReport,
    apply_G,
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
    lhs = apply_G(build_gx(2, 1), images)
    rhs = apply_G(build_gy(1, 2), images)
    assert lhs - rhs == h_expression()


def test_apply_g_requires_every_image():
    with pytest.raises(MissingImage):
        apply_G(build_gx(2, 1), {VarSymbol("X", (1,)): 1})


def test_apply_g_accepts_plain_polynomials_and_numbers():
    p = Polynomial(ZZ, {Monomial({VarSymbol("X", (1,)): 1, VarSymbol("X", (2,)): 1}): 3})
    out = apply_G(p, {VarSymbol("X", (1,)): 2, VarSymbol("X", (2,)): V("cL")})
    assert out == V("cL") * 6


def test_step_identity_passes_and_is_deterministic():
    first = verify_step_identity(3, trials=6, seed=42)
    again = verify_step_identity(3, trials=6, seed=42)
    assert first.passed
    assert first == again
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


def test_broken_builder_is_caught(monkeypatch):
    # the verifier reads T_k and F_k from the recursion; a correction value
    # F_3 that is off by X_1 must fail the step identity
    real = operators.chain_values

    def tampered(side, n, value):
        chain = real(side, n, value)
        if n >= 3:
            t, f = chain[2]
            chain[2] = (t, f + value[VarSymbol("X", (1,))])
        return chain

    monkeypatch.setattr(operators, "chain_values", tampered)
    report = verify_step_identity(3, trials=3, seed=5)
    assert not report.passed


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
    assert a == b
    assert a.resamples == b.resamples
