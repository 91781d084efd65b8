"""Shared fixtures."""

import pytest

from dprkit import dpr


@pytest.fixture
def no_expansion(monkeypatch):
    """Make every use of the expanded relation polynomials raise, so that a
    test shows that a value-only path runs the recursion alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("an expanded relation polynomial was used")

    monkeypatch.setattr(dpr, "_ef", refuse)
    monkeypatch.setattr(dpr.DprPolynomial, "evaluate_rational", refuse)
    monkeypatch.setattr(dpr.DprPolynomial, "substitute_families", refuse)
