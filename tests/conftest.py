"""Shared fixtures."""

import os
from pathlib import Path

import pytest

from dprkit import dpr


def _refuse(*args, **kwargs):
    raise AssertionError("an expanded relation polynomial was used")


@pytest.fixture
def no_materialization(monkeypatch):
    """Make multiplying out a factored product raise, so that a test shows
    that a check runs on the factors alone."""
    monkeypatch.setattr(dpr, "_product_terms", _refuse)


@pytest.fixture
def no_expansion(monkeypatch, no_materialization):
    """Make every use of the expanded relation polynomials raise, so that a
    test shows that a value-only path runs the recursion alone."""
    monkeypatch.setattr(dpr, "_chain", _refuse)
    monkeypatch.setattr(dpr.DprPolynomial, "evaluate_rational", _refuse)
    monkeypatch.setattr(dpr.DprPolynomial, "substitute_families", _refuse)


@pytest.fixture
def cli_env():
    """Environment for a `python -m dprkit.cli` subprocess that imports the
    same dprkit as this session, whether installed or found on `pythonpath`."""
    src = str(Path(dpr.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, rest] if rest else [src])}
