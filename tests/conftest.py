"""Shared fixtures."""

import os
from pathlib import Path

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


@pytest.fixture
def cli_env():
    """Environment for a `python -m dprkit.cli` subprocess that imports the
    same dprkit as this session, whether installed or found on `pythonpath`."""
    src = str(Path(dpr.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, rest] if rest else [src])}
