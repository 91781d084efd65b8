"""The step cases a goodness context keeps, against the pure classifier.

`GoodnessContext.step` classifies step k of a chain on its first ask and
keeps the case; `_step_goodness` classifies afresh on every call.  Over
drawn contexts, every kept case must be the one the classifier gives on a
fresh, equal context, whatever order the steps are asked in, and a step
the classifier refuses must be refused on every ask.  The table's symbol
constructors hand out the interned `VarSymbol` itself.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dprkit import fixedpoint  # noqa: E402
from dprkit.algebra import VarSymbol  # noqa: E402
from dprkit.fixedpoint import GoodnessContext, ImpossibleGoodness  # noqa: E402
from dprkit.operators import DegenerateSample  # noqa: E402
from test_fixedpoint import Replay  # noqa: E402


class _Forced(GoodnessContext):
    """A context whose goodness is a drawn table rather than characters, so
    it can hold the one-bad triples that characters rule out."""

    __slots__ = ("_table",)

    def good(self, combo):
        return self._table[(combo,) if isinstance(combo, str) else tuple(combo)]


def _steps(ctx):
    return [(names, k) for names in (ctx.x_divisors, ctx.y_divisors)
            for k in range(2, len(names) + 1)]


def _classify(ctx, names, k):
    """The classifier's case, or the exception class it raises."""
    try:
        return fixedpoint._step_goodness(ctx, names, k)
    except ImpossibleGoodness:
        return ImpossibleGoodness


def _kept(ctx, names, k):
    try:
        return ctx.step(names, k)
    except ImpossibleGoodness:
        return ImpossibleGoodness


@st.composite
def drawn_contexts(draw):
    """(make, seed): `make()` builds a fresh context of up to six classes a
    side, equal every time; the seed orders the asks and samples a trial."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    names = [f"A{i}" for i in range(1, n + 1)], [f"B{j}" for j in range(1, m + 1)]
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        group = draw(st.sampled_from(fixedpoint.DEFAULT_GUARD_GROUPS + ((1,),)))
        values = draw(st.lists(st.integers(0, 5), min_size=(n + m - 1) * len(group),
                               max_size=(n + m - 1) * len(group)))
        return (lambda: fixedpoint._mixed_context(Replay(values), n, m, group)), seed
    prefixes = {tuple(side[:k]) for side in names for k in range(1, len(side) + 1)}
    combos = sorted(prefixes | {(name,) for side in names for name in side})
    table = dict(zip(combos, draw(st.lists(st.booleans(), min_size=len(combos),
                                           max_size=len(combos)))))

    def make():
        every = names[0] + names[1]
        ctx = _Forced((1,), names[0], names[1], dict.fromkeys(every, (0,)))
        object.__setattr__(ctx, "_table", table)
        return ctx
    return make, seed


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(drawn=drawn_contexts())
def test_kept_step_cases_are_the_classifier_s(drawn):
    make, seed = drawn
    ctx = make()
    rng = random.Random(seed)
    steps = _steps(ctx)
    if not isinstance(ctx, _Forced):
        # a trial keeps what its walks and the table ask, in their order; a
        # vanishing solve denominator ends it, and what it kept is checked
        try:
            assert fixedpoint._mixed_trial(rng, ctx, 1000)
        except DegenerateSample:
            pass
        for key, case in ctx._steps.items():
            assert case == _classify(make(), *key), key
    rng.shuffle(steps)
    for names, k in steps + steps:
        expected = _classify(make(), names, k)
        assert _kept(ctx, names, k) == expected, (names, k)
        if expected is ImpossibleGoodness:
            assert (names, k) not in ctx._steps
        else:
            sigma = ctx._steps[names, k][1]
            assert ctx.step(names, k) is ctx._steps[names, k]
            assert sigma is None or sigma is VarSymbol(sigma.family)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(name=st.text(min_size=1, max_size=8), k=st.integers(2, 40),
       prefix=st.sampled_from(("p2", "p3", "q2", "q3")))
def test_held_symbols_are_the_interned_ones(name, k, prefix):
    # the first ask makes the symbol and every later ask reads the held one:
    # both are the interned object
    for _ in range(2):
        assert fixedpoint.c_symbol(name) is VarSymbol(f"c[{name}]")
        assert fixedpoint.sigma_symbol(name) is VarSymbol(f"sigma1[{name}]")
        assert fixedpoint._tower_symbol(prefix, k) is VarSymbol(prefix, (k,))
