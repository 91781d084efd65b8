"""dprkit: exact symbolic engine for double point relation polynomials.

The package has five working layers:

- ``algebra``: sparse exact polynomials over localized integer rings;
- ``fgl``: truncated one- and two-variable series for a universal,
  additive, or multiplicative group law, with inverses, n-fold sums,
  division series, and associativity residues;
- ``dpr``: the recursive excess/correction relation polynomials and their
  structural checks (multilinearity, index bounds, weights, mirror
  symmetry, padding stability);
- ``operators``: randomized exact verification that the relation
  polynomials encode the operator identities they were built from;
- ``fixedpoint``: the character/goodness model, the substitution table for
  fixed-point images, the five small-case checks, and the all-bad
  degeneration.

``cli`` exposes all of it as the ``dprkit`` command.
"""

import sys

__version__ = "0.1.0"

__all__ = ["__version__"]


def __getattr__(name: str):
    """A layer that `dprkit.cli` put in `sys.modules` to execute on first use,
    executed and bound here as a first import of it would have been.

    So `import dprkit.fgl; dprkit.fgl.law_series` works, and `from dprkit
    import fgl` executes fgl there rather than at its first use after it.
    """
    module = sys.modules.get(f"{__name__}.{name}")
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    vars(module)  # reading any attribute of a lazy module executes it
    globals()[name] = module
    return module
