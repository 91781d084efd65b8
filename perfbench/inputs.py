"""Seeded inputs for the four benchmark workloads.

Everything the program receives is generated here from the workload seed,
so one seed always gives the same inputs.  The set of items a workload runs
is fixed; the seed picks the verifier seeds, the divisors, the custom law
table, the item order and the CLI command mix.  That keeps the amount of
work nearly constant across seeds while the values the program sees change.

An item is a tuple of plain data whose first entry names its kind; a CLI
item is the argument list of one `dprkit` command.  This module imports
nothing from dprkit, so the parent process never loads the library.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "expand", "series", "cli")

# commands per CLI pass; seven passes make the 100 command runs of a
# benchmark run, so each command's median rests on seven runs
CLI_PASS_COMMANDS = 15

_SEED_SPACE = 1 << 30


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, so PYTHONHASHSEED does not matter
    return random.Random(f"{workload}:{seed}")


def verify_items(seed: int) -> list[tuple]:
    """Seeded verifiers on small grids plus the all-bad (8, 8) grid.

    Trial counts are fixed and kept low so that a pass stays near four
    seconds; the seed only moves the sampled points and the order.
    """
    rng = _rng("verify", seed)
    items: list[tuple] = [("step", n, 2, rng.randrange(_SEED_SPACE)) for n in range(2, 9)]
    for kind in ("full", "mixed"):
        items += [(kind, n, m, 1, rng.randrange(_SEED_SPACE))
                  for n in range(1, 6) for m in range(1, 6)]
    items += [("allbad", n, m) for n in range(1, 9) for m in range(1, 9)]
    rng.shuffle(items)
    return items


def expand_items(seed: int) -> list[tuple]:
    """Every term of the (8, 8) grid, its structural checks and exports."""
    rng = _rng("expand", seed)
    items: list[tuple] = [("grid", n, m) for n in range(1, 9) for m in range(1, 9)]
    items += [("padding", big_n, big_m) for big_n in range(1, 7) for big_m in range(1, 7)]
    items += [("json", n, m) for n in range(1, 6) for m in range(1, 6)]
    items += [("claim1", case) for case in range(1, 6)]
    items += [("guard", list(group)) for group in ((2,), (3,), (2, 2), (6,))]
    rng.shuffle(items)
    return items


def series_items(seed: int) -> list[tuple]:
    """Group-law series at orders 12-16 under a symbolic, a scalar and a
    seeded custom law.

    Costs are kept nearly independent of the seed, so that the median and
    90th-percentile items do not change with it: the custom table has no
    zero entries, so every seed gives it the same sparsity; the symbolic
    law is divided by every n in 2..9 (its cost grows with n by up to a
    factor 1.7); the scalar laws divide by a seeded n at order 12 only; and
    the custom law's associativity residues, whose cost above order 12
    depends on the table, are taken at order 12 only.
    """
    rng = _rng("series", seed)
    table = [[i, j, rng.choice((-2, -1, 1, 2))]
             for i in range(1, 16) for j in range(i, 17 - i)]
    modes = (["universal"], ["multiplicative"], ["custom", table])
    items: list[tuple] = []
    for order in (12, 14, 16):
        items += [("inverse", mode, order) for mode in modes]
    # the universal residues at order 16 alone would take 1.5 s a pass
    items += [("associativity", modes[0], order) for order in (12, 14)]
    items += [("associativity", modes[1], order) for order in (12, 14, 16)]
    items.append(("associativity", modes[2], 12))
    items += [("division", modes[0], n, 12) for n in range(2, 10)]
    items += [("division", mode, rng.randint(2, 9), 12) for mode in modes[1:]]
    items.append(("evaldim", modes[0], 16, rng.randint(4, 12)))
    rng.shuffle(items)
    return items


def _cli_command(rng: random.Random) -> list[str]:
    kind = rng.randrange(12)
    if kind == 0:
        mode = rng.choice(("universal", "additive", "multiplicative"))
        return ["fgl", "show", "--mode", mode, "--order", str(rng.randint(3, 8))]
    if kind == 1:
        return ["fgl", "inverse", "--order", str(rng.randint(3, 8))]
    if kind == 2:
        return ["fgl", "nfold", "-n", str(rng.randint(2, 4)), "--order", str(rng.randint(3, 7))]
    if kind == 3:
        args = ["fgl", "divide", "-n", str(rng.randint(2, 5)), "--order", str(rng.randint(2, 7))]
        return args + ["--denominator-profile"] if rng.random() < 0.5 else args
    if kind == 4:
        return ["fgl", "relations", "--order", str(rng.randint(4, 6))]
    if kind == 5:
        which = rng.choice(("EX", "FX", "EY", "FY", "GX", "GY"))
        if which in ("GX", "GY"):
            return ["gdpr", "build", which, "-n", str(rng.randint(1, 3)),
                    "-m", str(rng.randint(1, 3))]
        return ["gdpr", "build", which, "-n", str(rng.randint(1, 4))]
    if kind == 6:
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        which = rng.choice(("multilinear", "bounds", "weight", "mirror", "padding"))
        args = ["gdpr", "check", which, "-n", str(n), "-m", str(m)]
        if which == "padding":
            args += ["--big-n", str(rng.randint(n, 4)), "--big-m", str(rng.randint(m, 4))]
        return args
    if kind == 7:
        return ["verify", "step", "-n", str(rng.randint(2, 5)), "--trials", "5",
                "--seed", str(rng.randrange(_SEED_SPACE))]
    if kind == 8:
        return ["verify", "full", "-n", str(rng.randint(1, 3)), "-m", str(rng.randint(1, 3)),
                "--trials", "5", "--seed", str(rng.randrange(_SEED_SPACE))]
    if kind == 9:
        return ["fixedpoint", "claim1", "--case", str(rng.randint(1, 5))]
    if kind == 10:
        return ["fixedpoint", "allbad", "-n", str(rng.randint(1, 5)), "-m", str(rng.randint(1, 5))]
    return ["fixedpoint", "guard", "--group", rng.choice(("2", "3", "2x2", "6"))]


def cli_items(seed: int) -> list[list[str]]:
    """A seeded mix of short subcommands, each run as its own process."""
    rng = _rng("cli", seed)
    return [_cli_command(rng) for _ in range(CLI_PASS_COMMANDS)]


ITEMS = {
    "verify": verify_items,
    "expand": expand_items,
    "series": series_items,
    "cli": cli_items,
}
