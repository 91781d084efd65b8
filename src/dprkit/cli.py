"""Command-line interface: every computation as a reproducible subcommand.

Output is canonical JSON by default or aligned text with `--format text`;
identical invocations produce byte-identical stdout.  Exit codes: 0 on
success, 1 when a verification-style command finds its check false, 2 on
usage or domain errors, when memory runs out or when stdout's reader has
gone (a broken pipe, as under `| head`), 3 when an internal
invariant breaks (a bug in dprkit, such as `InconsistentSolve`) or any
other exception escapes a command; errors are reported as a JSON object
on stderr.  JSON goes out through `algebra.write_json`, whole list
elements a chunk at a time, and the text of `gdpr build` about 4,096 rows
at a time, so an error while a document is written leaves its start on
stdout.

A subcommand is declared by one entry of `_COMMANDS`, under its group:
its name, help, handler and argument specs in order (the shared ones are
`_MODE`, `_ORDER`, `_N`, `_M` and `_SAMPLING`); `_leaf` adds `--format` to
each.  The handlers read tables keyed by the subcommand's name: `_SERIES`
for the series an `fgl` command prints, `_REPORTS` for the report of each
`verify` and `fixedpoint` command and the key that sets its exit code;
`gdpr check` runs a check of `dpr.PAIR_CHECKS` on GX and GY, and that
table's names and padding are its choices.  `gdpr build` only formats: a
relation's terms come from `dpr.ordered_terms`, in output order, and its
coefficient set from `DprPolynomial.distinct_coefficients`.

Only `algebra` and `dpr` are imported up front; `fgl`, `operators`,
`fixedpoint` and `acceptance` are registered by `_lazy` and execute on the
first attribute a handler reads, so each command runs only the layers it
calls.

Outside dprkit, a command imports `argparse`, `importlib.util`, `typing`,
`fractions` and what they import, `random` when it samples, and the C
module `_json`, whose string encoder canonical JSON is written with.
Nothing on that path imports `inspect`, and the value classes are plain
classes.  The `json` package loads only under `--format text`, whose
key-value lines write nested values with `json.dumps`.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from typing import Callable

from .algebra import Monomial, VarSymbol, canonical_json, poly_to_json, write_json
from .dpr import (
    PAIR_CHECKS,
    DprPolynomial,
    build_ex,
    build_ey,
    build_fx,
    build_fy,
    build_gx,
    build_gy,
    dpr_to_json,
    ordered_terms,
    padding_check,
)


def _lazy(name: str):
    """The dprkit module `name`, put in `sys.modules` to execute on its first
    attribute access; one already imported is returned as it is.  The
    package binds it when first asked for it (see `dprkit.__getattr__`)."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


fgl = _lazy("fgl")
operators = _lazy("operators")
fixedpoint = _lazy("fixedpoint")
acceptance = _lazy("acceptance")

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors land as JSON on stderr."""

    def error(self, message):
        _fail(message)


def _fail(message: str):
    sys.stderr.write(canonical_json({"error": message}))
    raise SystemExit(2)


def _emit(args, payload: Callable[[], dict],
          render: Callable[[Callable[[str], object]], None] | None = None) -> None:
    """Write what `payload` returns as JSON, streamed in chunks by
    `write_json`; under --format text `render` writes its text through the
    write it is given, or else the payload goes out as key-value lines.
    Each callable runs only when its rendering is the one written."""
    if args.format == "json":
        write_json(payload(), sys.stdout.write)
    elif render is not None:
        render(sys.stdout.write)
    else:
        sys.stdout.write(_kv_text(payload()))


def _columns(rows: list[tuple[str, object]]) -> str:
    """Rows of two columns, the first padded to its widest entry; "0" when
    there are none."""
    if not rows:
        return "0\n"
    width = max(len(a) for a, _ in rows)
    return "".join(f"{a:<{width}}  {b}\n" for a, b in rows)


def _kv_text(payload: dict) -> str:
    import json  # only --format text reaches here, so JSON output never loads it

    return _columns([(k, json.dumps(v) if isinstance(v, (dict, list)) else v)
                     for k, v in payload.items()])


def _series_text(series: fgl.TruncatedSeries) -> str:
    names = tuple(map(VarSymbol, series.vars))
    return _columns([(str(Monomial(zip(names, exp))), poly)
                     for exp, poly in series.coefficients()])


def _poly_text(g: DprPolynomial, write: Callable[[str], object]) -> None:
    """Write g's terms as `_columns` rows (signed coefficient, then names)
    through `write`, about 4,096 rows at a time, so the text is never held
    whole.  The rows come from `ordered_terms`, and the column width and
    each row's label from `g.distinct_coefficients()`, before any row is
    made."""
    coeffs = g.distinct_coefficients()
    if not coeffs:
        write("0\n")
        return
    width = max(len(f"{c:+d}") for c in coeffs)
    labels = {c: f"{c:<+{width}d}  " for c in coeffs}
    rows: list[str] = []
    for names, c in ordered_terms(g):
        rows.append(labels[c] + ("*".join(names) or "1") + "\n")
        if len(rows) >= 4096:
            write("".join(rows))
            rows.clear()
    write("".join(rows))


# command handlers -----------------------------------------------------------


# the series each `fgl` command other than `relations` prints
_SERIES = {
    "show": lambda a, mode: fgl.law_series(mode, a.order),
    "inverse": lambda a, mode: fgl.inverse_series(mode, a.order),
    "nfold": lambda a, mode: fgl.n_fold_sum(mode, a.n, a.order),
    "divide": lambda a, mode: fgl.division_series(a.n, mode, a.order),
}


def _cmd_series(args) -> int:
    series = _SERIES[args.what](args, fgl.MODE_NAMES[args.mode]())
    if args.what == "divide" and args.denominator_profile:
        payload = {
            "n": args.n,
            "order": args.order,
            "profile": [[i, k] for i, k in fgl.denominator_profile(series)],
        }
        _emit(args, lambda: payload)
    else:
        _emit(args, lambda: fgl.series_to_json(series),
              lambda write: write(_series_text(series)))
    return 0


def _cmd_fgl_relations(args) -> int:
    rels = fgl.associativity_relations(fgl.universal_mode(), args.order)
    _emit(args, lambda: {
        "order": args.order,
        "count": len(rels),
        "relations": [{"exp": list(e), "poly": poly_to_json(p)} for e, p in rels.items()],
    }, lambda write: write("".join(
        f"({e[0]},{e[1]},{e[2]})  {p}\n" for e, p in rels.items()) or "none\n"))
    return 0


_BUILDERS = {"EX": build_ex, "FX": build_fx, "EY": build_ey, "FY": build_fy,
             "GX": build_gx, "GY": build_gy}


def _cmd_gdpr_build(args) -> int:
    kind = args.kind
    if kind in ("GX", "GY"):
        if args.m is None:
            _fail(f"{kind} needs both -n and -m")
        counts = (args.n, args.m)
    elif args.m is not None:
        _fail(f"-m does not apply to {kind}")
    else:
        counts = (args.n,)
    g = _BUILDERS[kind](*counts)
    _emit(args, lambda: dpr_to_json(g), lambda write: _poly_text(g, write))
    return 0


def _cmd_gdpr_check(args) -> int:
    n, m = args.n, args.m
    which = args.which
    payload = {"check": which, "n": n, "m": m}
    if which == "padding":
        if args.big_n is None or args.big_m is None:
            _fail("padding needs --big-n and --big-m")
        payload["big_n"], payload["big_m"] = args.big_n, args.big_m
        good = padding_check(n, m, args.big_n, args.big_m)
    else:
        for flag, value in (("--big-n", args.big_n), ("--big-m", args.big_m)):
            if value is not None:
                _fail(f"{flag} does not apply to {which}")
        good = PAIR_CHECKS[which](_BUILDERS["GX"](n, m), _BUILDERS["GY"](m, n), n, m)
    payload["pass"] = good
    _emit(args, lambda: payload)
    return 0 if good else 1


# each `verify` and `fixedpoint` command: its report, and the key whose
# truth makes the exit code 0 rather than 1
_REPORTS = {
    "step": (lambda a: operators.verify_step_identity(
        a.n, trials=a.trials, seed=a.seed, sample_range=a.range).to_json(), "pass"),
    "full": (lambda a: operators.verify_full_identity(
        a.n, a.m, trials=a.trials, seed=a.seed, sample_range=a.range).to_json(), "pass"),
    "mixed": (lambda a: fixedpoint.verify_mixed_contexts(
        a.n, a.m, trials=a.trials, seed=a.seed, sample_range=a.range).to_json(), "pass"),
    "claim1": (lambda a: fixedpoint.claim1_case_check(a.case), "equal"),
    "allbad": (lambda a: fixedpoint.all_bad_evaluation(a.n, a.m), "equal"),
    "guard": (lambda a: fixedpoint.guard_report(fixedpoint.parse_group_spec(a.group)), "holds"),
}


def _cmd_report(args) -> int:
    make, key = _REPORTS[args.what]
    report = make(args)
    _emit(args, lambda: report)
    return 0 if report[key] else 1


def _cmd_selftest(args) -> int:
    results = acceptance.run_all()
    _emit(args, lambda: acceptance.report_json(results),
          lambda write: write(acceptance.report_text(results)))
    return 0 if all(r.passed for r in results) else 1


# parser ----------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


# the names of fgl.MODE_NAMES, spelled out so that building the parser
# does not execute fgl
_MODE = _arg("--mode", choices=("additive", "multiplicative", "universal"),
             default="universal", help="coefficient specialization (default universal)")
_ORDER = _arg("--order", type=int, required=True)
_N = _arg("-n", type=int, required=True)
_M = _arg("-m", type=int, required=True)
_SAMPLING = (_arg("--trials", type=int, default=20),
             _arg("--seed", type=int, required=True),
             _arg("--range", type=int, default=1000))


def _group(top, name: str, help: str):
    return top.add_parser(name, help=help).add_subparsers(
        dest="what", required=True, parser_class=_Parser)


def _leaf(group, name: str, help: str, handler, *arguments) -> None:
    """Declare one subcommand: its arguments in order, then --format."""
    p = group.add_parser(name, help=help)
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output rendering (default json)")
    p.set_defaults(func=handler)


# the top-level commands in help order: a group's help and its leaves, each
# given as `_leaf` takes it, or a top-level leaf's help and handler
_COMMANDS = {
    "fgl": ("formal group law series", (
        ("show", "the two-variable law", _cmd_series, _MODE, _ORDER),
        ("inverse", "the negation series", _cmd_series, _MODE, _ORDER),
        ("nfold", "the n-fold sum", _cmd_series, _MODE, _N, _ORDER),
        ("divide", "the division series", _cmd_series, _MODE, _N, _ORDER,
         _arg("--denominator-profile", action="store_true",
              help="emit the least k with n^k clearing each coefficient")),
        ("relations", "associativity residues of the generic law", _cmd_fgl_relations, _ORDER),
    )),
    "gdpr": ("relation polynomial builders and checks", (
        ("build", "emit one polynomial", _cmd_gdpr_build,
         _arg("kind", type=str.upper, choices=tuple(_BUILDERS)),
         _arg("-n", type=int, required=True, help="own-side class count"),
         _arg("-m", type=int, default=None, help="opposite-side class count (GX/GY only)")),
        ("check", "structural checks", _cmd_gdpr_check,
         _arg("which", choices=(*PAIR_CHECKS, "padding")), _N, _M,
         _arg("--big-n", type=int, default=None,
              help="embedding class count on the first side (padding)"),
         _arg("--big-m", type=int, default=None,
              help="embedding class count on the second side (padding)")),
    )),
    "verify": ("sampled exact-rational identity checks", (
        ("step", "one chain extension step", _cmd_report, _N, *_SAMPLING),
        ("full", "the two-sided relation identity", _cmd_report, _N, _M, *_SAMPLING),
        ("mixed", "the two-sided identity under sampled goodness contexts",
         _cmd_report, _N, _M, *_SAMPLING),
    )),
    "fixedpoint": ("goodness-table evaluations", (
        ("claim1", "one base goodness pattern", _cmd_report,
         _arg("--case", type=int, required=True)),
        ("allbad", "integer evaluation with every divisor bad", _cmd_report, _N, _M),
        ("guard", "exhaustive never-exactly-one-bad check", _cmd_report,
         _arg("--group", type=str, required=True,
              help='finite abelian group spec, e.g. "2", "2x2", "2x3"')),
    )),
    "selftest": ("run the whole acceptance suite", _cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dprkit", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help, body) in _COMMANDS.items():
        if callable(body):
            _leaf(top, name, help, body)
        else:
            group = _group(top, name, help)
            for leaf in body:
                _leaf(group, *leaf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now is met here, not at exit
        return code
    except SystemExit:
        raise
    except (ValueError, KeyError, ArithmeticError, RuntimeError, MemoryError,
            BrokenPipeError) as e:
        _report_error(e)
        return 2
    except Exception as e:
        # a broken invariant (typed ones subclass AssertionError) or any
        # other escape is a bug, not a false check, so it must not exit 1
        _report_error(e)
        return 3


def _report_error(e: Exception) -> None:
    # a BrokenPipeError is stdout's reader gone, as under `| head`
    broken = [sys.stdout] if isinstance(e, BrokenPipeError) else []
    detail = str(e) if isinstance(e, OSError) else str(e.args[0]) if e.args else type(e).__name__
    try:
        sys.stderr.write(canonical_json({"error": f"{type(e).__name__}: {detail}"}))
    except BrokenPipeError:
        broken.append(sys.stderr)
    for stream in broken:
        # point its descriptor at os.devnull, keeping the stream object, so
        # that no flush of what it holds, the one at exit included, raises
        try:
            fd = stream.fileno()
        except (OSError, ValueError):  # no descriptor, as for a StringIO
            continue
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)
        stream.flush()


if __name__ == "__main__":
    raise SystemExit(main())
