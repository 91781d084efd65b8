"""Command-line interface: every computation as a reproducible subcommand.

Output is canonical JSON by default or aligned text with `--format text`;
identical invocations produce byte-identical stdout.  Exit codes: 0 on
success, 1 when a verification-style command finds its check false, 2 on
usage or domain errors, 3 when an internal invariant breaks (a bug in
dprkit, such as `InconsistentSolve`); errors are reported as a JSON object
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .acceptance import report_json, report_text, run_all
from .algebra import Polynomial, canonical_json, poly_to_json
from .dpr import (
    build_ex,
    build_ey,
    build_fx,
    build_fy,
    build_gx,
    build_gy,
    check_index_bounds,
    check_multilinear,
    mirror_check,
    padding_check,
    weight_check,
)
from .fgl import (
    MODE_NAMES,
    TruncatedSeries,
    associativity_relations,
    denominator_profile,
    division_series,
    inverse_series,
    law_series,
    n_fold_sum,
    series_to_json,
    universal_mode,
)
from .fixedpoint import (
    all_bad_evaluation,
    claim1_case_check,
    guard_report,
    parse_group_spec,
)
from .operators import verify_full_identity, verify_step_identity

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors land as JSON on stderr."""

    def error(self, message):
        _fail(message)


def _fail(message: str):
    sys.stderr.write(canonical_json({"error": message}))
    raise SystemExit(2)


def _emit(args, payload: Callable[[], dict], render: Callable[[], str] | None = None) -> None:
    """Write what `payload` returns as JSON; under --format text write what
    `render` returns, or else the payload as key-value lines.  Each callable
    runs only when its rendering is the one written."""
    if args.format == "json":
        sys.stdout.write(canonical_json(payload()))
    elif render is not None:
        sys.stdout.write(render())
    else:
        sys.stdout.write(_kv_text(payload()))


def _kv_text(payload: dict) -> str:
    width = max(len(k) for k in payload)
    lines = []
    for k, v in payload.items():
        if isinstance(v, (dict, list)):
            v = json.dumps(v)
        lines.append(f"{k:<{width}}  {v}")
    return "\n".join(lines) + "\n"


def _exp_label(exp, names) -> str:
    parts = [f"{v}^{k}" if k > 1 else v for v, k in zip(names, exp) if k]
    return "*".join(parts) if parts else "1"


def _series_text(series: TruncatedSeries) -> str:
    rows = [(_exp_label(exp, series.vars), str(poly))
            for exp, poly in series.coefficients()]
    if not rows:
        return "0\n"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {poly}" for label, poly in rows) + "\n"


def _poly_text(poly: Polynomial) -> str:
    rows = [(f"{c:+d}", str(mono)) for mono, c in poly.sorted_terms()]
    if not rows:
        return "0\n"
    width = max(len(c) for c, _ in rows)
    return "\n".join(f"{c:<{width}}  {mono}" for c, mono in rows) + "\n"


def _mode(args):
    return MODE_NAMES[args.mode]()


# command handlers -----------------------------------------------------------


def _cmd_fgl_show(args) -> int:
    series = law_series(_mode(args), args.order)
    _emit(args, lambda: series_to_json(series), lambda: _series_text(series))
    return 0


def _cmd_fgl_inverse(args) -> int:
    series = inverse_series(_mode(args), args.order)
    _emit(args, lambda: series_to_json(series), lambda: _series_text(series))
    return 0


def _cmd_fgl_nfold(args) -> int:
    series = n_fold_sum(_mode(args), args.n, args.order)
    _emit(args, lambda: series_to_json(series), lambda: _series_text(series))
    return 0


def _cmd_fgl_divide(args) -> int:
    series = division_series(args.n, _mode(args), args.order)
    if args.denominator_profile:
        payload = {
            "n": args.n,
            "order": args.order,
            "profile": [[i, k] for i, k in denominator_profile(series)],
        }
        _emit(args, lambda: payload)
    else:
        _emit(args, lambda: series_to_json(series), lambda: _series_text(series))
    return 0


def _cmd_fgl_relations(args) -> int:
    rels = associativity_relations(universal_mode(), args.order)
    ordered = sorted(rels, key=lambda e: (sum(e), e))
    _emit(args, lambda: {
        "order": args.order,
        "count": len(rels),
        "relations": [{"exp": list(e), "poly": poly_to_json(rels[e])} for e in ordered],
    }, lambda: "".join(
        f"({e[0]},{e[1]},{e[2]})  {rels[e]}\n" for e in ordered) or "none\n")
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
    poly = _BUILDERS[kind](*counts).to_polynomial()
    _emit(args, lambda: poly_to_json(poly), lambda: _poly_text(poly))
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
        gx = _BUILDERS["GX"](n, m)
        gy = _BUILDERS["GY"](m, n)
        if which == "multilinear":
            good = check_multilinear(gx) and check_multilinear(gy)
        elif which == "bounds":
            good = check_index_bounds(gx, n, m) and check_index_bounds(gy, n, m)
        elif which == "weight":
            good = weight_check(gx, 1) and weight_check(gy, 1)
        else:
            good = mirror_check(n, m)
    payload["pass"] = good
    _emit(args, lambda: payload)
    return 0 if good else 1


def _cmd_verify(args) -> int:
    if args.what == "step":
        report = verify_step_identity(
            args.n, trials=args.trials, seed=args.seed, sample_range=args.range
        )
    else:
        report = verify_full_identity(
            args.n, args.m, trials=args.trials, seed=args.seed, sample_range=args.range
        )
    _emit(args, report.to_json)
    return 0 if report.passed else 1


def _cmd_fixedpoint_claim1(args) -> int:
    report = claim1_case_check(args.case)
    _emit(args, lambda: report)
    return 0 if report["equal"] else 1


def _cmd_fixedpoint_allbad(args) -> int:
    report = all_bad_evaluation(args.n, args.m)
    _emit(args, lambda: report)
    return 0 if report["equal"] else 1


def _cmd_fixedpoint_guard(args) -> int:
    report = guard_report(parse_group_spec(args.group))
    _emit(args, lambda: report)
    return 0 if report["holds"] else 1


def _cmd_selftest(args) -> int:
    results = run_all()
    _emit(args, lambda: report_json(results), lambda: report_text(results))
    return 0 if all(r.passed for r in results) else 1


# parser ----------------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output rendering (default json)")


def _add_mode(p) -> None:
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="universal",
                   help="coefficient specialization (default universal)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dprkit", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fgl = top.add_parser("fgl", help="formal group law series")
    fgl_sub = fgl.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = fgl_sub.add_parser("show", help="the two-variable law")
    _add_mode(p)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fgl_show)

    p = fgl_sub.add_parser("inverse", help="the negation series")
    _add_mode(p)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fgl_inverse)

    p = fgl_sub.add_parser("nfold", help="the n-fold sum")
    _add_mode(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fgl_nfold)

    p = fgl_sub.add_parser("divide", help="the division series")
    _add_mode(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--denominator-profile", action="store_true",
                   help="emit the least k with n^k clearing each coefficient")
    _add_format(p)
    p.set_defaults(func=_cmd_fgl_divide)

    p = fgl_sub.add_parser(
        "relations", help="associativity residues of the generic law")
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fgl_relations)

    gdpr = top.add_parser(
        "gdpr", help="relation polynomial builders and checks")
    gdpr_sub = gdpr.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = gdpr_sub.add_parser("build", help="emit one polynomial")
    p.add_argument("kind", type=str.upper,
                   choices=("EX", "FX", "EY", "FY", "GX", "GY"))
    p.add_argument("-n", type=int, required=True,
                   help="own-side class count")
    p.add_argument("-m", type=int, default=None,
                   help="opposite-side class count (GX/GY only)")
    _add_format(p)
    p.set_defaults(func=_cmd_gdpr_build)

    p = gdpr_sub.add_parser("check", help="structural checks")
    p.add_argument("which",
                   choices=("multilinear", "bounds", "weight", "mirror", "padding"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--big-n", type=int, default=None,
                   help="embedding class count on the first side (padding)")
    p.add_argument("--big-m", type=int, default=None,
                   help="embedding class count on the second side (padding)")
    _add_format(p)
    p.set_defaults(func=_cmd_gdpr_check)

    verify = top.add_parser(
        "verify", help="sampled exact-rational identity checks")
    verify_sub = verify.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = verify_sub.add_parser("step", help="one chain extension step")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--range", type=int, default=1000)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = verify_sub.add_parser("full", help="the two-sided relation identity")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--range", type=int, default=1000)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    fp = top.add_parser("fixedpoint", help="goodness-table evaluations")
    fp_sub = fp.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = fp_sub.add_parser("claim1", help="one base goodness pattern")
    p.add_argument("--case", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fixedpoint_claim1)

    p = fp_sub.add_parser(
        "allbad", help="integer evaluation with every divisor bad")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fixedpoint_allbad)

    p = fp_sub.add_parser(
        "guard", help="exhaustive never-exactly-one-bad check")
    p.add_argument("--group", type=str, required=True,
                   help='finite abelian group spec, e.g. "2", "2x2", "2x3"')
    _add_format(p)
    p.set_defaults(func=_cmd_fixedpoint_guard)

    p = top.add_parser("selftest", help="run the whole acceptance suite")
    _add_format(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, ArithmeticError, RuntimeError) as e:
        _report_error(e)
        return 2
    except AssertionError as e:
        # typed invariant errors subclass AssertionError; a broken invariant
        # is a bug, not a false check, so it must not exit 1
        _report_error(e)
        return 3


def _report_error(e: Exception) -> None:
    detail = str(e.args[0]) if e.args else type(e).__name__
    sys.stderr.write(canonical_json({"error": f"{type(e).__name__}: {detail}"}))


if __name__ == "__main__":
    raise SystemExit(main())
