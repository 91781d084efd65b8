"""One cold pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED [SPANS_PATH]

Imports dprkit (that is set-up, outside the timed pass), runs every item of
the workload once, checks each output and prints one JSON object: the item
times, raw and scaled to reference-host seconds, the failures and a digest
of the canonical outputs.  Checks run outside the timed calls.  With
SPANS_PATH the layer wrappers are installed first and the spans are
written there at the end.
"""

from __future__ import annotations

import time

_start = time.perf_counter()
import dprkit.cli  # noqa: E402,F401  (set-up: every layer is loaded here)

IMPORT_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# entry points are looked up on their modules at call time, so that the
# tracer's wrappers are the ones called
from dprkit import algebra, dpr, fgl, fixedpoint, operators  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


def _report(report):
    return report.passed, algebra.canonical_json(report.to_json())


def _flag(key):
    return lambda result: (result[key] is True, algebra.canonical_json(result))


def _mode(spec):
    if spec[0] == "universal":
        return fgl.universal_mode()
    if spec[0] == "multiplicative":
        return fgl.multiplicative_mode()
    return fgl.custom_mode({(i, j): c for i, j, c in spec[1]})


def _u(order, ring):
    return fgl.TruncatedSeries.variable("u", ("u",), order, ring)


def _grid(n, m):
    gx, gy = dpr.build_gx(n, m), dpr.build_gy(m, n)
    return {
        "n": n,
        "m": m,
        "terms": [len(gx), len(gy)],
        "multilinear": dpr.check_multilinear(gx) and dpr.check_multilinear(gy),
        "bounds": dpr.check_index_bounds(gx, n, m) and dpr.check_index_bounds(gy, n, m),
        "weight": dpr.weight_check(gx, 1) and dpr.weight_check(gy, 1),
        "mirror": dpr.mirror_check(n, m),
    }


def _check_grid(result):
    ok = all(result[k] is True for k in ("multilinear", "bounds", "weight", "mirror"))
    return ok, algebra.canonical_json(result)


def _padding(big_n, big_m):
    return [[n, m, dpr.padding_check(n, m, big_n, big_m)]
            for n in range(1, big_n + 1) for m in range(1, big_m + 1)]


def _check_json(n, m):
    def check(text):
        return len(json.loads(text)["terms"]) == len(dpr.build_gx(n, m)), text
    return check


def _inverse(mode, order):
    inv = fgl.inverse_series(mode, order)
    return inv, fgl.series_to_json(inv)


def _check_inverse(mode, order):
    def check(result):
        inv, payload = result
        law = fgl.law_series(mode, order)
        cancels = fgl.series_apply(law, [_u(order, inv.ring), inv]).is_zero()
        return cancels, algebra.canonical_json(payload)
    return check


def _associativity(mode, order):
    rels = fgl.associativity_relations(mode, order)
    return rels, {
        "order": order,
        "count": len(rels),
        "relations": [{"exp": list(e), "poly": algebra.poly_to_json(rels[e])}
                      for e in sorted(rels, key=lambda e: (sum(e), e))],
    }


def _check_associativity(result):
    # for a commutative law A(u,v,w) = -A(w,v,u), so the residue at (i,j,k)
    # is minus the one at (k,j,i) and none sits at i == k
    rels, payload = result
    ok = all(i != k and rels.get((k, j, i)) == -poly for (i, j, k), poly in rels.items())
    return ok, algebra.canonical_json(payload)


def _division(mode, n, order):
    series = fgl.division_series(n, mode, order)
    payload = {"series": fgl.series_to_json(series),
               "profile": [list(p) for p in fgl.denominator_profile(series)]}
    return series, payload


def _check_division(mode, n, order):
    def check(result):
        series, payload = result
        back = fgl.series_apply(series, [fgl.n_fold_sum(mode, n, order)])
        return back == _u(order, series.ring), algebra.canonical_json(payload)
    return check


def _evaldim(mode, order, dim):
    # the law itself, not a cached series, so the item costs the same in
    # any position of the seeded order
    x, y = algebra.VarSymbol("x"), algebra.VarSymbol("y")
    return fgl.eval_dim_truncated(fgl.law_series(mode, order), [x, y], dim)


def _check_evaldim(dim):
    def check(poly):
        payload = algebra.poly_to_json(poly)
        terms = payload["terms"]
        # products of degree above dim vanish; the law starts with x + y
        one = {"num": "1", "den": "1"}
        ok = all(t["monomial"].get("x", 0) + t["monomial"].get("y", 0) <= dim for t in terms)
        ok = ok and all({"coeff": one, "monomial": {v: 1}} in terms for v in ("x", "y"))
        return ok, algebra.canonical_json(payload)
    return check


def runner(item):
    """(timed call, check) for one item; check gives (ok, canonical text)."""
    kind = item[0]
    if kind == "step":
        _, n, trials, seed = item
        return lambda: operators.verify_step_identity(n, trials=trials, seed=seed), _report
    if kind == "full":
        _, n, m, trials, seed = item
        return lambda: operators.verify_full_identity(n, m, trials=trials, seed=seed), _report
    if kind == "mixed":
        _, n, m, trials, seed = item
        return lambda: fixedpoint.verify_mixed_contexts(n, m, trials=trials, seed=seed), _report
    if kind == "allbad":
        # lhs == rhs only: the common value is criterion 6's open question
        return lambda: fixedpoint.all_bad_evaluation(item[1], item[2]), _flag("equal")
    if kind == "grid":
        return lambda: _grid(item[1], item[2]), _check_grid
    if kind == "padding":
        return (lambda: _padding(item[1], item[2]),
                lambda rows: (all(ok is True for *_, ok in rows), algebra.canonical_json(rows)))
    if kind == "json":
        n, m = item[1], item[2]
        export = lambda: algebra.canonical_json(dpr.dpr_to_json(dpr.build_gx(n, m)))  # noqa: E731
        return export, _check_json(n, m)
    if kind == "claim1":
        return lambda: fixedpoint.claim1_case_check(item[1]), _flag("equal")
    if kind == "guard":
        return lambda: fixedpoint.guard_report(tuple(item[1])), _flag("holds")
    mode = _mode(item[1])
    if kind == "inverse":
        return lambda: _inverse(mode, item[2]), _check_inverse(mode, item[2])
    if kind == "associativity":
        return lambda: _associativity(mode, item[2]), _check_associativity
    if kind == "division":
        _, _, n, order = item
        return lambda: _division(mode, n, order), _check_division(mode, n, order)
    if kind == "evaldim":
        _, _, order, dim = item
        return lambda: _evaldim(mode, order, dim), _check_evaldim(dim)
    raise ValueError(f"unknown item kind {kind!r}")


def run_pass(items, make=runner, tracer=None) -> dict:
    """Run each item once; an item that raises or fails its check counts as failed.

    `latencies` are the items' times, `scaled` the same in reference-host
    seconds (see hostspeed.py)."""
    clock = hostspeed.Clock()
    digest = hashlib.sha256()
    timings: list[tuple[float, float]] = []
    errors: list[str] = []
    for index, item in enumerate(items):
        call, check = make(item)
        if tracer is not None:
            tracer.item = index
            call = tracer.traced("item", call)
        clock.calibrate()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashing item is a failed item
            timings.append((start, time.perf_counter() - start))
            errors.append(f"{item!r}: {type(exc).__name__}: {exc}")
            digest.update(f"{index} error\n".encode())
            continue
        timings.append((start, time.perf_counter() - start))
        try:
            ok, text = check(result)
        except Exception as exc:
            ok, text = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            errors.append(f"{item!r}: check failed")
        digest.update(f"{index}\n{text}\n".encode())
    clock.calibrate(force=True)
    return {
        "attempted": len(items),
        "failed": len(errors),
        "errors": errors,
        "latencies": [seconds for _, seconds in timings],
        "scaled": [clock.scale(start, seconds) for start, seconds in timings],
        "digest": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    result = run_pass(inputs.ITEMS[workload](seed), tracer=tracer)
    result["import_s"] = IMPORT_S
    if tracer is not None:
        tracer.dump(spans_path, IMPORT_S)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
