"""Per-layer spans recorded from outside dprkit.

`Tracer.install` replaces the public entry points of each layer with a
wrapper that records a span [layer, start, end, parent span, item id].  It
patches every place a function is reachable from: the defining module, each
dprkit module that imported the name, and dicts such as the CLI's builder
table.  Methods are patched on their class, so calls made from another
layer (an evaluation inside a verifier, a polynomial product inside the
fixed-point table) nest under the caller's span.

Spans stay in memory and are written out once, by `dump`.  A layer's self
time is the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> (module, entry points); "Class.method" names a method
LAYERS = {
    "dpr.build": ("dprkit.dpr", ("build_ex", "build_fx", "build_ey", "build_fy",
                                 "build_gx", "build_gy")),
    "dpr.eval": ("dprkit.dpr", ("DprPolynomial.evaluate_rational",
                                "DprPolynomial.substitute_families")),
    "dpr.check": ("dprkit.dpr", ("check_multilinear", "check_index_bounds",
                                 "weight_check", "mirror_check", "padding_check")),
    "dpr.export": ("dprkit.dpr", ("DprPolynomial.to_polynomial",
                                  "DprPolynomial.sorted_terms", "dpr_to_json")),
    "operators.verify": ("dprkit.operators", ("verify_step_identity",
                                              "verify_full_identity")),
    "fixedpoint.mixed": ("dprkit.fixedpoint", ("verify_mixed_contexts",)),
    "fixedpoint.allbad": ("dprkit.fixedpoint", ("all_bad_evaluation",)),
    "fixedpoint.table": ("dprkit.fixedpoint", ("fprime_of_var", "fprime_eval",
                                               "claim1_case_check", "guard_report")),
    "fgl.mul": ("dprkit.fgl", ("TruncatedSeries.__mul__",)),
    "fgl.apply": ("dprkit.fgl", ("series_apply", "compose")),
    "fgl.solve": ("dprkit.fgl", ("inverse_series", "division_series")),
    "fgl.law": ("dprkit.fgl", ("law_series", "n_fold_sum", "associativity_relations",
                               "eval_dim_truncated", "denominator_profile")),
    "fgl.export": ("dprkit.fgl", ("series_to_json",)),
    "algebra.poly": ("dprkit.algebra", ("Polynomial.__add__", "Polynomial.__sub__",
                                        "Polynomial.__rsub__", "Polynomial.__neg__",
                                        "Polynomial.__mul__", "Polynomial.__pow__",
                                        "Polynomial.substitute",
                                        "Polynomial.evaluate_rational",
                                        "Polynomial.map_symbols")),
    "algebra.json": ("dprkit.algebra", ("poly_to_json", "canonical_json")),
    "cli.main": ("dprkit.cli", ("main",)),
}


def _result_len(key):
    return lambda args, result: {key: len(result)}


def _receiver_len(key):
    return lambda args, result: {key: len(args[0])}


def _verifier(args, report):
    return {"operators.trials": report.trials, "operators.resamples": report.resamples}


# entry point -> counters it adds, from its arguments and result
COUNTERS = {
    **{name: _result_len("dpr.build.terms") for name in LAYERS["dpr.build"][1]},
    **{name: _receiver_len("dpr.eval.terms") for name in LAYERS["dpr.eval"][1]},
    **{name: _receiver_len("dpr.export.terms") for name in LAYERS["dpr.export"][1]},
    "verify_step_identity": _verifier,
    "verify_full_identity": _verifier,
    "verify_mixed_contexts": lambda a, r: {"fixedpoint.mixed.resamples": r.resamples},
    "guard_report": lambda a, r: {"fixedpoint.guard.contexts": r["contexts"]},
    "canonical_json": lambda a, r: {"algebra.json.bytes": len(r.encode())},
}

COUNTER_NAMES = (
    "dpr.build.terms", "dpr.eval.terms", "dpr.export.terms",
    "operators.trials", "operators.resamples",
    "fixedpoint.mixed.resamples", "fixedpoint.guard.contexts",
    "fgl.cache.hits", "fgl.cache.misses",
    "algebra.json.bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.item = None
        # spans are recorded only inside a window opened by `traced`, so
        # the benchmark's own output checks stay out of the layer times
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []
        self._caches: list = []

    def traced(self, layer: str, fn):
        """fn wrapped in a span of its own, which opens the tracing window."""
        inner = self._wrap(layer, fn, None)

        def root(*args, **kwargs):
            hits, misses = self._cache_totals()
            self.active = True
            try:
                return inner(*args, **kwargs)
            finally:
                self.active = False
                after_hits, after_misses = self._cache_totals()
                self.counts["fgl.cache.hits"] += after_hits - hits
                self.counts["fgl.cache.misses"] += after_misses - misses

        return root

    def _wrap(self, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            # count on a layer's outermost span only, so that a call nested
            # in the same layer (dpr_to_json -> to_polynomial) counts once
            if counter is not None and (parent < 0 or spans[parent][0] != layer):
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("dprkit.cli")  # loads every layer
        modules = [m for name, m in sys.modules.items()
                   if name == "dprkit" or name.startswith("dprkit.")]
        fgl = sys.modules["dprkit.fgl"]
        self._caches = [f for f in vars(fgl).values() if hasattr(f, "cache_info")]
        for layer, (module_name, entries) in LAYERS.items():
            module = sys.modules[module_name]
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                traced = self._wrap(layer, original, COUNTERS.get(entry))
                # a method may sit under two names (__radd__ = __add__)
                for holder in [owner] if owner_name else modules:
                    self._replace(holder, original, traced)

    def _replace(self, holder, original, traced) -> None:
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, traced)
                self._undo.append(functools.partial(setattr, holder, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = traced
                        self._undo.append(functools.partial(value.__setitem__, k, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _cache_totals(self) -> tuple[int, int]:
        """fgl's lru_cache statistics, read from outside through cache_info()."""
        infos = [cached.cache_info() for cached in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts, "import_s": import_s}, f)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Layer -> (span count, self time), over all spans given."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for span, covered in zip(spans, child):
        layer, start, end = span[0], span[1], span[2]
        calls, self_s = out.get(layer, (0, 0.0))
        out[layer] = (calls + 1, self_s + (end - start - covered))
    return out


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer values of one pass, from the dumps of its processes."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    for name in COUNTER_NAMES:
        metrics[name] = 0
    for dump in dumps:
        for layer, (calls, self_s) in self_times(dump["spans"]).items():
            if layer in LAYERS:
                metrics[f"{layer}.calls"] += calls
                metrics[f"{layer}.self_s"] += self_s
        for name in COUNTER_NAMES:
            metrics[name] += dump["counts"][name]
    attempts = metrics["operators.trials"] + metrics["operators.resamples"]
    metrics["operators.attempts"] = attempts
    # with no verifier call there is nothing to accept; report 0 on base 0
    metrics["operators.accept_ratio"] = metrics["operators.trials"] / attempts if attempts else 0.0
    return metrics
