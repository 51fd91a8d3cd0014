"""Spans around calls into each library layer, for the traced run only.

``installed`` replaces each traced public function with a wrapper for the
duration of a ``with`` block and restores the originals on exit, even on
error.  A wrapper replaces the binding that the caller looks up at call time:
``core.reduce`` rather than ``units.reduce`` (core imported the name), the
module global ``oracle.integrate_adaptive`` (the quad_* kernels call it), and
``specfun.bessel_k2`` (the weighted sums call it).

A span is [name, start_ns, end_ns, parent, op, attrs].  Spans stay in memory
and are written out after the run.  A span's self time is its duration minus
the duration of its direct child spans, minus the integrand time measured by
the counting wrapper that ``integrate_adaptive`` passes in place of the
integrand (integrand calls are too many to give each a span).
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# K2 argument bands, fixed here and not read from the library, so a change
# to the library's branch edges shows up as calls moving between bands.
BESSEL_BANDS = ((2.0, "z_lt2"), (25.0, "z2_25"), (math.inf, "z_ge25"))
EVALUATE_ERRORS = ("DomainError", "ConvergenceError", "OverflowError")


def _bessel_name(args):
    z = args[0]
    for edge, band in BESSEL_BANDS:
        if z < edge:
            return f"specfun.bessel_k2.{band}"
    return "specfun.bessel_k2.z_ge25"  # nan


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def _terms(result):
    return {"terms": result.terms}


# (module, attribute, span name, options)
PATCHES = (
    ("specfun", "bessel_k2", None, {"name_of": _bessel_name}),
    ("specfun", "k2_weighted_sum", "specfun.k2_weighted_sum", {"attrs_of": _terms}),
    ("specfun", "energy_bessel_sum", "specfun.energy_bessel_sum", {"attrs_of": _terms}),
    ("core", "n_hat_series", "core.n_hat_series", {}),
    ("core", "v_hat_series", "core.v_hat_series", {}),
    ("core", "r_hat_closed", "core.r_hat_closed", {}),
    ("core", "evaluate", "core.evaluate", {}),
    ("core", "reduce", "units.reduce", {}),
    ("oracle", "integrate_adaptive", "oracle.integrate_adaptive", {"count_integrand": True}),
    ("oracle", "quad_number_density", "oracle.quad_number_density", {}),
    ("oracle", "quad_energy_density", "oracle.quad_energy_density", {}),
    ("oracle", "quad_mean_speed", "oracle.quad_mean_speed", {}),
    ("oracle", "quad_radiance", "oracle.quad_radiance", {}),
    ("cli", "build_parser", "cli.build_parser", {}),
    ("cli", "parse_mass", "units.parse_mass", {}),
    ("cli", "main", None, {"name_of": _cli_name}),
)


class Tracer:
    """Holds the spans of one traced run; ``op`` is the id of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, fn, name=None, name_of=None, attrs_of=None, count_integrand=False):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            rec = [name_of(args) if name_of else name, 0, 0,
                   stack[-1] if stack else -1, tracer.op, None]
            counts = None
            if count_integrand:
                counts = [0, 0]  # integrand calls, integrand ns
                integrand = args[0]

                def counted(s):
                    t0 = clock()
                    value = integrand(s)
                    counts[1] += clock() - t0
                    counts[0] += 1
                    return value

                args = (counted,) + args[1:]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if counts is not None:
                    rec[5] = dict(rec[5] or {}, neval=counts[0], inner_ns=counts[1])
            if attrs_of is not None:
                rec[5] = attrs_of(result)
            return result

        return wrapper


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap the traced functions of ``modules`` for wrappers, then restore."""
    saved = []
    try:
        for module_name, attr, name, options in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, **options))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, self_ns, neval, terms, inner_ns, errors."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    agg = defaultdict(lambda: {"calls": 0, "self_ns": 0, "neval": 0, "terms": 0,
                               "inner_ns": 0, "errors": Counter()})
    for index, (name, start, end, _, _, attrs) in enumerate(spans):
        entry = agg[name]
        attrs = attrs or {}
        inner = attrs.get("inner_ns", 0)
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index] - inner
        entry["inner_ns"] += inner
        entry["neval"] += attrs.get("neval", 0)
        entry["terms"] += attrs.get("terms", 0)
        if "error" in attrs:
            entry["errors"][attrs["error"]] += 1
    return agg


def layer_metrics(spans: list[list]) -> dict:
    """The per-layer metrics, {name: (value, unit)}, from one run's spans."""
    agg = aggregate(spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def ms(name, key="self_ns"):
        return get(name, key) / 1e6

    metrics = {}
    for _, band in BESSEL_BANDS:
        span = f"specfun.bessel_k2.{band}"
        metrics[f"{span}.calls"] = (get(span, "calls"), "count")
        metrics[f"{span}.self_ms"] = (ms(span), "ms")
    metrics["specfun.k2_weighted_sum.calls"] = (get("specfun.k2_weighted_sum", "calls"), "count")
    metrics["specfun.k2_weighted_sum.terms"] = (get("specfun.k2_weighted_sum", "terms"), "count")
    metrics["specfun.k2_weighted_sum.self_ms"] = (ms("specfun.k2_weighted_sum"), "ms")
    metrics["specfun.energy_bessel_sum.terms"] = (get("specfun.energy_bessel_sum", "terms"), "count")
    metrics["specfun.energy_bessel_sum.self_ms"] = (ms("specfun.energy_bessel_sum"), "ms")
    for kernel in ("v_hat_series", "n_hat_series", "r_hat_closed"):
        metrics[f"core.{kernel}.self_ms"] = (ms(f"core.{kernel}"), "ms")
    metrics["core.evaluate.calls"] = (get("core.evaluate", "calls"), "count")
    metrics["core.evaluate.self_ms"] = (ms("core.evaluate"), "ms")
    errors = agg["core.evaluate"]["errors"] if "core.evaluate" in agg else Counter()
    for kind in EVALUATE_ERRORS:
        metrics[f"core.evaluate.failed.{kind}"] = (errors[kind], "count")
    metrics["core.evaluate.failed.other"] = (
        sum(n for kind, n in errors.items() if kind not in EVALUATE_ERRORS), "count")
    metrics["units.reduce.calls"] = (get("units.reduce", "calls"), "count")
    metrics["units.reduce.self_ms"] = (ms("units.reduce"), "ms")
    calls = get("oracle.integrate_adaptive", "calls")
    neval = get("oracle.integrate_adaptive", "neval")
    metrics["oracle.integrate_adaptive.calls"] = (calls, "count")
    metrics["oracle.integrate_adaptive.neval"] = (neval, "count")
    # Every panel is one 15-point Gauss-Kronrod rule, and the library always
    # passes a finite upper limit, so no evaluations go to tail truncation.
    metrics["oracle.integrate_adaptive.panels"] = (neval // 15, "count")
    metrics["oracle.integrate_adaptive.self_ms"] = (ms("oracle.integrate_adaptive"), "ms")
    metrics["oracle.integrand.self_ms"] = (ms("oracle.integrate_adaptive", "inner_ns"), "ms")
    metrics["oracle.neval_per_integral"] = (neval / calls if calls else 0.0, "count")
    for kernel in ("number_density", "energy_density", "mean_speed", "radiance"):
        metrics[f"oracle.quad_{kernel}.calls"] = (get(f"oracle.quad_{kernel}", "calls"), "count")
    metrics["cli.build_parser.calls"] = (get("cli.build_parser", "calls"), "count")
    metrics["cli.build_parser.self_ms"] = (ms("cli.build_parser"), "ms")
    for command in ("point", "sweep", "figure", "validate"):
        metrics[f"cli.{command}.self_ms"] = (ms(f"cli.{command}"), "ms")
    metrics["units.parse_mass.calls"] = (get("units.parse_mass", "calls"), "count")
    return metrics


def write_spans(spans: list[list], path) -> None:
    with open(path, "w") as handle:
        handle.write("op,name,start_ns,end_ns,parent,attrs\n")
        for name, start, end, parent, op, attrs in spans:
            extra = ";".join(f"{k}={v}" for k, v in sorted((attrs or {}).items()))
            handle.write(f"{op},{name},{start},{end},{parent},{extra}\n")
