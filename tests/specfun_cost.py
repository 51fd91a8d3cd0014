"""Per-call cost of the two kernel routes and of the report, as JSON.

    python tests/specfun_cost.py [--src DIR]

times, on a fixed x grid, all four kernels by each route: the trapezoid
pass ``oracle._moments``, and the series route ``core.reduced_functions``,
with its checks of x and of the four kernels and the ReducedFunctions it
returns, in each of its bands, below x = 2 the
one Horner loop over the expansions about x = 0, from 2 up to 40 the one
Horner loop over the tables of Chebyshev fits in ln x, and from 40 on one
K pair; and, as ``evaluate_us``, ``core.evaluate``
on a mass of 1 eV at T = mc^2/(k_B x), the whole SI report.
``report_overhead_us`` is the cost of ``evaluate`` less that of the band
loop it calls, ``core._bands``, timed beside it at the x it takes: the cost
of the report on top of the kernels.  ``params_us`` is the checked
constructor ``GasParameters(mass, T)`` that an evaluation takes its input
from, which neither of those includes, and ``report_us`` the checked
constructor ``RadiometryReport(params, x, N, U, vbar, R)`` alone, with the
fields that ``evaluate`` returns at that x, a part of
``report_overhead_us``.  Each time is thread CPU time, the
fastest of 7 runs, each of as many calls as last at least 2 ms, in
microseconds, for the photongas package under DIR (default: this
checkout's src).  Every case of a table is timed in the same rounds, so a
slow spell of the host lands on a few cells of one round, not on a whole
column.  The routes are timed as this checkout's package calls them, so
pointing --src at another checkout's src, to compare two trees on the same
host, needs a src of the same version.  After the table it checks it: where
a column lacks an x of the grid, or times one at <= 0, it exits 1 naming
the column and the x.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

X_GRID = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0,
          6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 100.0, 1e3)
RUNS, MIN_RUN_NS = 7, 2_000_000


def _calls(fn, arg) -> int:
    """Calls of the first batch, doubled from one call, that lasts MIN_RUN_NS."""
    calls = 1
    while True:
        start = time.thread_time_ns()
        for _ in range(calls):
            fn(arg)
        if time.thread_time_ns() - start >= MIN_RUN_NS:
            return calls
        calls *= 2


def _run_us(fn, arg, calls: int) -> float:
    start = time.thread_time_ns()
    for _ in range(calls):
        fn(arg)
    return (time.thread_time_ns() - start) / calls / 1e3


def cost_us(cases) -> list[float]:
    """Fastest over RUNS of the thread CPU time per call, in us, of each
    (fn, arg) in cases.

    Each run makes as many calls as last at least MIN_RUN_NS, so a 2 us
    call and a 100 us one are timed over runs of the same length.  The
    cases are interleaved: each of the RUNS rounds runs every case once, in
    order.  The fastest run is the one the rest of the host disturbed
    least: on a shared host the medians of two processes differed by up to
    1.7x.
    """
    calls = [_calls(fn, arg) for fn, arg in cases]
    runs = [[] for _ in cases]
    for _ in range(RUNS):
        for (fn, arg), count, times in zip(cases, calls, runs):
            times.append(_run_us(fn, arg, count))
    return [round(min(times), 2) for times in runs]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from photongas import core, oracle, specfun, units

    mass, si = units.parse_mass("1eV"), units.SI
    constructor = functools.partial(units.GasParameters, mass)
    cases = []
    for x in X_GRID:
        temperature = mass * si.c**2 / (si.k_B * x)
        params = units.GasParameters(mass, temperature)
        *fields, radiance = core.evaluate(params)._astuple()
        # the band loop at the x that evaluate takes, which may differ from x by an ulp
        cases += [(oracle._moments, x), (core.reduced_functions, x), (core.evaluate, params),
                  (core._bands, units.reduce(params)), (constructor, temperature),
                  (functools.partial(core.RadiometryReport, *fields), radiance)]
    costs = cost_us(cases)
    # one column per case of an x: costs[i::6] holds case i at every x
    trapezoid, series, report, kernels, constructed, reported = (
        dict(zip(map(repr, X_GRID), costs[i::6])) for i in range(6))
    bands = {"expansions": (0.0, specfun._EXPAND_BELOW),
             "tables": (specfun._EXPAND_BELOW, specfun._ONE_TERM_FROM),
             "one_term": (specfun._ONE_TERM_FROM, float("inf"))}
    result = {
        "reduced_functions_us": {"trapezoid": trapezoid, **{
            name: {repr(x): series[repr(x)] for x in X_GRID if low <= x < high}
            for name, (low, high) in bands.items()}},
        "evaluate_us": report,
        "report_overhead_us": {key: round(report[key] - kernels[key], 2) for key in report},
        "params_us": constructed,
        "report_us": reported,
    }
    print(json.dumps(result, indent=1))
    holes = missing(result)
    if holes:
        sys.exit("specfun_cost: missing or not > 0: " + "; ".join(holes))


def missing(result: dict) -> list[str]:
    """"<column> at x = <x>" for each x of X_GRID that a column of result lacks,
    or times at <= 0; report_overhead_us, a difference of two times, may be <= 0.
    The series route's three bands split X_GRID between them: one column here."""
    routes = result["reduced_functions_us"]
    series = {x: t for name, band in routes.items() if name != "trapezoid" for x, t in band.items()}
    columns = {"reduced_functions_us.trapezoid": routes["trapezoid"],
               "reduced_functions_us series bands": series,
               **{name: result[name] for name in
                  ("evaluate_us", "report_overhead_us", "params_us", "report_us")}}
    return [f"{name} at x = {x!r}" for name, column in columns.items() for x in X_GRID
            if not (isinstance(cell := column.get(repr(x)), float)
                    and (cell > 0.0 or name == "report_overhead_us"))]


if __name__ == "__main__":
    main()
