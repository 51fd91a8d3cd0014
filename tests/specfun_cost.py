"""Per-call cost of the K pair and of the two kernel routes, as JSON.

    python tests/specfun_cost.py [--src DIR] [--routes]

times ``specfun._k01_scaled(z)`` on a fixed z grid in thread CPU time, the
median of 7 runs of 40 calls each, in microseconds, for the photongas
package under DIR (default: this checkout's src).  Pointing --src at another
checkout's src, one whose specfun has ``_k01_scaled``, gives its table on the
same host, so two trees can be compared.  Where the module has the Chebyshev and Hankel tables, it also
counts the terms each pair takes, a number that does not depend on the host.
--routes adds the same timing, on a fixed x grid, of all four kernels by
each route: the trapezoid pass ``oracle._moments``, and the series route
``core._series`` in each of its bands, below x = 2 the one loop over the
expansions about x = 0, from 2 up to 40 the Chebyshev tables with the
polylog pass, and from 40 on one K pair; of ``core.reduced_functions`` on
the default route, which wraps them; of ``core.r_hat_closed`` alone; and,
as ``evaluate_us``, of ``core.evaluate`` on a mass of 1 eV at T = mc^2/(k_B x),
the whole SI report, whose excess over ``default_route_us`` is the cost of
the report on top of the kernels.
The routes are timed as this checkout's package calls them, so --routes
needs a src of the same version.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

Z_GRID = (1.0, 1.9, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 24.0, 25.0, 30.0,
          40.0, 60.0, 100.0, 300.0, 1e3, 1e4, 1e6, 1e12, 1e17, 1e100, 1e300)
X_GRID = (0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0,
          6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 100.0, 1e3)
RUNS, CALLS = 7, 40


def cost_us(fn, arg) -> float:
    """Median over RUNS of the thread CPU time per call of CALLS calls, in us."""
    fn(arg)
    runs = []
    for _ in range(RUNS):
        start = time.thread_time_ns()
        for _ in range(CALLS):
            fn(arg)
        runs.append((time.thread_time_ns() - start) / CALLS / 1e3)
    return round(statistics.median(runs), 2)


class _Counted:
    """A table that counts the entries read from it."""

    def __init__(self, table):
        self.table = table
        self.reads = 0

    def __iter__(self):
        for entry in self.table:
            self.reads += 1
            yield entry


def term_counts(specfun, zs) -> dict[float, int] | None:
    """Chebyshev or Hankel terms of the pair at each z in zs, or None.

    None where the module has no such tables.  The tables are swapped for
    counting ones while the pairs are taken, and restored after.
    """
    if not hasattr(specfun, "_K01_CHEBYSHEV"):
        return None
    tables = {name: _Counted(getattr(specfun, name)) for name in ("_K01_CHEBYSHEV", "_HANKEL")}
    counts = {}
    try:
        for name, table in tables.items():
            setattr(specfun, name, table)
        for z in zs:
            before = sum(t.reads for t in tables.values())
            specfun._k01_scaled(z)
            counts[z] = sum(t.reads for t in tables.values()) - before
    finally:
        for name, table in tables.items():
            setattr(specfun, name, table.table)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--routes", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from photongas import core, oracle, specfun, units

    result = {
        "k01_scaled_us": {repr(z): cost_us(specfun._k01_scaled, z) for z in Z_GRID},
        "k01_terms": None,
    }
    counts = term_counts(specfun, [z for z in Z_GRID if z > 2.0])
    if counts is not None:
        result["k01_terms"] = {repr(z): n for z, n in counts.items()}
    if args.routes:
        bands = {"expansions": (0.0, specfun._EXPAND_BELOW),
                 "tables": (specfun._EXPAND_BELOW, specfun._ONE_TERM_FROM),
                 "one_term": (specfun._ONE_TERM_FROM, float("inf"))}
        routes = {"trapezoid": (oracle._moments, X_GRID)}
        for name, (low, high) in bands.items():
            routes[name] = (lambda x: core._series(x, "nuvR"),
                            [x for x in X_GRID if low <= x < high])
        result["reduced_functions_us"] = {
            name: {repr(x): cost_us(route, x) for x in grid}
            for name, (route, grid) in routes.items()}
        result["default_route_us"] = {repr(x): cost_us(core.reduced_functions, x)
                                      for x in X_GRID}
        result["r_hat_closed_us"] = {repr(x): cost_us(core.r_hat_closed, x) for x in X_GRID}
        mass, si = units.parse_mass("1eV"), units.SI
        result["evaluate_us"] = {
            repr(x): cost_us(core.evaluate, units.GasParameters(mass, mass * si.c**2 / (si.k_B * x)))
            for x in X_GRID}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
