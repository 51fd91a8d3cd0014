"""Per-call cost of the K pair and of the two kernel routes, as JSON.

    python tests/specfun_cost.py [--src DIR] [--routes]

times ``specfun._k01(z, scaled=True)`` on a fixed z grid in thread CPU time,
the median of 7 runs of 40 calls each, in microseconds, for the photongas
package under DIR (default: this checkout's src).  Pointing --src at another
checkout's src gives its table on the same host, so two trees can be
compared.  Where the module has the Chebyshev and Hankel tables, it also
counts the terms each pair takes, a number that does not depend on the host.
--routes adds the same timing of ``core.reduced_functions`` with each route
forced (x_switch = 1e300 for the trapezoid pass, 5e-324 for the Bessel
pass), and of ``core.r_hat_closed``, on a fixed x grid.
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
          6.0, 8.0, 10.0, 15.0, 20.0, 30.0)
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
            specfun._k01(z, scaled=True)
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
    from photongas import core, specfun

    result = {
        "k01_scaled_us": {repr(z): cost_us(lambda z: specfun._k01(z, scaled=True), z)
                          for z in Z_GRID},
        "k01_terms": None,
    }
    counts = term_counts(specfun, [z for z in Z_GRID if z > 2.0])
    if counts is not None:
        result["k01_terms"] = {repr(z): n for z, n in counts.items()}
    if args.routes:
        routes = {"trapezoid": core.NumericsConfig(x_switch=1e300),
                  "bessel": core.NumericsConfig(x_switch=5e-324)}
        result["reduced_functions_us"] = {
            name: {repr(x): cost_us(lambda x: core.reduced_functions(x, cfg), x) for x in X_GRID}
            for name, cfg in routes.items()}
        result["r_hat_closed_us"] = {repr(x): cost_us(core.r_hat_closed, x) for x in X_GRID}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
