"""The committed reference tables of the four reduced kernels and of the K pair.

``python tests/kernel_reference.py`` rewrites both in about 170 s.  Each row
of tests/kernel_reference.csv holds repr(x), n_hat, u_hat, v_hat and r_hat
from perfbench/reference.py at 25 digits, and the names of the GRIDS that
hold x.  Each row of tests/k01_reference.csv holds repr(z), e^z K0(z) and
e^z K1(z) from mp.besselk at 25 digits, and the names of the K_GRIDS that
hold z.  A test takes its x or z from the rows that name its grid, as a grid
expression's ** may round differently on another libm.  Tests compare in
decimal, with no mpmath: a reference rounded to a double adds up to 1.1e-16
to every error, and a Fraction would expand a reference as small as
1e-43429448190325159.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from decimal import Context, Decimal, MAX_EMAX, MIN_EMIN
from pathlib import Path

PATH = Path(__file__).resolve().with_suffix(".csv")
K_PATH = PATH.with_name("k01_reference.csv")

# The series route's band edges, 2 and 40, and the tables' piece edges.
EDGES = (2.0, 4.0, 8.0, 16.0, 40.0)
_BELOW_EDGES = [math.nextafter(x, 0.0) for x in EDGES]

GRIDS = {
    # the series route: 1000 x log-spaced over [1e-8, 1e3], every edge and
    # the double below it, 60 over [1e-8, 4) and 59 over [1, 2), where v and
    # r come from the expansions
    "series": ([1e-8 * 1e11 ** (k / 999) for k in range(1000)] + list(EDGES) + _BELOW_EDGES
               + [1e-8 * 4e8 ** (k / 60) for k in range(60)] + [1.0 + k / 59 for k in range(59)]),
    # the trapezoid: 60 x over [1e-8, 600] and 20 over [1e3, 1e17], where
    # the densities underflow
    "trapezoid": ([1e-8 * 6e10 ** (k / 59) for k in range(60)]
                  + [1e3 * 1e14 ** (k / 19) for k in range(20)]),
    # log-spaced over [1e-8, 600], both sides of sqrt(3e-17) and of x = 1,
    # where the trapezoid's map bends (u = oracle._TAU0 +- 1), and next to 0
    "reference": ([1e-8 * 6e10 ** (k / 11) for k in range(12)]
                  + [5.4e-9, 5.5e-9, 1.0, math.nextafter(1.0, 2.0)]
                  + [math.exp(-6.0), math.exp(-5.0), math.exp(-4.0), 5e-324, 1e-300, 1e-20]),
    "quadrature": [1e-6, 1.43e-4, 1.94e-4, 0.0165, 0.05, 0.1, 0.5, 1.0, 2.0, _BELOW_EDGES[1]],
    "energy": [0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 30.0, 31.0, 100.0, 600.0],
    "mean_speed": [0.1, 0.3, 0.5, 1.0, 2.0, 10.0, 100.0],
    "bessel": [2.0 * 20 ** (k / 29) for k in range(30)],
    "one_to_four": [4.0 ** (k / 12) for k in range(12)],
    "small_x": [2e-4],
    "sums": [1e-8 * 4e9 ** (k / 39) for k in range(40)],
    "expansions": [1e-4 * 2e4 ** (i / 11) for i in range(11)] + [_BELOW_EDGES[0]],
}
# Also checked against tests/mpmath_reference.py, as the specfun tables were
# fitted to perfbench/reference.py: every x on [2, 40] of the per-test grids,
# and one x in each other band of the series route.
GRIDS["mpmath"] = sorted({x for name, grid in GRIDS.items() if name not in ("series", "trapezoid")
                          for x in grid if 2.0 <= x <= 40.0} | {1e-300, 0.5, 100.0})

# specfun's K pair edges, _K_SERIES_MAX and _K_HANKEL_MIN
K_EDGES = (2.0, 25.0)
K_GRIDS = {
    # 5999 z log-spaced over [2, 1e6]: at even j the 3000 z of
    # 2 * 5e5 ** (i / 2999), at odd j the 2999 midpoints (i + 0.5) / 2999
    # between them; and two far past underflow
    "pair": [2.0 * 5e5 ** (j / 5998) for j in range(5999)] + [1e17, 1e308],
    # log-spaced over [1e-4, 1e3], and both sides of each edge
    "k012": ([1e-4 * 1e7 ** (i / 59) for i in range(60)]
             + [edge * (1 + side) for edge in K_EDGES for side in (-1e-15, 1e-15)]),
    "far_past": [1e3, 1e6, 1e17, 1e308],
}

Row = namedtuple("Row", "n u v r grids")
KRow = namedtuple("KRow", "k0 k1 grids")

# decimal's exponent range holds every reference; 40 digits hold the
# difference of a double and a 25-digit reference to 24 digits
CONTEXT = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)
DBL_MIN = Decimal(sys.float_info.min)
PI = Decimal("3.141592653589793238462643383279502884197")


def _read(path: Path, row) -> dict:
    lines = (line.split(",") for line in path.read_text().splitlines()[1:])
    return {float(x): row(*map(Decimal, values), frozenset(grids.split()))
            for x, *values, grids in lines}


@functools.cache
def load() -> dict[float, Row]:
    """The kernel table's rows by x, in increasing x."""
    return _read(PATH, Row)


@functools.cache
def load_k01() -> dict[float, KRow]:
    """The K table's rows by z, in increasing z."""
    return _read(K_PATH, KRow)


def xs(grid: str) -> list[float]:
    """The x of the kernel table's rows that name ``grid``."""
    return [x for x, row in load().items() if grid in row.grids]


def zs(grid: str) -> list[float]:
    """The z of the K table's rows that name ``grid``."""
    return [z for z, row in load_k01().items() if grid in row.grids]


def rel_err(value: float, reference: Decimal) -> float:
    """|value - reference| / max(|reference|, DBL_MIN), as reference.rel_err:
    a reference below the normal double range matches an exact 0 or any
    subnormal, and then the error counts as 0."""
    value = Decimal(value)
    if abs(reference) < DBL_MIN and abs(value) < DBL_MIN:
        return 0.0
    return float(CONTEXT.divide(abs(CONTEXT.subtract(value, reference)),
                                max(abs(reference), DBL_MIN)))


def ulp_err(value: float, reference: Decimal) -> float:
    """|value - reference| in ulps of the reference rounded to a double, for a
    reference in the normal double range."""
    return float(CONTEXT.divide(abs(CONTEXT.subtract(Decimal(value), reference)),
                                Decimal(math.ulp(float(reference)))))


def assert_matches(route, grid: list[float]) -> None:
    """Each kernel of ``route`` within 1e-15 at each x; prints the worst."""
    worst = dict.fromkeys("nuvr", (0.0, None))
    for x in grid:
        for key, value, reference in zip("nuvr", route(x), load()[x][:4]):
            worst[key] = max(worst[key], (rel_err(value, reference), x), key=lambda e: e[0])
    for key, (err, x) in worst.items():
        print(f"{key}: worst relative error {err:.3e} at x = {x!r}")
    assert all(err <= 1e-15 for err, _ in worst.values()), worst


def row_test(grid: str, route):
    """assert_matches at each x of a grid, as a test parametrized by x."""
    import pytest

    @pytest.mark.parametrize("x", xs(grid))
    def test(x):
        assert_matches(route, [x])
    return test


def generator():
    """perfbench/reference.py, which needs mpmath."""
    sys.path.insert(0, str(PATH.parent.parent / "perfbench"))
    import reference
    return reference


def scaled_k01(z: float) -> tuple:
    """(e^z K0(z), e^z K1(z)) from mp.besselk at 30 digits; needs mpmath."""
    import mpmath as mp

    with mp.workdps(30):
        return tuple(mp.exp(z) * mp.besselk(nu, z) for nu in (0, 1))


def write(path: Path, header: str, grids: dict, values) -> None:
    """One row per x of ``grids``: repr(x), values(x) and the grids' names."""
    grids = {name: set(grid) for name, grid in grids.items()}
    lines = [header]
    for x in sorted(set().union(*grids.values())):
        lines.append(",".join([repr(x), *values(x),
                               " ".join(name for name, grid in grids.items() if x in grid)]))
    path.write_text("\n".join(lines) + "\n")
    print(f"{path}: {len(lines) - 1} rows")


def main() -> None:
    reference = generator()
    nstr = reference.mp.nstr

    def kernels(x):
        values = reference.reduced(x)
        return [nstr(values[key], 25) for key in "nuvr"]

    write(PATH, "x,n_hat,u_hat,v_hat,r_hat,grids", GRIDS, kernels)
    write(K_PATH, "z,k0e,k1e,grids", K_GRIDS, lambda z: [nstr(k, 25) for k in scaled_k01(z)])


if __name__ == "__main__":
    main()
