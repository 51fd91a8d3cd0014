"""The output ledger: what ``photongas point --format csv`` prints, or how it
refuses, at a fixed grid of (m, T, g) states.  tests/golden_outputs.py runs
it with the rest of the record:

    PYTHONPATH=src python tests/golden_outputs.py --diff     # what moved, the ledger too
    PYTHONPATH=src python tests/golden_outputs.py --write    # rewrite tests/golden_cells.csv too

Each row of tests/golden_cells.csv holds repr(m) in kg, repr(T) in K and
repr(g), then the exit code, then either the cells of the row ``point``
prints (exit 0) or its error message.  The grid is built here:

- x = mc^2/kT log-spaced over [1e-8, 1e17], T cycling over six temperatures
  and g over 2, 1 and 3
- every band and piece edge of the series route (2, 4, 8, 16, 40) and the
  double below each, at three temperatures
- the subnormal band x in (660, 760], at 1 K and at 1e30 K
- temperatures on both sides of where the radiance, energy and number
  prefactors overflow, at m = 0 and x = 1, for g = 1, 2 and 3
- m = 0 from 5e-324 K up, and states whose x overflows

``diff`` runs every state of the ledger and says, per column, how many
cells moved, the largest relative move and the x of its row, and every
refusal that changed; it says nothing when nothing moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

from photongas import SI
from photongas.cli import POINT_COLUMNS, main

from kernel_reference import EDGES

PATH = Path(__file__).resolve().with_suffix(".csv")
HEADER = ("m", "T", "g", "exit", *POINT_COLUMNS)

_TEMPERATURES = (1e-3, 2.7, 5800.0, 1e7, 1e12, 1e30)
_DEGENERACIES = (2.0, 1.0, 3.0)
_LOG_POINTS = 480
# For g = 2 the radiance prefactor overflows above 4.8e78 K, the energy's
# above 6.3e80 K and the number's above 1.3e100 K.
_OVERFLOW_TEMPERATURES = (4e78, 5e78, 6e80, 7e80, 1.2e100, 1.4e100, 1e200,
                          1.7976931348623157e308)


def _x(mass: float, temperature: float) -> float:
    return mass * SI.c * SI.c / (SI.k_B * temperature)


def _steps(value: float, count: int) -> list[float]:
    """value, then the doubles 1, 2, ..., count steps above and below it, nearest first."""
    up = down = value
    nearest = [value]
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        nearest += [up, down]
    return nearest


def _state_at(x: float, temperature: float) -> tuple[float, float]:
    """(m, T) with mc^2/kT = x, T within 4 doubles of temperature and m within
    16 of x kT/c^2; the nearest T that has one, or else the state nearest x."""
    states = [(mass, t) for t in _steps(temperature, 4)
              for mass in _steps(x * SI.k_B * t / (SI.c * SI.c), 16)]
    return min(states, key=lambda state: abs(_x(*state) - x))


def states() -> list[tuple[float, float, float]]:
    """The (m, T, g) of every row of the ledger, in its order."""
    grid = []
    for i in range(_LOG_POINTS):
        x = 10.0 ** (-8.0 + 25.0 * i / (_LOG_POINTS - 1))
        temperature = _TEMPERATURES[i % len(_TEMPERATURES)]
        grid.append((*_state_at(x, temperature), _DEGENERACIES[i % 3]))
    for edge in EDGES:
        for x in (math.nextafter(edge, 0.0), edge):
            for g, temperature in zip(_DEGENERACIES, (2.7, 5800.0, 1e12)):
                grid.append((*_state_at(x, temperature), g))
    for i in range(1, 61):
        x = 660.0 + 100.0 * i / 60
        for temperature in (1.0, 1e30):
            grid.append((*_state_at(x, temperature), _DEGENERACIES[i % 3]))
    for temperature in _OVERFLOW_TEMPERATURES:
        for g in (1.0, 2.0, 3.0):
            grid += [(0.0, temperature, g), (*_state_at(1.0, temperature), g)]
    for i, temperature in enumerate((5e-324, 1e-300, *_TEMPERATURES)):
        grid.append((0.0, temperature, _DEGENERACIES[i % 3]))
    # x overflows: kT underflows to 0, mc^2 overflows, or their ratio does; and a
    # finite x over a subnormal kT
    grid += [(1.0, 5e-324, 2.0), (1e300, 1.0, 2.0), (1.0, 1e-300, 2.0), (1e-30, 1e-290, 1.0)]
    return grid


def outcome(mass: float, temperature: float, degeneracy: float) -> list[str]:
    """The exit code, then the cells of the point csv row or the error message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["point", "--mass", f"{mass!r}kg", "--temp", repr(temperature),
                     "--g", repr(degeneracy), "--format", "csv"])
    if code:
        return [str(code), err.getvalue().rstrip("\n")]
    header, row = out.getvalue().splitlines()
    if header.split(",") != list(POINT_COLUMNS):
        raise ValueError(f"point printed the columns {header}")
    return ["0", *row.split(",")]


def read(path: Path = PATH) -> list[list[str]]:
    """The rows of the ledger, less its header."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if tuple(rows[0]) != HEADER:
        raise ValueError(f"{path} has the header {rows[0]}")
    return rows[1:]


def write(path: Path = PATH) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HEADER)
        for state in states():
            writer.writerow([*map(repr, state), *outcome(*state)])


def cells_moved(columns, pairs, rows: int) -> list[str]:
    """One line per column whose cells moved between the old and new rows of
    pairs, out of rows cells a column: how many moved and, where they are
    numbers, the largest relative move and the x of its row."""
    x_at = columns.index("x")
    moved = dict.fromkeys(columns, 0)
    largest = dict.fromkeys(columns, (0.0, ""))
    for old, new in pairs:
        for column, was, now in zip(columns, old, new):
            if was == now:
                continue
            moved[column] += 1
            try:
                was, now = float(was), float(now)
            except ValueError:  # the method flags, or an empty cell
                continue
            rel = abs(now - was) / abs(was) if was else math.inf
            if rel > largest[column][0]:
                largest[column] = (rel, new[x_at])
    lines = []
    for column, count in moved.items():
        if count:
            rel, x = largest[column]
            tail = f", largest relative move {rel:.3e} at x = {x}" if x else ""
            lines.append(f"{column}: {count} of {rows} cells moved{tail}")
    return lines


def diff(rows: list[list[str]]) -> list[str]:
    """Lines that say what moved between the ledger's rows and what point prints now."""
    lines = []
    if [tuple(map(float, row[:3])) for row in rows] != states():
        lines.append("the ledger's states are not the grid of golden_cells.states(); "
                     "rewrite it with tests/golden_outputs.py --write")
    pairs = []
    for row in rows:
        old, new = row[3:], outcome(*map(float, row[:3]))
        if old[0] == new[0] == "0":
            pairs.append((old[1:], new[1:]))
        elif old != new:
            lines.append(f"refusal changed at m={row[0]} kg, T={row[1]} K, g={row[2]}: "
                         f"{' '.join(old[:2])!r} -> {' '.join(new[:2])!r}")
    return lines + cells_moved(POINT_COLUMNS, pairs, len(rows))
