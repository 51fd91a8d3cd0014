"""Command-line front end: point reports, sweeps, the mean-speed figure, and
the series-vs-quadrature validation gate.

point, sweep and figure take the series route at every x, and validate
checks it against a trapezoid oracle at a fixed step; no command has a
numerics flag.  Exit codes: 0 ok, 1 validation failure, 2 usage error,
3 numerical non-convergence (of validate's oracle).  All numeric output uses
17 significant digits so repeated runs are byte-identical and every cell
round-trips through float parsing.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys

from . import core
from .errors import ConvergenceError, DomainError, MassParseError, RegimeError
from .units import _DBL_MAX, SI, GasParameters, _checked, parse_mass, reduce

# One row per report quantity, in the order n, u, v, R, R_naive of
# core._METHOD_KEYS: (column, RadiometryReport attribute, text label, unit).
_QUANTITIES = (
    ("n_per_m3", "number_density", "N/V", "m^-3"),
    ("u_J_per_m3", "energy_density", "U/V", "J/m^3"),
    ("vbar_m_per_s", "mean_speed", "vbar", "m/s"),
    ("R_W_per_m2", "radiance", "R", "W/m^2"),
    ("R_naive_W_per_m2", "radiance_naive", "R_naive", "W/m^2"),
)

SWEEP_COLUMNS = ("index", "T_K", "x", *(row[0] for row in _QUANTITIES), "method_flags")
POINT_COLUMNS = ("mass_kg",) + SWEEP_COLUMNS[1:]
FIGURE_COLUMNS = ("x", "kT_over_mc2", "vbar_over_c", "nonrel_approx")
# The method_flags cell and JSON "methods" of every CLI report, whose tag is core.SERIES.
_FLAGS = ";".join(f"{key}:{core.SERIES}" for key in core._METHOD_KEYS)
_JSON_METHODS = ",".join(f'"{key}":"{core.SERIES}"' for key in core._METHOD_KEYS)
# A sweep row: its index, the seven _CELLS and the flags, in one %.
_CELLS = operator.attrgetter("params.temperature", "x", *(row[1] for row in _QUANTITIES))
_SWEEP_ROW = "%d," + "%.16e," * 7 + _FLAGS
# A point report: one % template per format over the nine _POINT_CELLS, mass,
# T, g, x and the five _QUANTITIES; the csv row takes g with "%.0s", which
# prints nothing.
_POINT_CELLS = operator.attrgetter("params.mass", "params.temperature", "params.degeneracy",
                                   "x", *(row[1] for row in _QUANTITIES))
_POINT_FORMATS = {
    "text": "mass        = %.16e kg\ntemperature = %.16e K\ndegeneracy  = %.16e\n"
            "x = mc^2/kT = %.16e\n" + "".join(f"{label:7s} = %.16e {unit}  [{core.SERIES}]\n"
                                            for _, _, label, unit in _QUANTITIES),
    "csv": ",".join(POINT_COLUMNS) + "\n%.16e,%.16e,%.0s" + "%.16e," * 6 + _FLAGS + "\n",
    "json": '{"mass_kg":%.16e,"T_K":%.16e,"degeneracy":%.16e,"x":%.16e,'
            + "".join(f'"{column}":%.16e,' for column, *_ in _QUANTITIES)
            + '"methods":{%s}}\n' % _JSON_METHODS,
}

VALIDATE_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
VALIDATE_LIMIT = 1e-7

_NONREL_MIN_X = 8.0 / math.pi


def _grid(minimum: float, maximum: float, points: int, spacing: str) -> list[float]:
    """points values from minimum to maximum, linear or log, ends exact."""
    _checked(minimum, "sweep minimum must be finite and > 0", positive=True)
    if not minimum < maximum <= _DBL_MAX:
        raise DomainError("sweep needs minimum < maximum")
    if points < 2:
        raise DomainError(f"sweep needs at least 2 points, got {points}")
    if spacing == "log":
        lo, hi = math.log(minimum), math.log(maximum)
        inner = [math.exp(lo + i * (hi - lo) / (points - 1)) for i in range(1, points - 1)]
    else:
        # span / scale, scale a power of two above points, keeps i * span finite,
        # and for span > 1 every point rounds as it would unscaled.
        span = maximum - minimum
        scale = 2.0 ** points.bit_length() if span > 1.0 else 1.0
        inner = [minimum + i * (span / scale) / (points - 1) * scale for i in range(1, points - 1)]
    return [minimum, *inner, maximum]


def _write_output(text: str, path: str | None) -> None:
    # The full text is assembled before this call, so a failure during
    # evaluation can never leave a partial file behind.
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def _cmd_point(args: argparse.Namespace) -> int:
    params = GasParameters(mass=parse_mass(args.mass), temperature=args.temp,
                           degeneracy=args.g)
    _write_output(_POINT_FORMATS[args.format] % _POINT_CELLS(core.evaluate(params)), args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    mass = parse_mass(args.mass)
    by_x = args.variable == "x"
    if by_x and mass <= 0:
        raise DomainError("an x sweep needs a positive mass to fix T = mc^2/(k_B x)")
    lo, hi = (args.x_min, args.x_max) if by_x else (args.t_min, args.t_max)

    rows = [",".join(SWEEP_COLUMNS)]
    for index, value in enumerate(_grid(lo, hi, args.points, args.spacing)):
        if by_x:
            # Where k_B x underflows, T overflows: GasParameters refuses it.
            kx = SI.k_B * value
            temperature = mass * SI.c * SI.c / kx if kx else math.inf
        else:
            temperature = value
        params = GasParameters(mass=mass, temperature=temperature, degeneracy=args.g)
        # An x sweep prints and evaluates at its grid x, not at mc^2/kT
        # recomputed from the rounded T.
        x = value if by_x else reduce(params)
        rows.append(_SWEEP_ROW % (index, *_CELLS(core._report(params, x))))
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# figure mean-speed
# ---------------------------------------------------------------------------

def _figure_rows(grid: list[float]) -> list[tuple[float, float, float, float | None]]:
    rows = []
    for x in grid:
        kt_ratio = 1.0 / x
        if kt_ratio == math.inf:
            raise DomainError(f"kT/mc^2 = 1/x overflows at x={x!r}")
        kernels = core._bands(x)  # _grid has checked x
        core._check_kernels(*kernels)
        v_hat = kernels[2]
        # 8/pi/x, not 8/(pi x): pi x overflows for x near the largest double.
        approx = math.sqrt(8.0 / math.pi / x) if x > _NONREL_MIN_X else None
        rows.append((x, kt_ratio, v_hat, approx))
    return rows


def _figure_csv(rows) -> str:
    # one format string per row shape: with the asymptote cell, or with it empty
    lines = [",".join(FIGURE_COLUMNS)]
    for row in rows:
        lines.append("%.16e,%.16e,%.16e,%.16e" % row if row[3] is not None
                     else "%.16e,%.16e,%.16e," % row[:3])
    return "\n".join(lines) + "\n"


def _figure_svg(rows) -> str:
    # Mean speed over c against kT/mc^2 on a log abscissa; the dashed line is
    # the nonrelativistic asymptote sqrt(8 kT / pi m c^2).
    width, height = 800, 500
    left, right, top, bottom = 70, 20, 20, 60
    ratios = [r[1] for r in rows]
    lo = math.log10(min(ratios))
    hi = math.log10(max(ratios))
    if hi == lo:  # adjacent ratios whose logs round together: one decade
        lo, hi = lo - 0.5, hi + 0.5
    span, plot_width = hi - lo, width - left - right
    base, plot_height = height - bottom, height - top - bottom

    def px(ratio: float) -> float:
        return left + (math.log10(ratio) - lo) / span * plot_width

    def py(v: float) -> float:
        return base - v / 1.05 * plot_height

    def polyline(points, style) -> str:
        coords = " ".join(["%.2f,%.2f" % (px(r), py(v)) for r, v in points])
        return f'<polyline fill="none" {style} points="{coords}"/>'

    curve = sorted(((r[1], r[2]) for r in rows))
    asymptote = sorted(((r[1], r[3]) for r in rows if r[3] is not None))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="{left}" y="{top}" width="{plot_width}" '
        f'height="{plot_height}" fill="none" stroke="#444"/>',
    ]
    decade = math.ceil(lo)
    while decade <= hi:
        x_px = px(10.0**decade)
        parts.append(f'<line x1="{x_px:.2f}" y1="{top}" x2="{x_px:.2f}" '
                     f'y2="{base}" stroke="#ddd"/>')
        parts.append(f'<text x="{x_px:.2f}" y="{base + 20}" '
                     f'text-anchor="middle" font-size="14">1e{decade}</text>')
        decade += 1
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y_px = py(tick)
        parts.append(f'<line x1="{left}" y1="{y_px:.2f}" x2="{width - right}" '
                     f'y2="{y_px:.2f}" stroke="#ddd"/>')
        parts.append(f'<text x="{left - 8}" y="{y_px + 5:.2f}" text-anchor="end" '
                     f'font-size="14">{tick:g}</text>')
    if asymptote:
        parts.append(polyline(asymptote,
                              'stroke="#d62728" stroke-width="1.5" stroke-dasharray="6 4"'))
    parts.append(polyline(curve, 'stroke="#1f77b4" stroke-width="2"'))
    parts.append(f'<text x="{(left + width - right) / 2:.0f}" y="{height - 14}" '
                 f'text-anchor="middle" font-size="15">kT / mc^2</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.0f}" font-size="15" '
                 f'transform="rotate(-90 18 {(top + height - bottom) / 2:.0f})" '
                 f'text-anchor="middle">mean speed / c</text>')
    parts.append('<text x="690" y="40" text-anchor="end" font-size="13" '
                 'fill="#d62728">dashed: nonrelativistic asymptote</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_figure_mean_speed(args: argparse.Namespace) -> int:
    rows = _figure_rows(_grid(args.x_min, args.x_max, args.points, args.spacing))
    csv = _figure_csv(rows)
    svg = None if args.svg is None else _figure_svg(rows)
    _write_output(csv, args.out)
    if svg is not None:
        _write_output(svg, args.svg)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_KERNEL_NAMES = ("n_hat", "u_hat", "v_hat", "r_hat")


def _cmd_validate(args: argparse.Namespace) -> int:
    from . import oracle  # only validate needs it: every other command loads less
    worst = dict.fromkeys(_KERNEL_NAMES, (0.0, VALIDATE_GRID[0]))
    lines = ["closed-form vs quadrature validation",
             "x grid: " + " ".join(f"{x:g}" for x in VALIDATE_GRID)]
    eq18_line = None
    for x in VALIDATE_GRID:
        # Two routes that share nothing but arithmetic, at every grid x: the
        # trapezoid oracle and the series route, the one every public
        # kernel takes.
        quad_values = oracle._moments(x)
        for key, quad, closed in zip(_KERNEL_NAMES, quad_values, core._bands(x)):
            residual = abs(closed / quad - 1.0)
            if residual > worst[key][0] or math.isnan(residual):  # nan stays, and fails
                worst[key] = (residual, x)
        if x == 50.0:
            eq18 = x * x * math.exp(-x) / (2.0 * math.pi**2)
            eq18_line = (f"x = 50: r_hat / low-temperature asymptote = "
                         f"{quad_values[3] / eq18:.6f} (expect ~ 1 + 3/x)")
    for key in ("n_hat", "v_hat", "u_hat", "r_hat"):
        residual, x = worst[key]
        lines.append(f"{key:6s} max relative residual = {residual:.3e} at x = {x:g}")
    if eq18_line:
        lines.append(eq18_line)
    ok = all(residual <= VALIDATE_LIMIT for residual, _ in worst.values())
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} (limit {VALIDATE_LIMIT:g})")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_sweep_flags(parser: argparse.ArgumentParser, default_points: int) -> None:
    parser.add_argument("--x-min", type=float, default=0.01)
    parser.add_argument("--x-max", type=float, default=100.0)
    parser.add_argument("--points", type=int, default=default_points)
    parser.add_argument("--spacing", choices=("linear", "log"), default="log")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one (``main`` calls this once per invocation); callers must not mutate it.

    Its ``commands`` maps the words that name each command, such as
    ``("figure", "mean-speed")``, to that command's own parser, with which
    ``main`` parses the command's flags once.  An argv that names no command,
    or has arguments the command does not take, goes to this parser whole.
    """
    parser = argparse.ArgumentParser(
        prog="photongas",
        description="Thermodynamics and radiometry of a blackbody photon gas "
                    "with nonzero photon rest mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one (mass, temperature) state")
    point.add_argument("--mass", required=True,
                       help="photon mass as <number><unit>; units kg, g, eV, meV, "
                            "keV (the eV family means eV/c^2)")
    point.add_argument("--temp", type=float, required=True, help="temperature in K")
    point.add_argument("--g", type=float, default=2.0,
                       help="polarization degeneracy (default 2: the extra "
                            "longitudinal state is assumed unthermalized)")
    point.add_argument("--format", choices=_POINT_FORMATS, default="text")
    point.add_argument("--out", default=None, help="write output to this path")
    point.set_defaults(func=_cmd_point)

    sweep = sub.add_parser("sweep", help="tabulate a grid over T or x as CSV")
    sweep.add_argument("--mass", required=True)
    sweep.add_argument("--variable", choices=("x", "temperature"), default="x")
    _add_sweep_flags(sweep, default_points=25)
    sweep.add_argument("--t-min", type=float, default=1.0,
                       help="lowest temperature in K (temperature sweeps)")
    sweep.add_argument("--t-max", type=float, default=1000.0,
                       help="highest temperature in K (temperature sweeps)")
    sweep.add_argument("--g", type=float, default=2.0)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="reproduce reference figures")
    figure_sub = figure.add_subparsers(dest="figure_name", required=True)
    mean_speed = figure_sub.add_parser(
        "mean-speed",
        help="mean speed over c against kT/mc^2; the default range "
             "kT/mc^2 in [0.01, 100] is a choice, not a published value",
    )
    _add_sweep_flags(mean_speed, default_points=50)
    mean_speed.add_argument("--out", default=None, help="CSV output path")
    mean_speed.add_argument("--svg", default=None, help="also emit an SVG plot")
    mean_speed.set_defaults(func=_cmd_figure_mean_speed)

    validate = sub.add_parser(
        "validate", help="compare closed forms against the quadrature oracle"
    )
    validate.set_defaults(func=_cmd_validate)
    parser.commands = {("point",): point, ("sweep",): sweep,
                       ("figure", "mean-speed"): mean_speed, ("validate",): validate}
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line, argv or sys.argv[1:], and return its exit code.

    Each call parses a command's flags once, with that command's own parser.
    An argv that names no command, or has arguments the command does not
    take, goes to the top-level parser, so every message and exit code is
    the one a parse of the whole argv gives.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = None, None
        for words, command in parser.commands.items():
            if tuple(argv[:len(words)]) == words:
                args, extra = command.parse_known_args(argv[len(words):])
                break
        if args is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except (MassParseError, DomainError, RegimeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2


def main_entry() -> None:
    raise SystemExit(main())
