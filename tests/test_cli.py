"""CLI behavior: formats, exit codes, determinism, and file hygiene."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import photongas
from photongas import SI, GasParameters, core, oracle, parse_mass, specfun
from photongas.cli import VALIDATE_GRID, _grid, build_parser, main
from photongas.errors import ConvergenceError, DomainError, MassParseError
from photongas.units import _DBL_MAX
import golden_cells
import golden_outputs
from specfun_cost import X_GRID


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sweep grid
# ---------------------------------------------------------------------------

def test_sweep_grid_validation(capsys):
    with pytest.raises(DomainError):
        _grid(2.0, 1.0, 5, "linear")
    with pytest.raises(DomainError):
        _grid(1.0, 2.0, 1, "linear")
    with pytest.raises(DomainError):
        _grid(-1.0, 2.0, 5, "log")
    code, _, err = run(capsys, "sweep", "--mass", "1eV", "--variable", "pressure")
    assert code == 2 and "invalid choice" in err


def test_sweep_grid_hits_both_endpoints():
    grid = _grid(0.3, 7.0, 9, "log")
    assert grid[0] == 0.3 and grid[-1] == 7.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


_POSITIVE_DOUBLES = st.floats(min_value=0.0, max_value=_DBL_MAX, exclude_min=True)


@settings(max_examples=150, deadline=None)
@given(_POSITIVE_DOUBLES, _POSITIVE_DOUBLES, st.integers(2, 200),
       st.sampled_from(["log", "linear"]))
@example(1e-300, _DBL_MAX, 7, "log")  # the log grid's last exp overflowed
@example(1.0, 1.7e308, 4, "linear")  # i * (maximum - minimum) overflowed
def test_every_grid_in_the_double_range_is_finite_and_runs(a, b, points, spacing):
    # Any grid between two positive doubles is points finite values with
    # exact ends, and a figure or an x sweep over it ends in a report or a
    # named error, never a traceback.  The figure refuses only an x whose
    # kT/mc^2 = 1/x overflows.
    assume(a != b)
    minimum, maximum = min(a, b), max(a, b)
    grid = _grid(minimum, maximum, points, spacing)
    assert len(grid) == points and grid[0] == minimum and grid[-1] == maximum
    assert all(0.0 < value < math.inf for value in grid)
    flags = ["--x-min", repr(minimum), "--x-max", repr(maximum), "--points", str(points),
             "--spacing", spacing]
    for argv in (["figure", "mean-speed", *flags], ["sweep", "--mass", "1eV", *flags]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert len(out.getvalue().splitlines()) == points + 1
        else:
            assert code == 2 and err.getvalue().startswith("error: "), err.getvalue()
            assert argv[0] == "sweep" or 1.0 / minimum == math.inf


def test_sweep_over_a_linear_grid_up_to_the_double_range_reports(capsys):
    # i * (maximum - minimum) overflowed at the inner points, whose T came out 0.
    code, out, err = run(capsys, "sweep", "--mass", "1eV", "--variable", "x", "--x-min", "1",
                         "--x-max", "1.7e308", "--points", "4", "--spacing", "linear")
    assert code == 0, err
    xs = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert xs == _grid(1.0, 1.7e308, 4, "linear") and all(map(math.isfinite, xs))


# ---------------------------------------------------------------------------
# point
# ---------------------------------------------------------------------------

def test_point_massless_radiance_is_stefan_boltzmann(capsys):
    code, out, _ = run(capsys, "point", "--mass", "0kg", "--temp", "5800",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    kt = SI.k_B * 5800.0
    expected = math.pi**2 * kt**4 / (60 * SI.hbar**3 * SI.c**2)
    assert data["R_W_per_m2"] == pytest.approx(expected, rel=1e-12)
    assert data["vbar_m_per_s"] == SI.c
    assert data["R_naive_W_per_m2"] == pytest.approx(data["R_W_per_m2"], rel=1e-12)


def test_point_massive_radiance_below_naive(capsys):
    code, out, _ = run(capsys, "point", "--mass", "1e-4eV", "--temp", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["R_W_per_m2"] < data["R_naive_W_per_m2"]
    assert data["x"] > 0


def test_point_csv_has_17_significant_digits(capsys):
    code, out, _ = run(capsys, "point", "--mass", "0kg", "--temp", "300",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("mass_kg,T_K,x,")
    t_cell = row.split(",")[1]
    assert t_cell == "3.0000000000000000e+02"


QUANTITY_LINES = (("N/V", "n_per_m3", "m^-3"), ("U/V", "u_J_per_m3", "J/m^3"),
                  ("vbar", "vbar_m_per_s", "m/s"), ("R", "R_W_per_m2", "W/m^2"),
                  ("R_naive", "R_naive_W_per_m2", "W/m^2"))
QUANTITY_COLUMNS = [column for _, column, _ in QUANTITY_LINES]
METHOD_KEYS = ("n", "u", "v", "R", "R_naive")
CELL = r"-?\d\.\d{16}e[+-]\d{2,3}"


@pytest.mark.parametrize("mass, method", [("0kg", "series"), ("1eV", "series")])
def test_point_formats_print_the_same_cells(capsys, mass, method):
    # 1 eV at 5800 K is x ~ 2.0, on the Chebyshev tables.
    outs = {}
    for fmt in ("text", "csv", "json"):
        code, outs[fmt], _ = run(capsys, "point", "--mass", mass, "--temp", "5800",
                                 "--format", fmt)
        assert code == 0
    # text: four state lines, then one line per quantity with its label,
    # unit and method tag
    lines = outs["text"].splitlines()
    assert len(lines) == 9
    state = dict(re.fullmatch(rf"(\w+) .*= ({CELL})(?: \w+)?", line).groups()
                 for line in lines[:4])
    text = {"mass_kg": state["mass"], "T_K": state["temperature"],
            "degeneracy": state["degeneracy"], "x": state["x"]}
    for line, (label, column, unit) in zip(lines[4:], QUANTITY_LINES):
        text[column] = re.fullmatch(
            rf"{re.escape(label)} *= ({CELL}) {re.escape(unit)}  \[{method}\]", line).group(1)
    # json: the key order, and its number tokens as printed
    keys = ["mass_kg", "T_K", "degeneracy", "x", *QUANTITY_COLUMNS]
    data = json.loads(outs["json"])
    assert list(data) == keys + ["methods"]
    assert list(data["methods"].items()) == [(key, method) for key in METHOD_KEYS]
    tokens = dict(re.findall(rf'"(\w+)":({CELL})', outs["json"]))
    assert list(tokens) == keys
    # csv: the column order, and the method flags in the same key order
    header, row = (line.split(",") for line in outs["csv"].splitlines())
    assert header == ["mass_kg", "T_K", "x", *QUANTITY_COLUMNS, "method_flags"]
    assert row[-1] == ";".join(f"{key}:{method}" for key in METHOD_KEYS)
    csv = dict(zip(header, row))
    for column, cell in tokens.items():
        assert text[column] == cell
        assert csv.get(column, cell) == cell  # csv has no degeneracy column


# Every x of the cost script's grid, and each band edge with the double below it.
_ROW_XS = sorted({*X_GRID, *(y for edge in (2.0, 4.0, 8.0, 16.0, 40.0)
                             for y in (edge, math.nextafter(edge, 0.0)))})


@pytest.mark.parametrize("g", ["1", "2", "3"])
def test_point_and_sweep_rows_are_their_cells_formatted_one_by_one(capsys, g):
    # Each row comes from one % over a format string built once; it is the
    # index or mass, then T, x and the five quantities, each f"{v:.16e}",
    # then the flags, joined by commas.  The sweep rows are those of a
    # two-point x sweep from each x to 2x.
    mass, flags = parse_mass("1eV"), ";".join(f"{key}:series" for key in METHOD_KEYS)

    def row(first: str, report) -> str:
        values = (report.params.temperature, report.x, report.number_density,
                  report.energy_density, report.mean_speed, report.radiance,
                  report.radiance_naive)
        return ",".join([first, *(f"{v:.16e}" for v in values), flags])

    for x in _ROW_XS:
        temperature = mass * SI.c * SI.c / (SI.k_B * x)
        code, out, _ = run(capsys, "point", "--mass", "1eV", "--temp", repr(temperature),
                           "--g", g, "--format", "csv")
        report = core.evaluate(GasParameters(mass, temperature, float(g)))
        assert code == 0 and out.splitlines()[1:] == [row(f"{mass:.16e}", report)]
        code, out, _ = run(capsys, "sweep", "--mass", "1eV", "--variable", "x", "--x-min",
                           repr(x), "--x-max", repr(2 * x), "--points", "2", "--g", g)
        states = [(GasParameters(mass, mass * SI.c * SI.c / (SI.k_B * value), float(g)), value)
                  for value in (x, 2 * x)]
        reports = [core.RadiometryReport(params, value, *core._si(params, value, "unR"))
                   for params, value in states]
        assert code == 0 and out.splitlines()[1:] == [
            row(str(index), report) for index, report in enumerate(reports)]


def test_every_state_of_the_ledger_prints_its_committed_cells():
    # tests/golden_cells.csv: the point csv cells, or the exit code and
    # message, at every state of the grid that tests/golden_cells.py builds
    assert golden_cells.diff(golden_cells.read()) == []


def test_every_command_of_the_record_prints_its_committed_bytes():
    # tests/golden_outputs/: an x and a temperature sweep, point in each
    # format, both figures with their default flags (the mean-speed CSV and
    # SVG, the radiance CSV) and validate, byte for byte
    assert golden_outputs.diff(golden_outputs.read(), golden_outputs.outputs()) == []


def test_every_state_of_the_ledger_prints_the_same_cells_as_text_and_json(capsys):
    # At every state of tests/golden_cells.csv, point --format text and
    # --format json print the committed csv cells byte for byte, with the
    # degeneracy cell, which the csv row has not, as "%.16e" of g; and a
    # refused state gives the same exit code and message in every format.
    labels = [(label, unit) for label, _, unit in QUANTITY_LINES]
    for row in golden_cells.read():
        (mass, temperature, g, code), cells = row[:4], row[4:]
        for fmt in ("text", "json"):
            got = run(capsys, "point", "--mass", f"{mass}kg", "--temp", temperature,
                      "--g", g, "--format", fmt)
            if code != "0":
                assert got == (int(code), "", cells[0] + "\n"), (row, fmt)
                continue
            m, t, x, *quantities, flags = cells
            methods = [flag.split(":") for flag in flags.split(";")]
            assert [key for key, _ in methods] == list(METHOD_KEYS)
            if fmt == "text":
                expected = (f"mass        = {m} kg\ntemperature = {t} K\n"
                            f"degeneracy  = {float(g):.16e}\nx = mc^2/kT = {x}\n")
                expected += "".join(f"{label:7s} = {cell} {unit}  [{method}]\n" for
                                    (label, unit), cell, (_, method) in
                                    zip(labels, quantities, methods))
            else:
                expected = (f'{{"mass_kg":{m},"T_K":{t},"degeneracy":{float(g):.16e},"x":{x},'
                            + "".join(f'"{column}":{cell},' for column, cell in
                                      zip(QUANTITY_COLUMNS, quantities))
                            + '"methods":{%s}}\n' % ",".join(f'"{key}":"{method}"'
                                                             for key, method in methods))
            assert got == (0, expected, ""), (row, fmt)


def test_point_unknown_unit_is_usage_error(capsys):
    code, _, err = run(capsys, "point", "--mass", "5lbs", "--temp", "300")
    assert code == 2
    assert "lbs" in err


def test_point_bad_flag_is_usage_error(capsys):
    assert main(["point", "--mass", "0kg"]) == 2  # missing --temp


def test_validate_convergence_failure_names_the_quantity(capsys, monkeypatch):
    # Only validate's oracle can fail to converge: at x = 0.01 the radiance
    # changes by 1.0e-13 from the trapezoid sum at step 0.24 to the one at
    # 0.12, the most of the four, above a check lowered to 1e-14.  Exit 3,
    # the quantity named, and no partial report.
    monkeypatch.setattr(oracle, "_MAX_CHANGE", 1e-14)
    code, out, err = run(capsys, "validate")
    assert code == 3 and out == ""
    assert err.startswith("error: radiance: trapezoid sums at steps 0.24 and 0.12 differ by ")
    assert err.endswith(", above 1e-14, at x=0.01\n")


def test_point_where_the_first_bessel_term_would_overflow_reports_the_massless_limits(capsys):
    # At x = 2.2e-163 the Bessel pass's first term, K2(x) ~ 2/x^2, would
    # overflow a double; the expansions about x = 0 serve every x below 2
    # and give the m = 0 cells.
    code, out, err = run(capsys, "point", "--mass", "1e-200kg", "--temp", "300",
                         "--format", "json")
    assert code == 0 and err == ""
    tiny = json.loads(out)
    code, out, _ = run(capsys, "point", "--mass", "0kg", "--temp", "300", "--format", "json")
    assert code == 0
    massless = json.loads(out)
    assert tiny["methods"] == massless["methods"]
    for column in QUANTITY_COLUMNS:
        assert tiny[column] == pytest.approx(massless[column], rel=1e-15, abs=0.0), column


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_temperature_sweep_massless_follows_t4_scaling(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--mass", "0kg", "--variable", "temperature",
                     "--t-min", "100", "--t-max", "200", "--points", "2",
                     "--spacing", "linear", "--out", str(out_file))
    assert code == 0
    header, row1, row2 = out_file.read_text().strip().split("\n")
    assert header == ("index,T_K,x,n_per_m3,u_J_per_m3,vbar_m_per_s,"
                      "R_W_per_m2,R_naive_W_per_m2,method_flags")
    r1 = float(row1.split(",")[6])
    r2 = float(row2.split(",")[6])
    assert r2 / r1 == 16.0  # doubling T multiplies (kT)^4 exactly by 16


def test_x_sweep_temperature_column_solves_the_definition(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--mass", "1eV", "--variable", "x",
                     "--x-min", "1", "--x-max", "2", "--points", "2",
                     "--spacing", "linear", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().split("\n")[1:]
    mass = SI.eV / SI.c**2
    for row in rows:
        cells = row.split(",")
        t_kelvin, x = float(cells[1]), float(cells[2])
        assert mass * SI.c**2 / (SI.k_B * t_kelvin) == pytest.approx(x, rel=1e-14)


def test_x_sweep_prints_and_routes_by_its_grid_x(capsys, tmp_path, monkeypatch):
    # T is solved from each grid x; mc^2/kT recomputed from it would read
    # 0.1 as 9.9999999999999992e-02 and could cross a band edge
    evaluated_at = []
    bands = core._bands

    def recorded(x):
        evaluated_at.append(x)
        return bands(x)

    monkeypatch.setattr(core, "_bands", recorded)
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--mass", "1eV", "--variable", "x", "--x-min", "0.1",
                 "--x-max", "3.99", "--points", "400", "--spacing", "log",
                 "--out", str(out_file)]) == 0
    rows = [r.split(",") for r in out_file.read_text().strip().split("\n")[1:]]
    assert float(rows[0][2]) == 0.1 and float(rows[-1][2]) == 3.99
    assert evaluated_at == _grid(0.1, 3.99, 400, "log")
    assert [float(row[2]) for row in rows] == evaluated_at


def test_log_sweep_mean_speed_strictly_decreasing(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--mass", "1eV", "--variable", "x",
                     "--x-min", "0.01", "--x-max", "100", "--points", "25",
                     "--spacing", "log", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().split("\n")[1:]
    speeds = [float(r.split(",")[5]) for r in rows]
    assert len(speeds) == 25
    assert all(a > b for a, b in zip(speeds, speeds[1:]))


def test_sweep_output_is_byte_identical_across_runs(capsys, tmp_path):
    args = ("sweep", "--mass", "1e-3eV", "--variable", "x", "--x-min", "0.05",
            "--x-max", "20", "--points", "7", "--spacing", "log")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(list(args) + ["--out", str(first)]) == 0
    assert main(list(args) + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_csv_cells_round_trip(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--mass", "1e-3eV", "--variable", "x", "--x-min",
                 "0.5", "--x-max", "5", "--points", "3", "--out",
                 str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")
    rebuilt = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        rebuilt.append(",".join(
            [cells[0]] + [f"{float(c):.16e}" for c in cells[1:-1]] + [cells[-1]]))
    assert "\n".join(rebuilt) == "\n".join(lines)


def test_x_sweep_with_zero_mass_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--mass", "0kg", "--variable", "x")
    assert code == 2


def test_failed_sweep_leaves_no_partial_file(capsys, tmp_path):
    # The first row, at 1e78 K, reports; the second, at 5.5e78 K, does not:
    # the radiance's SI prefactor overflows above about 4.8e78 K.
    out_file = tmp_path / "never.csv"
    code, _, err = run(capsys, "sweep", "--mass", "0kg", "--variable",
                       "temperature", "--t-min", "1e78", "--t-max", "1e79",
                       "--points", "3", "--spacing", "linear", "--out", str(out_file))
    assert code == 2
    assert err.startswith("error: radiance: SI prefactor overflows at T=5.5e+78 K")
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# figure mean-speed
# ---------------------------------------------------------------------------

def test_figure_columns_and_asymptote_blanking(capsys, tmp_path):
    out_file = tmp_path / "fig.csv"
    code, _, _ = run(capsys, "figure", "mean-speed", "--x-min", "2.2",
                     "--x-max", "2.9", "--points", "8", "--spacing", "linear",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "x,kT_over_mc2,vbar_over_c,nonrel_approx"
    boundary = 8.0 / math.pi
    first_filled = None
    for line in lines[1:]:
        x_cell, ratio_cell, v_cell, approx_cell = line.split(",")
        x = float(x_cell)
        assert float(ratio_cell) == pytest.approx(1.0 / x, rel=1e-14)
        if x <= boundary:
            assert approx_cell == ""
        else:
            value = float(approx_cell)
            assert value == pytest.approx(math.sqrt(8 / (math.pi * x)), rel=1e-14)
            if first_filled is None:
                first_filled = value
    assert first_filled is not None
    assert 0.9 < first_filled < 1.0  # the column resumes at ~c


def test_figure_limits_and_svg_emission(capsys, tmp_path):
    out_file = tmp_path / "fig.csv"
    svg_file = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "figure", "mean-speed", "--points", "13",
                     "--out", str(out_file), "--svg", str(svg_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")[1:]
    rows = [line.split(",") for line in lines]
    # x increases down the file, so the first row is the high-temperature end
    assert float(rows[0][2]) > 0.999
    x_last = float(rows[-1][0])
    assert float(rows[-1][2]) == pytest.approx(
        math.sqrt(8 / (math.pi * x_last)), rel=0.01)
    svg = svg_file.read_text()
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 500"' in svg
    assert "stroke-dasharray" in svg  # dashed asymptote present


# ---------------------------------------------------------------------------
# figure radiance
# ---------------------------------------------------------------------------

def test_figure_radiance_takes_only_out_and_prints_the_kernels_ratios(capsys, tmp_path):
    # Its fixed grid of 25 x, 17-digit cells, and each row from the kernels
    # at its x alone: no mass, no T, no SI value; the asymptote switches at x = 1.
    code, out, _ = run(capsys, "figure", "radiance", "-h")
    assert code == 0
    assert re.findall(r"^  (-\S.*?)(?:  |$)", out, re.M) == ["-h, --help", "--out OUT"]
    out_file = tmp_path / "radiance.csv"
    assert run(capsys, "figure", "radiance", "--out", str(out_file)) == (0, "", "")
    assert run(capsys, "figure", "radiance") == (0, out_file.read_text(), "")
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,R_over_RSB,R_over_Rnaive,asymptote_over_R"
    cells = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in cells] == _grid(0.01, 100.0, 25, "log")
    assert all(cell == "%.16e" % float(cell) for row in cells for cell in row)
    for x, over_sb, over_naive, asymptote in (map(float, row) for row in cells):
        kernels = core.reduced_functions(x)
        u_hat, r_hat = kernels.u_hat, kernels.r_hat
        expected = (math.pi**2 / 60 * (1 - 5 / (2 * math.pi**2) * x * x) if x < 1
                    else x * x * math.exp(-x) / (2 * math.pi**2))
        assert over_sb == pytest.approx(r_hat / (math.pi**2 / 60), rel=1e-15, abs=0)
        assert over_naive == pytest.approx(4 * r_hat / u_hat, rel=1e-15, abs=0)
        assert asymptote == pytest.approx(expected / r_hat, rel=1e-15, abs=0)


@pytest.mark.parametrize("argv, path, existing", [
    (["point", "--mass", "1eV", "--temp", "300", "--out", "{dir}"], "{dir}", False),
    (["figure", "mean-speed", "--points", "3", "--svg", "{dir}"], "{dir}", False),
    (["figure", "radiance", "--out", "{dir}"], "{dir}", False),
    (["figure", "mean-speed", "--out", "{dir}/missing/f.csv"], "{dir}/missing/f.csv", False),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}"], "{dir}", False),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}"], "{dir}", True),
    (["figure", "mean-speed", "--svg", "{dir}"], "{dir}", False),
    (["figure", "mean-speed", "--svg", "{dir}"], "{dir}", True),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}/f.csv"], "{dir}/f.csv",
     False),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}/f.csv"], "{dir}/f.csv",
     True),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}/./f.csv"], "{dir}/./f.csv",
     False),
    (["figure", "mean-speed", "--out", "{dir}/f.csv", "--svg", "{dir}/./f.csv"], "{dir}/./f.csv",
     True)],
    ids=["point --out", "mean-speed --svg", "radiance --out", "mean-speed --out",
         "mean-speed --out f.csv --svg, empty dir", "mean-speed --out f.csv --svg, f.csv exists",
         "mean-speed --svg, empty dir", "mean-speed --svg, f.csv exists",
         "mean-speed --out f.csv --svg f.csv, empty dir",
         "mean-speed --out f.csv --svg f.csv, f.csv exists",
         "mean-speed --out f.csv --svg ./f.csv, empty dir",
         "mean-speed --out f.csv --svg ./f.csv, f.csv exists"])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, argv, path,
                                                                 existing):
    # Exit 1 is validate's FAIL alone: a path that cannot be opened, or one
    # that names the same regular file as an earlier output of the command,
    # exits 2 with one error line naming it, and no traceback.  The command
    # is all or nothing: it prints nothing else, leaves no new file, and a
    # file it would have rewritten keeps its bytes.
    kept = b"x,kept\n"
    if existing:
        (tmp_path / "f.csv").write_bytes(kept)
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(path.format(dir=tmp_path)) in err
    assert [entry.name for entry in tmp_path.iterdir()] == (["f.csv"] if existing else [])
    assert not existing or (tmp_path / "f.csv").read_bytes() == kept


def test_two_outputs_to_one_device_are_no_usage_error(capsys):
    # Only regular files are matched: both outputs may go to the null device.
    assert run(capsys, "figure", "mean-speed", "--points", "3", "--out", os.devnull,
               "--svg", os.devnull) == (0, "", "")


def test_a_file_output_to_the_file_stdout_goes_to_is_a_usage_error(capsys, tmp_path):
    # Where stdout goes to a regular file, an output path that names that
    # file is a second name of it: exit 2, one error line, nothing written.
    svg = str(tmp_path / "f.svg")
    with open(svg, "w") as stdout, contextlib.redirect_stdout(stdout):
        code = main(["figure", "mean-speed", "--points", "3", "--svg", svg])
    assert (code, capsys.readouterr().err) == (
        2, f"error: outputs '<stdout>' and {svg!r} name one file\n")
    assert [entry.name for entry in tmp_path.iterdir()] == ["f.svg"]
    assert (tmp_path / "f.svg").read_bytes() == b""


def test_an_svg_to_dev_stdout_redirected_to_a_file_is_a_usage_error(tmp_path):
    # The shell's spelling of the same clash, in a fresh process: the SVG
    # would go to the file at offset 0, and the CSV on stdout over it.
    with open(tmp_path / "f.svg", "w") as stdout:
        proc = run_subprocess("figure", "mean-speed", "--points", "3", "--svg", "/dev/stdout",
                              stdout=stdout)
    assert proc.returncode == 2
    assert proc.stderr == "error: outputs '<stdout>' and '/dev/stdout' name one file\n"
    assert (tmp_path / "f.svg").read_bytes() == b""


def test_a_file_output_beside_stdouts_file_writes_both(capsys, tmp_path):
    # stdout's file is compared, not refused: another path is no clash.
    _, csv, _ = run(capsys, "figure", "mean-speed", "--points", "3")
    with open(tmp_path / "f.csv", "w") as stdout, contextlib.redirect_stdout(stdout):
        code = main(["figure", "mean-speed", "--points", "3", "--svg", str(tmp_path / "g.svg")])
    assert (code, capsys.readouterr()) == (0, ("", ""))
    assert (tmp_path / "f.csv").read_text() == csv
    assert (tmp_path / "g.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("size", [65536, 2, None], ids=["longer", "shorter", "missing"])
def test_a_file_output_is_rewritten_in_place_to_exactly_its_new_bytes(capsys, tmp_path, size):
    # Over a file longer or shorter than the new bytes, or over none, each
    # output ends with exactly what a run into an empty directory writes.  A
    # file that existed keeps its inode and mode, and a hard link to it reads
    # the new bytes.
    for number, (argv, names) in enumerate([
            (["point", "--mass", "1eV", "--temp", "5800", "--format", "csv", "--out", "f.csv"],
             ["f.csv"]),
            (["figure", "mean-speed", "--out", "f.csv", "--svg", "g.svg"], ["f.csv", "g.svg"])]):
        fresh, rerun = tmp_path / f"fresh{number}", tmp_path / f"rerun{number}"
        fresh.mkdir()
        rerun.mkdir()
        existing = names if size is not None else []
        for name in existing:
            (rerun / name).write_bytes(b"0" * size)
            (rerun / name).chmod(0o600)
            os.link(rerun / name, rerun / f"link_{name}")
        before = {name: os.stat(rerun / name) for name in existing}
        for directory in (fresh, rerun):
            assert run(capsys, *(str(directory / arg) if arg in names else arg
                                 for arg in argv)) == (0, "", "")
        for name in names:
            new = (fresh / name).read_bytes()
            assert 2 < len(new) < 65536  # so each situation is what its id says
            assert (rerun / name).read_bytes() == new
            if name in before:
                status = os.stat(rerun / name)
                assert (status.st_ino, status.st_mode) == (before[name].st_ino,
                                                           before[name].st_mode)
                assert (rerun / f"link_{name}").read_bytes() == new


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_on_defaults(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "RESULT: PASS" in out
    for quantity in ("n_hat", "v_hat", "u_hat", "r_hat"):
        assert quantity in out
    assert "x = 50" in out


def test_validate_compares_both_routes_at_every_grid_x(capsys, monkeypatch):
    closed_at = []
    bands = core._bands

    def recorded(x):
        closed_at.append(x)
        return bands(x)

    monkeypatch.setattr(core, "_bands", recorded)
    code, out, err = run(capsys, "validate")
    assert code == 0, err
    assert tuple(closed_at) == VALIDATE_GRID
    for quantity in ("n_hat", "v_hat", "u_hat", "r_hat"):
        match = re.search(rf"^{quantity} +max relative residual = (\S+) at x = (\S+)$",
                          out, re.M)
        assert match, quantity
        assert float(match[1]) <= 1e-7 and float(match[2]) in VALIDATE_GRID


def test_validate_work_count(capsys, monkeypatch):
    # The series route's work in one validate, counts that do not depend on
    # the host: at each grid x the expansion terms below x = 2, the table
    # rows up to 40 and the one K pair from there on.  In 0.9.0 the Bessel
    # pass took 35 K pairs here, 17 of them at x = 2; the geometric stop
    # rule alone took 1669, 1395 of them at x = 0.01.
    work = []

    def counted(name):
        function = getattr(specfun, name)

        def wrapper(x):
            result = function(x)
            work.append((name, x, 1 if name == "_k01_hankel" else result[-1]))
            return result

        monkeypatch.setattr(specfun, name, wrapper)

    for name in ("_expansions", "_sum_chebyshev", "_k01_hankel"):
        counted(name)
    code, _, err = run(capsys, "validate")
    assert code == 0, err
    assert [x for _, x, _ in work] == list(VALIDATE_GRID)
    assert work == [("_expansions", 0.01, 4), ("_expansions", 0.1, 5),
                    ("_expansions", 0.5, 8), ("_expansions", 1.0, 11),
                    ("_sum_chebyshev", 2.0, 16), ("_sum_chebyshev", 5.0, 17),
                    ("_sum_chebyshev", 10.0, 17), ("_sum_chebyshev", 20.0, 19),
                    ("_k01_hankel", 50.0, 1)]


# ---------------------------------------------------------------------------
# remaining flag surfaces
# ---------------------------------------------------------------------------

def test_point_degeneracy_flag_scales_extensive_quantities(capsys, tmp_path):
    out_file = tmp_path / "point.json"
    assert main(["point", "--mass", "0kg", "--temp", "300", "--format", "json",
                 "--out", str(out_file)]) == 0
    base = json.loads(out_file.read_text())
    assert main(["point", "--mass", "0kg", "--temp", "300", "--format", "json",
                 "--g", "3", "--out", str(out_file)]) == 0
    boosted = json.loads(out_file.read_text())
    assert boosted["R_W_per_m2"] == pytest.approx(1.5 * base["R_W_per_m2"], rel=1e-15)
    assert boosted["vbar_m_per_s"] == base["vbar_m_per_s"]  # intensive


def test_point_negative_temperature_is_usage_error(capsys):
    code, _, err = run(capsys, "point", "--mass", "0kg", "--temp", "-5")
    assert code == 2


def run_subprocess(*argv, stdout=subprocess.PIPE):
    # A fresh interpreter, so an uncaught exception shows as a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(photongas.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "photongas", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def test_point_deep_nonrelativistic_state_reports():
    # x ~ 1.2e299 and x ~ 1.2e308 (where n x overflows for n >= 2): densities
    # underflow to 0 and the mean speed stays finite.
    for mass in ("1e-5eV", "2e-32kg"):
        proc = run_subprocess("point", "--mass", mass, "--temp", "1e-300",
                              "--format", "json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["n_per_m3"] == 0.0 and report["R_W_per_m2"] == 0.0
        assert report["u_J_per_m3"] == 0.0
        assert 0.0 < report["vbar_m_per_s"] < SI.c


def test_point_at_huge_x_matches_the_trapezoid_oracle(capsys):
    # x ~ 6.5e109: on either route n, u and R underflow to 0, and the mean
    # speed, a ratio of two e^x-scaled sums, stays finite.
    code, out, _ = run(capsys, "point", "--mass", "1kg", "--temp", "1e-70",
                       "--format", "json")
    assert code == 0
    series = json.loads(out)
    quad = oracle._moments(series["x"])
    assert quad[0] == quad[1] == quad[3] == 0.0
    assert series["n_per_m3"] == series["u_J_per_m3"] == series["R_W_per_m2"] == 0.0
    assert series["vbar_m_per_s"] == pytest.approx(quad[2] * SI.c, rel=1e-13, abs=0.0)


def test_point_below_four_matches_the_trapezoid_oracle(capsys):
    # x ~ 3 lies where the trapezoid served before 0.10.0; the tables serve
    # it now, and the five SI cells agree with the oracle's kernels.
    code, out, _ = run(capsys, "point", "--mass", "1eV", "--temp", "3868.2",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert set(row["methods"].values()) == {"series"}
    n, u, v, r = oracle._moments(row["x"])
    params = photongas.GasParameters(mass=row["mass_kg"], temperature=row["T_K"],
                                     degeneracy=row["degeneracy"])
    kt = SI.k_B * params.temperature  # each prefactor (g/2) (kT)^k (kT/hbar c)^3 c^j
    si = {key: 0.5 * params.degeneracy * kt**k * (kt / (SI.hbar * SI.c)) ** 3 * SI.c**j
          for key, (k, j) in {"n": (0, 0), "u": (1, 0), "R": (1, 1)}.items()} | {"v": SI.c}
    expected = {"n_per_m3": n * si["n"], "u_J_per_m3": u * si["u"],
                "vbar_m_per_s": v * si["v"], "R_W_per_m2": r * si["R"],
                "R_naive_W_per_m2": 0.25 * SI.c * u * si["u"]}
    for column, value in expected.items():
        assert row[column] == pytest.approx(value, rel=1e-12, abs=0.0), column


def test_point_negative_zero_mass_prints_no_negative_zero(capsys):
    code, out, _ = run(capsys, "point", "--mass=-0kg", "--temp", "300", "--format", "csv")
    assert code == 0
    assert not any(cell.startswith("-0") for cell in out.splitlines()[1].split(","))


@pytest.mark.xfail(strict=True,
                   reason="units.reduce refuses x = inf, though the densities "
                          "are exactly 0 and vbar is a finite double")
def test_point_at_an_x_beyond_the_double_range_reports(capsys):
    code, out, err = run(capsys, "point", "--mass", "1kg", "--temp", "1e-300",
                         "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["n_per_m3"] == 0.0 and report["R_W_per_m2"] == 0.0
    assert report["u_J_per_m3"] == 0.0
    assert 0.0 < report["vbar_m_per_s"] < SI.c


def test_point_temperature_beyond_double_range_is_domain_error():
    proc = run_subprocess("point", "--mass", "1e-40kg", "--temp", "1e300")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: energy_density")


@pytest.mark.parametrize("argv", [
    ["point", "--mass", "1eV", "--temp", "300"], ["sweep", "--mass", "1eV"],
    ["figure", "mean-speed"], ["validate"]])
def test_numerics_flag_defaults_are_the_library_defaults(argv):
    # No subcommand carries a numerics setting: the series route has none,
    # and validate's oracle takes a fixed step.
    args = vars(build_parser().parse_args(argv))
    assert "x_switch" not in args
    assert "quad_tol" not in args


@pytest.mark.parametrize("argv", [
    [*command, "--x-switch", "4"] for command in (
        ["point", "--mass", "1eV", "--temp", "300"], ["sweep", "--mass", "1eV"],
        ["figure", "mean-speed"], ["validate"])] + [
    [*command, "--quad-tol", "1e-9"] for command in (
        ["point", "--mass", "1eV", "--temp", "300"], ["sweep", "--mass", "1eV"],
        ["figure", "mean-speed"], ["validate"])])
def test_retired_numerics_flags_are_usage_errors(capsys, argv):
    # Every public kernel takes the series route, so there is no switch to
    # move, and validate's oracle takes a fixed step, so there is no
    # tolerance to set.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


@pytest.mark.parametrize("argv", [
    ["point", "--mass", "1eV", "--temp", "300"], ["sweep", "--mass", "1eV"],
    ["figure", "mean-speed"], ["validate"]])
def test_series_tol_flag_is_gone(capsys, argv):
    # The series route stops at double precision and takes no tolerance.
    code, _, err = run(capsys, *argv, "--series-tol", "1e-12")
    assert code == 2
    assert "unrecognized arguments: --series-tol" in err


def test_massless_and_smallest_mass_print_the_same_radiance(capsys):
    # m = 0 takes the exact limit pi^2/60, x = 2.2e-163 the expansions,
    # whose Q is zeta(4) = pi^4/90 there: both correctly rounded, so the R
    # cells agree.
    rows = []
    for mass in ("0kg", "1e-200kg"):
        code, out, err = run(capsys, "point", "--mass", mass, "--temp", "300",
                             "--format", "csv")
        assert code == 0, err
        header, row = out.splitlines()
        rows.append(dict(zip(header.split(","), row.split(","))))
    assert rows[0]["R_W_per_m2"] == rows[1]["R_W_per_m2"]


def test_point_where_k_b_t_underflows():
    # At T = 5e-324 K, k_B T is 0: without mass every density is 0 and vbar
    # is c; with mass x overflows, a usage error.
    proc = run_subprocess("point", "--mass", "0kg", "--temp", "5e-324",
                          "--format", "json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["x"] == 0.0 and report["vbar_m_per_s"] == SI.c
    assert report["n_per_m3"] == report["u_J_per_m3"] == report["R_W_per_m2"] == 0.0
    proc = run_subprocess("point", "--mass", "1eV", "--temp", "5e-324")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_x_sweep_whose_temperature_overflows_names_it():
    # k_B x underflows to 0 at x = 1e-320, so T = mc^2/(k_B x) overflows.
    proc = run_subprocess("sweep", "--mass", "1eV", "--variable", "x",
                          "--x-min", "1e-320", "--x-max", "1e-300", "--points", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: temperature must be finite")


def test_point_si_prefactor_overflow_names_the_degeneracy():
    proc = run_subprocess("point", "--mass", "1eV", "--temp", "300", "--g", "1e300")
    assert proc.returncode == 2
    assert proc.stderr == ("error: number_density: SI prefactor overflows at "
                           "T=300.0 K, g=1e+300\n")


def test_figure_whose_kt_ratio_overflows_writes_nothing(tmp_path):
    out_file = tmp_path / "fig.csv"
    svg_file = tmp_path / "fig.svg"
    proc = run_subprocess("figure", "mean-speed", "--x-min", "1e-320",
                          "--x-max", "1", "--points", "3",
                          "--out", str(out_file), "--svg", str(svg_file))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: kT/mc^2")
    assert not out_file.exists() and not svg_file.exists()


def test_figure_asymptote_at_the_top_of_the_double_range(capsys, tmp_path):
    # At x = 1e308, pi x overflows; the asymptote must still track vbar/c.
    svg_file = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "figure", "mean-speed", "--x-min", "1e307",
                       "--x-max", "1e308", "--points", "2", "--svg", str(svg_file))
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        x, _, v_hat, approx = map(float, line.split(","))
        assert approx == pytest.approx(v_hat, rel=1e-14, abs=0.0)
        assert approx == pytest.approx(math.sqrt(8 / math.pi) / math.sqrt(x),
                                       rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x_min", [1e10, 1e300])
def test_figure_whose_kt_ratios_share_one_log_draws_a_decade(capsys, tmp_path, x_min):
    # Above x ~ 1e10 the log10 of two adjacent kT/mc^2 values can round to
    # one double; the axis must not collapse to zero width.
    out_file = tmp_path / "fig.csv"
    svg_file = tmp_path / "fig.svg"
    code, _, err = run(capsys, "figure", "mean-speed", "--x-min", repr(x_min),
                       "--x-max", repr(math.nextafter(x_min, math.inf)),
                       "--points", "2", "--out", str(out_file), "--svg", str(svg_file))
    assert code == 0, err
    assert len(out_file.read_text().strip().split("\n")) == 3
    svg = svg_file.read_text()
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert "nan" not in svg and "inf" not in svg


# ---------------------------------------------------------------------------
# the shared parser
# ---------------------------------------------------------------------------

def test_shared_parser_carries_no_state_between_calls(capsys, tmp_path, monkeypatch):
    # One process, one parser: a mixed sequence run forward and then
    # reversed must print and write the same bytes at every step.
    steps = [
        (["point", "--mass", "1eV", "--temp", "300"], None),
        (["point", "--mass", "1eV", "--temp", "300", "--format", "csv"], None),
        (["point", "--mass", "0kg", "--temp", "5800", "--format", "json"], None),
        (["sweep", "--mass", "1eV", "--points", "5", "--out", "sweep.csv"], None),
        (["figure", "mean-speed", "--points", "7", "--out", "fig.csv",
          "--svg", "fig.svg"], None),
        (["figure", "radiance", "--out", "radiance.csv"], None),
        (["validate"], None),
        (["point", "--mass", "0kg"], None),
        (["validate", "--quad-tol", "1e-10"], None),
        (["--help"], None),
        (["validate"], 1e-14),
    ]

    def outcome(argv, max_change):
        with monkeypatch.context() as patch:
            if max_change is not None:
                patch.setattr(oracle, "_MAX_CHANGE", max_change)
            code = main([str(tmp_path / arg) if arg.endswith((".csv", ".svg")) else arg
                         for arg in argv])
        captured = capsys.readouterr()
        files = {}
        for path in sorted(tmp_path.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        return code, captured.out, captured.err, files

    forward = [outcome(*step) for step in steps]
    backward = [outcome(*step) for step in reversed(steps)][::-1]
    assert [result[0] for result in forward] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 3]
    assert forward == backward
    assert build_parser() is build_parser()


def test_main_calls_build_parser_once_per_call(monkeypatch):
    # perfbench/tracing.py counts cli.build_parser calls and its self-test
    # expects one per cli.main call, usage errors and --help included.
    calls = []
    shared = photongas.cli.build_parser

    def counted():
        calls.append(None)
        return shared()

    monkeypatch.setattr(photongas.cli, "build_parser", counted)
    argvs = [["point", "--mass", "0kg", "--temp", "300"], ["point", "--mass", "0kg"],
             ["point", "--temp", "x"], ["--help"], ["validate"]]
    for number, argv in enumerate(argvs, 1):
        main(argv)
        assert len(calls) == number


# Usage errors, help texts and well-formed commands for the argv contract: a
# literal, so that a script can read it without importing pytest.  An
# argument ending in .csv or .svg is a file name under the test's directory.
ARGV_BATTERY = [
    # no argv, and help at the top level, per command and after other flags
    [], ["-h"], ["--help"], ["--he"],
    ["point", "-h"], ["point", "--help"], ["sweep", "--help"], ["figure", "-h"],
    ["figure", "mean-speed", "--help"], ["validate", "-h"],
    ["point", "--mass", "1eV", "--help"], ["point", "--mass", "1eV", "--temp", "300", "-h"],
    ["sweep", "--mass", "1eV", "--points", "3", "--help"],
    ["figure", "mean-speed", "--points", "3", "-h"], ["figure", "radiance", "--help"],
    # unknown commands and figures, and a flag before the command
    ["bogus"], ["pointt", "--mass", "1eV", "--temp", "300"], ["figure"], ["figure", "bogus"],
    ["--mass", "1eV", "point", "--temp", "300"], ["--help", "point"], ["-h", "validate"],
    # abbreviated flags, one of them ambiguous, and the --flag=value form
    ["point", "--mas", "1eV", "--te", "300"], ["point", "--he"],
    ["point", "--mass", "1eV", "--he"],
    ["sweep", "--mass", "1eV", "--po", "3"], ["sweep", "--mass", "1eV", "--x", "3"],
    ["point", "--mass=1eV", "--temp=300", "--format=json"],
    ["sweep", "--mass=1eV", "--variable=temperature", "--points=3", "--spacing=linear"],
    ["figure", "mean-speed", "--x-min=0.5", "--points=3"],
    # a bare --, before and after the flags
    ["--", "point", "--mass", "1eV", "--temp", "300"],
    ["point", "--", "--mass", "1eV", "--temp", "300"],
    ["point", "--mass", "1eV", "--temp", "300", "--"], ["validate", "--"],
    ["figure", "--", "mean-speed"],
    # missing, malformed and negative values
    ["point"], ["point", "--mass"], ["point", "--mass", "1eV"], ["point", "--temp", "300"],
    ["sweep"], ["sweep", "--mass", "1eV", "--points"],
    ["point", "--mass", "1eV", "--temp", "x"], ["point", "--mass", "1xx", "--temp", "300"],
    ["point", "--mass", "1eV", "--temp", "300", "--format", "xml"],
    ["sweep", "--mass", "1eV", "--points", "2.5"], ["sweep", "--mass", "1eV", "--spacing", "lin"],
    ["point", "--mass", "1eV", "--temp", "-300"], ["point", "--mass", "-1eV", "--temp", "300"],
    ["point", "--mass", "1eV", "--temp", "300", "--g", "-2"],
    ["sweep", "--mass", "1eV", "--x-min", "-1"], ["sweep", "--mass", "1eV", "--points", "-3"],
    ["figure", "mean-speed", "--x-max", "-1"],
    # retired flags, unknown flags, extra positionals and repeated command words
    ["point", "--mass", "1eV", "--temp", "300", "--x-switch", "4"],
    ["sweep", "--mass", "1eV", "--quad-tol", "1e-9"],
    ["figure", "mean-speed", "--x-switch", "4"], ["validate", "--quad-tol", "1e-9"],
    ["point", "--mass", "1eV", "--temp", "300", "--bogus"],
    ["point", "--bogus", "--mass", "1eV", "--temp", "300"],
    ["point", "extra", "--mass", "1eV", "--temp", "300"],
    ["point", "--mass", "1eV", "--temp", "300", "extra"],
    ["validate", "extra"], ["figure", "mean-speed", "extra"], ["figure", "radiance", "extra"],
    ["figure", "radiance", "--points", "3"],
    ["point", "point", "--mass", "1eV", "--temp", "300"], ["validate", "validate"],
    ["figure", "figure", "mean-speed"], ["figure", "mean-speed", "mean-speed"],
    # well-formed commands, and errors raised after parsing
    ["point", "--mass", "1eV", "--temp", "300"],
    ["point", "--mass", "0kg", "--temp", "5800", "--format", "json"],
    ["point", "--mass", "1eV", "--temp", "300", "--format", "csv", "--out", "point.csv"],
    ["point", "--mass", "1e-40kg", "--temp", "1e300"],
    ["sweep", "--mass", "1eV", "--points", "4", "--out", "sweep.csv"],
    ["sweep", "--mass", "0kg", "--variable", "temperature", "--points", "3"],
    ["figure", "mean-speed", "--points", "5", "--out", "fig.csv", "--svg", "fig.svg"],
    ["figure", "mean-speed", "--x-min", "1e-320", "--x-max", "1", "--points", "3"],
    ["figure", "radiance"], ["figure", "radiance", "--out", "radiance.csv"],
    ["validate"],
]


def reference_main(argv):
    # What main did when the top-level parser parsed every argv.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (MassParseError, DomainError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2


@pytest.mark.parametrize("argv", ARGV_BATTERY, ids=" ".join)
def test_main_prints_what_the_top_level_parser_would(capsys, tmp_path, argv):
    # main parses a command's flags with that command's parser alone; every
    # exit code, stdout, stderr and file must be what a parse of the whole
    # argv by the top-level parser gives.
    argv = [str(tmp_path / arg) if arg.endswith((".csv", ".svg")) else arg for arg in argv]

    def outcome(entry):
        code = entry(argv)
        captured = capsys.readouterr()
        files = {}
        for path in sorted(tmp_path.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        return code, captured.out, captured.err, files

    assert outcome(main) == outcome(reference_main)


def test_only_a_misfit_argv_reaches_the_top_level_parser(monkeypatch, capsys):
    # Each command's flags go to its own parser once; the top-level parser
    # sees only an argv that names no command or that its command's parser
    # leaves an argument of.
    parser = build_parser()
    calls = []

    def recorder(name):
        def record(args=None, namespace=None):
            calls.append((name, list(args)))
            raise SystemExit(0)
        return record

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(parser, name, recorder(name))
    for argv in (("point", "--mass", "1eV", "--temp", "300", "--format", "csv"),
                 ["sweep", "--mass", "1eV", "--points", "3"],
                 ["figure", "mean-speed", "--points", "3"], ["validate"],
                 ["figure", "radiance"]):
        assert main(argv) == 0
        assert calls == [], argv
    capsys.readouterr()
    for argv in (["point", "--mass", "1eV", "--temp", "300", "--bogus"], ["--help"]):
        calls.clear()
        assert main(argv) == 0
        assert calls == [("parse_args", argv)]
    assert capsys.readouterr().err == ""


def test_only_validate_loads_the_oracle():
    # Each command in a fresh interpreter, started with -S so that no site
    # hook preloads a module: point, sweep and figure leave the quadrature
    # oracle and typing unloaded, validate loads both, and no command loads
    # dataclasses or inspect.
    script = ("import sys\nfrom photongas.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "names = ('photongas.oracle', 'typing', 'dataclasses', 'inspect')\n"
              "sys.stderr.write(f'{code} {[name in sys.modules for name in names]}')")
    env = dict(os.environ, PYTHONPATH=str(Path(photongas.__file__).parent.parent))
    for argv, loaded in ((["point", "--mass", "1eV", "--temp", "300"], False),
                         (["sweep", "--mass", "1eV", "--points", "3"], False),
                         (["figure", "mean-speed", "--points", "3", "--svg", os.devnull], False),
                         (["figure", "radiance", "--out", os.devnull], False),
                         (["validate"], True)):
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stderr == f"0 {[loaded, loaded, False, False]}", (argv, proc.stderr)


# ---------------------------------------------------------------------------
# the benchmark's tracer
# ---------------------------------------------------------------------------

def test_every_name_the_benchmark_tracer_binds_is_a_library_callable():
    # perfbench/tracing.py swaps each (module, attribute) of its PATCHES for
    # a timing wrapper by getattr, so a retired name breaks the traced run.
    # The file is compiled from its text, so nothing is written beside it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    modules = {"cli": photongas.cli, "core": core, "oracle": oracle, "specfun": specfun}
    patches = namespace["PATCHES"]
    assert patches
    for module, attr, *_ in patches:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
