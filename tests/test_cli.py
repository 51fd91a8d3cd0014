"""CLI behavior: formats, exit codes, determinism, and file hygiene."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photongas
from photongas import DEFAULT_NUMERICS, SI, core, oracle, specfun
from photongas.cli import VALIDATE_GRID, SweepSpec, build_parser, main
from photongas.errors import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sweep spec
# ---------------------------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec("x", 2.0, 1.0, 5)
    with pytest.raises(DomainError):
        SweepSpec("x", 1.0, 2.0, 1)
    with pytest.raises(DomainError):
        SweepSpec("x", -1.0, 2.0, 5, "log")
    with pytest.raises(DomainError):
        SweepSpec("pressure", 1.0, 2.0, 5)


def test_sweep_spec_grid_hits_both_endpoints():
    spec = SweepSpec("x", 0.3, 7.0, 9, "log")
    grid = spec.grid()
    assert grid[0] == 0.3 and grid[-1] == 7.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


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


def test_point_unknown_unit_is_usage_error(capsys):
    code, _, err = run(capsys, "point", "--mass", "5lbs", "--temp", "300")
    assert code == 2
    assert "lbs" in err


def test_point_bad_flag_is_usage_error(capsys):
    assert main(["point", "--mass", "0kg"]) == 2  # missing --temp


def test_point_convergence_failure_names_the_quantity(capsys, monkeypatch):
    # forcing the series route at x ~ 1e-8, where the pass takes 139 K
    # pairs, exhausts a term cap of 100
    monkeypatch.setattr(specfun, "_MAX_TERMS", 100)
    code, _, err = run(capsys, "point", "--mass", "4.6e-46kg", "--temp", "300",
                       "--x-switch", "1e-9")
    assert code == 3
    assert "number_density" in err


def test_point_where_the_first_bessel_term_overflows_names_the_quantity(capsys):
    # At x = 2.2e-163 the pass's first term, K2(x) ~ 2/x^2, overflows a
    # double and x^2 underflows to 0: a named error, not a traceback.
    code, _, err = run(capsys, "point", "--mass", "1e-200kg", "--temp", "300",
                       "--x-switch", "1e-300")
    assert code == 3
    assert err.startswith("error: number_density: ")
    assert "Traceback" not in err


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


def test_x_sweep_prints_and_routes_by_its_grid_x(capsys, tmp_path):
    # T is solved from each grid x; mc^2/kT recomputed from it would read
    # 0.1 as 9.9999999999999992e-02 and could cross x_switch
    out_file = tmp_path / "sweep.csv"
    args = ["sweep", "--mass", "1eV", "--variable", "x", "--x-min", "0.1",
            "--x-max", "3.99", "--points", "400", "--spacing", "log"]
    assert main(args + ["--out", str(out_file)]) == 0
    rows = [r.split(",") for r in out_file.read_text().strip().split("\n")[1:]]
    assert float(rows[0][2]) == 0.1 and float(rows[-1][2]) == 3.99
    assert main(args + ["--x-switch", "0.1", "--out", str(out_file)]) == 0
    first = out_file.read_text().split("\n")[1].split(",")
    assert first[-1] == "n:series;u:series;v:series;R:series;R_naive:series"


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


def test_failed_sweep_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    # the series route at x ~ 1e-8 needs 139 K pairs; 100 are allowed
    monkeypatch.setattr(specfun, "_MAX_TERMS", 100)
    out_file = tmp_path / "never.csv"
    code, _, _ = run(capsys, "sweep", "--mass", "4.6e-46kg", "--variable",
                     "temperature", "--t-min", "200", "--t-max", "400",
                     "--points", "3", "--x-switch", "1e-9",
                     "--out", str(out_file))
    assert code == 3
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
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_on_defaults(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "RESULT: PASS" in out
    for quantity in ("n_hat", "v_hat", "u_hat", "r_hat"):
        assert quantity in out
    assert "x = 50" in out


def test_validate_with_loose_quadrature_reports_and_exits_cleanly(capsys):
    code, out, _ = run(capsys, "validate", "--quad-tol", "1e-6")
    assert code in (0, 1)
    assert "RESULT:" in out


@pytest.mark.parametrize("quad_tol", ["1e-14", "1e-6"])
def test_validate_compares_both_routes_at_every_grid_x(capsys, monkeypatch, quad_tol):
    closed_at = []
    series = core._series

    def recorded(x, *args):
        closed_at.append(x)
        return series(x, *args)

    monkeypatch.setattr(core, "_series", recorded)
    code, out, err = run(capsys, "validate", "--quad-tol", quad_tol)
    assert code == 0, err
    assert tuple(closed_at) == VALIDATE_GRID
    for quantity in ("n_hat", "v_hat", "u_hat", "r_hat"):
        match = re.search(rf"^{quantity} +max relative residual = (\S+) at x = (\S+)$",
                          out, re.M)
        assert match, quantity
        assert float(match[1]) <= 1e-7 and float(match[2]) in VALIDATE_GRID


def test_validate_work_count(capsys, monkeypatch):
    # K0/K1 pairs taken in one validate, a count that does not depend on the
    # host.  The geometric stop rule alone took 1669, 1395 of them at
    # x = 0.01; the Euler-Maclaurin closure below x = 1 takes 137 there.
    pairs = []
    pairs_at = {}
    k01, series = specfun._k01_scaled, core._series

    def counted(*args, **kwargs):
        pairs.append(args[0])
        return k01(*args, **kwargs)

    def recorded(x, *args):
        before = len(pairs)
        result = series(x, *args)
        pairs_at[x] = len(pairs) - before
        return result

    monkeypatch.setattr(specfun, "_k01_scaled", counted)
    monkeypatch.setattr(core, "_series", recorded)
    code, _, err = run(capsys, "validate")
    assert code == 0, err
    assert tuple(pairs_at) == VALIDATE_GRID
    assert 0 < len(pairs) <= 400
    assert pairs_at[0.01] <= 202


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


def run_subprocess(*argv):
    # A fresh interpreter, so an uncaught exception shows as a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(photongas.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "photongas", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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


def test_point_on_the_quadrature_route_names_the_quantity_that_did_not_converge(
        capsys, monkeypatch):
    # x ~ 0.0039: an exhausted trapezoid ladder is exit 3, the quantity named.
    monkeypatch.setattr(oracle, "_HALVINGS", 1)
    code, out, err = run(capsys, "point", "--mass", "1e-3eV", "--temp", "3000",
                         "--quad-tol", "1e-14")
    assert code == 3 and out == ""
    assert re.match(r"error: (number_density|energy_density|mean_speed|radiance): "
                    r"trapezoid ladder", err)


def test_point_on_the_quadrature_route_at_huge_x_matches_the_series_route(capsys):
    # x ~ 6.5e109 kept on the quadrature route: n, u and R underflow to 0,
    # and the mean speed, a ratio of two e^x-scaled sums, stays finite.
    argv = ("point", "--mass", "1kg", "--temp", "1e-70", "--format", "json")
    code, out, _ = run(capsys, *argv, "--x-switch", "1e300")
    assert code == 0
    quad = json.loads(out)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    series = json.loads(out)
    assert quad["methods"]["v"] == "quadrature" and series["methods"]["v"] == "series"
    assert quad["n_per_m3"] == quad["u_J_per_m3"] == quad["R_W_per_m2"] == 0.0
    assert quad["vbar_m_per_s"] == pytest.approx(series["vbar_m_per_s"], rel=1e-13, abs=0.0)


def test_point_below_the_default_switch_is_quadrature_and_x_switch_restores_series(capsys):
    # x ~ 1 lies in [0.1, x_switch): the trapezoid by default, the Bessel
    # pass with --x-switch 0.1; the five SI cells agree either way.
    argv = ("point", "--mass", "1eV", "--temp", "11604.5", "--format", "csv")
    rows = {}
    for method, extra in (("quadrature", ()), ("series", ("--x-switch", "0.1"))):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        header, row = out.strip().split("\n")
        rows[method] = dict(zip(header.split(","), row.split(",")))
        flags = rows[method]["method_flags"].split(";")
        assert {flag.split(":")[1] for flag in flags} == {method}
    for column in ("n_per_m3", "u_J_per_m3", "vbar_m_per_s", "R_W_per_m2",
                   "R_naive_W_per_m2"):
        assert float(rows["quadrature"][column]) == pytest.approx(
            float(rows["series"][column]), rel=1e-12, abs=0.0), column


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
    args = build_parser().parse_args(argv)
    assert args.series_tol == DEFAULT_NUMERICS.series_tol
    assert args.quad_tol == DEFAULT_NUMERICS.quad_tol
    assert args.x_switch == DEFAULT_NUMERICS.x_switch


@pytest.mark.parametrize("flag, value, name", [
    ("--series-tol", "0", "series_tol"), ("--quad-tol", "1", "quad_tol"),
    ("--x-switch", "0", "x_switch")])
def test_out_of_range_numerics_flag_is_usage_error_naming_the_field(capsys, flag,
                                                                    value, name):
    # Checked when the config is built, so at x = 0, which runs neither
    # route, too.
    code, _, err = run(capsys, "point", "--mass", "0kg", "--temp", "300",
                       flag, value)
    assert code == 2
    assert err.startswith(f"error: {name} must be")


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
