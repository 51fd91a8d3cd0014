"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
Reference values are computed inside the tests from independent expressions:
brute-force sums, quadrature of the defining integrals, trapezoid sums over
the spectrum and over the integral representation of K2, and closed-form
constants, never from the code paths under test.
"""

import math

import pytest

from photongas import (SI, GasParameters, energy_density, evaluate,
                       low_temp_radiance, mean_speed, number_density, radiance,
                       radiance_naive, reduced_functions,
                       spectral_energy_density)
from photongas.cli import main
from photongas import core, oracle
from photongas.core import _occupation
from photongas.specfun import bessel_k2, zeta_value

import spectral_reference

T_REF = 5800.0


def params_for_x(x: float, temperature: float = T_REF) -> GasParameters:
    mass = x * SI.k_B * temperature / (SI.c * SI.c)
    return GasParameters(mass=mass, temperature=temperature)


def report(number: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")


def brute_zeta3() -> float:
    total = 0.0
    for n in range(3_000_000, 0, -1):
        total += 1.0 / n**3
    return total  # integral tail bound: < 6e-14 absolute


def neville_to_zero(xs, ys):
    values = list(ys)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            values[i] = values[i + 1] + (values[i] - values[i + 1]) * (
                0.0 - xs[i + level]) / (xs[i] - xs[i + level])
    return values[0]


def test_criterion_1_massless_limits():
    params = GasParameters(mass=0.0, temperature=T_REF)
    kt = SI.k_B * T_REF
    ref_radiance = math.pi**2 * kt**4 / (60 * SI.hbar**3 * SI.c**2)
    ref_number = 2 * brute_zeta3() / math.pi**2 * (kt / (SI.hbar * SI.c)) ** 3
    ref_energy = math.pi**2 * kt**4 / (15 * SI.hbar**3 * SI.c**3)
    checks = [
        abs(radiance(params) / ref_radiance - 1) <= 1e-12,
        abs(number_density(params) / ref_number - 1) <= 1e-12,
        abs(mean_speed(params) / SI.c - 1) <= 1e-12,
        abs(energy_density(params) / ref_energy - 1) <= 1e-12,
    ]
    report(1, "massless limits to 1e-12", all(checks))
    assert all(checks)


def test_criterion_2_oracle_equivalence(monkeypatch):
    ok = True
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        n_hat, _, v_hat, r_hat = oracle._moments(x)
        series = core._series(x)
        ok &= abs(series[0] / n_hat - 1) <= 1e-7
        ok &= abs(series[2] / v_hat - 1) <= 1e-7
        ok &= abs(series[3] / r_hat - 1) <= 1e-7
    # self-consistency: the oracle's fixed step against half that step, in
    # n_hat, v_hat and r_hat
    small_x = (0.01, 0.05)
    at_step = [oracle._moments(x)[i] for x in small_x for i in (0, 2, 3)]
    monkeypatch.setattr(oracle, "_H", oracle._H / 2)
    monkeypatch.setattr(oracle, "_NODES",
                        oracle._node_table(oracle._START, 2 * len(oracle._NODES) - 1))
    at_half_step = [oracle._moments(x)[i] for x in small_x for i in (0, 2, 3)]
    for coarse, fine in zip(at_step, at_half_step):
        ok &= abs(fine / coarse - 1) <= 1e-8
    report(2, "series vs quadrature <= 1e-7; small-x self-consistency <= 1e-8", ok)
    assert ok


def test_criterion_3_small_mass_coefficient():
    stefan = radiance(GasParameters(mass=0.0, temperature=T_REF))
    xs = [0.01, 0.02, 0.05]
    deficits = [(stefan - radiance(params_for_x(x))) / (stefan * x * x) for x in xs]
    extrapolated = neville_to_zero(xs, deficits)
    target = 2.5 / math.pi**2
    ok = abs(extrapolated / target - 1) <= 0.005
    report(3, f"small-mass deficit -> {target:.7f} within 0.5% "
              f"(got {extrapolated:.7f})", ok)
    assert ok


def test_criterion_4_low_temperature_radiance():
    ok = True
    for x in (30.0, 50.0, 100.0):
        params = params_for_x(x)
        ok &= abs(radiance(params) / low_temp_radiance(params) - 1) <= 4.0 / x
    report(4, "low-temperature radiance within 4/x of the asymptote", ok)
    assert ok


def test_criterion_5_nonrelativistic_mean_speed():
    checks = []
    for x, tolerance in ((200.0, 0.01), (1000.0, 0.002)):
        params = params_for_x(x)
        ideal = math.sqrt(8 * SI.k_B * params.temperature / (math.pi * params.mass))
        checks.append(abs(mean_speed(params) / ideal - 1) <= tolerance)
    report(5, "mean speed -> sqrt(8kT/pi m): 1% at x=200, 0.2% at x=1000",
           all(checks))
    assert all(checks)


def test_criterion_6_naive_radiance_inequality():
    ok = True
    for x in (0.05, 0.5, 2.0, 10.0, 50.0):
        params = params_for_x(x)
        ok &= radiance(params) < 0.25 * SI.c * energy_density(params)
    massless = GasParameters(mass=0.0, temperature=T_REF)
    ok &= abs(radiance(massless) / radiance_naive(massless) - 1) <= 1e-12
    report(6, "R < (c/4) U/V for m > 0, equality at m = 0 to 1e-12", ok)
    assert ok


def test_criterion_7_monotonicity():
    grid = [10 ** (-2 + 4 * i / 49) for i in range(50)]
    kernels = [reduced_functions(x) for x in grid]
    v_values = [k.v_hat for k in kernels]
    r_values = [k.r_hat for k in kernels]
    ok = all(a > b for a, b in zip(v_values, v_values[1:]))
    ok &= all(a > b for a, b in zip(r_values, r_values[1:]))
    report(7, "vbar/c and reduced radiance strictly decreasing over "
              "50-point log grid", ok)
    assert ok


def test_criterion_8_spectral_consistency():
    # the trapezoid in t = ln(hbar (w - w0)/kT) of tests/spectral_reference.py
    ok = True
    for x in (0.0, 0.5, 2.0, 10.0):
        params = params_for_x(x)
        threshold = params.mass * SI.c**2 / SI.hbar
        integral = spectral_reference.spectral_integral(params)
        ok &= abs(integral / energy_density(params) - 1) <= (16 + 2 * x) * 2.0**-53
        if x > 0:
            ok &= spectral_energy_density(threshold, params) == 0.0
            ok &= spectral_energy_density(0.5 * threshold, params) == 0.0
    report(8, "spectral density integrates to U/V within (16 + 2x) 2^-53; "
              "zero at threshold", ok)
    assert ok


def test_criterion_9_special_function_spot_checks():
    # K2(1) = int_0^inf e^-cosh(t) cosh(2t) dt by the trapezoid at h = 1/8,
    # to where cosh t reaches 800 (60 nodes); it converges geometrically in
    # 1/h and equals K2(1) = 1.62483889863517748... to the double
    h = 0.125
    terms = [0.5 * math.exp(-1.0)]
    while math.cosh(len(terms) * h) < 800.0:
        t = len(terms) * h
        terms.append(math.exp(-math.cosh(t)) * math.cosh(2.0 * t))
    k2_ref = h * math.fsum(terms)
    # r_hat at x = 3, inside the Chebyshev tables, against its closed form
    # (3/2 pi^2) (Li4 + x Li3 + (x^2/3) Li2) of w = e^-3, each Li_s by
    # brute-force summation of its power series
    x = 3.0
    w = math.exp(-x)
    li_ref = [0.0, 0.0, 0.0]
    zn = 1.0
    for n in range(1, 200):
        zn *= w
        for s in range(3):
            li_ref[s] += zn / n ** (s + 2)
    r_hat_ref = 1.5 / math.pi**2 * (li_ref[2] + x * li_ref[1] + x * x / 3.0 * li_ref[0])
    zeta3_ref = brute_zeta3()
    checks = [
        abs(bessel_k2(1.0) / k2_ref - 1) <= 1e-10,
        abs(core._series(x)[3] / r_hat_ref - 1) <= 1e-10,
        abs(zeta_value(3) / zeta3_ref - 1) <= 1e-10,
    ]
    report(9, "K2(1), r_hat(3) from Li2, Li3 and Li4 of e^-3, zeta(3) vs "
              "independent oracles to 1e-10", all(checks))
    assert all(checks)


def test_criterion_10_cli_determinism(tmp_path):
    args = ["sweep", "--mass", "1e-3eV", "--variable", "x", "--x-min", "0.05",
            "--x-max", "20", "--points", "5", "--spacing", "log"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    ok = main(args + ["--out", str(first)]) == 0
    ok &= main(args + ["--out", str(second)]) == 0
    ok &= first.read_bytes() == second.read_bytes()
    ok &= main(["validate"]) == 0
    report(10, "sweep is byte-identical across runs; validate exits 0", ok)
    assert ok
