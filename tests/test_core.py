"""Thermodynamic kernels: closed forms against the quadrature oracles, exact
massless limits, asymptotic regimes, and report invariants."""

import contextlib
import copy
import gc
import math
import operator
import os
import pickle
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photongas
from photongas import (SI, ConvergenceError, DomainError, GasParameters,
                       RadiometryReport, cli, core, energy_density, evaluate,
                       mean_speed, number_density, oracle, photon_speed,
                       radiance, radiance_naive, reduce, reduced_functions,
                       spectral_energy_density, specfun, units, zeta_value)
from photongas.core import _si, n_hat_series, v_hat_series

import kernel_reference
import spectral_reference
from mpmath_reference import mpmath_kernels

T_REF = 5800.0
KERNELS = operator.attrgetter("n_hat", "u_hat", "v_hat", "r_hat")


@contextlib.contextmanager
def cpu_time_under(seconds):
    """Assert that the block takes under `seconds` of this thread's CPU time.

    The cyclic collector is held off meanwhile: a collection of the older
    generations can land in any block, and in a process that has run the
    suite it takes up to tens of ms by itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    try:
        yield
    finally:
        elapsed = time.thread_time() - start
        if enabled:
            gc.enable()
        assert elapsed < seconds, f"{elapsed:.3g} s of CPU time"


def params_for_x(x: float, temperature: float = T_REF, g: float = 2.0) -> GasParameters:
    mass = x * SI.k_B * temperature / (SI.c * SI.c)
    return GasParameters(mass=mass, temperature=temperature, degeneracy=g)


def series_kernels(x: float) -> tuple[float, float, float, float]:
    """(n_hat, u_hat, v_hat, r_hat) of reduced_functions(x), for the helpers
    of kernel_reference, which take a route that returns the four kernels."""
    return KERNELS(reduced_functions(x))


def si_prefactor(params: GasParameters, key: str) -> float:
    """The SI value of one unit of kernel key, of "nuvR": c for v, else
    (g/2) (kT)^k (kT/hbar c)^3 c^j as one expression, with (k, j) = (0, 0)
    for n, (1, 0) for u and (1, 1) for R.  Raises OverflowError where the
    cube leaves the double range."""
    if key == "v":
        return SI.c
    k, j = {"n": (0, 0), "u": (1, 0), "R": (1, 1)}[key]
    kt = SI.k_B * params.temperature
    return 0.5 * params.degeneracy * kt**k * (kt / (SI.hbar * SI.c)) ** 3 * SI.c**j


# ---------------------------------------------------------------------------
# photon_speed
# ---------------------------------------------------------------------------

def test_photon_speed_at_rest_energy_is_zero():
    mass = 1e-36
    assert photon_speed(mass * SI.c**2, mass) == 0.0


def test_photon_speed_massless_is_c():
    assert photon_speed(1e-20, 0.0) == SI.c


def test_photon_speed_at_twice_rest_energy():
    mass = 1e-36
    expected = SI.c * math.sqrt(3) / 2
    assert photon_speed(2 * mass * SI.c**2, mass) == pytest.approx(expected, rel=1e-15)


def test_photon_speed_below_mass_shell_raises():
    mass = 1e-36
    with pytest.raises(DomainError):
        photon_speed(0.5 * mass * SI.c**2, mass)


# ---------------------------------------------------------------------------
# number density
# ---------------------------------------------------------------------------

def test_number_density_massless_closed_form():
    params = GasParameters(mass=0.0, temperature=T_REF, degeneracy=2.0)
    expected = 2 * zeta_value(3) / math.pi**2 * (SI.k_B * T_REF / (SI.hbar * SI.c)) ** 3
    assert number_density(params) == pytest.approx(expected, rel=1e-14)


def test_number_density_strong_suppression_at_x_50():
    params = params_for_x(50.0)
    massless = number_density(GasParameters(mass=0.0, temperature=T_REF))
    assert number_density(params) < math.exp(-40.0) * massless


def test_number_density_series_matches_quadrature_at_x_1():
    assert reduced_functions(1.0).n_hat == pytest.approx(oracle._moments(1.0)[0], rel=1e-9)


# ---------------------------------------------------------------------------
# mean speed
# ---------------------------------------------------------------------------

def test_mean_speed_massless_is_exactly_c():
    assert mean_speed(GasParameters(mass=0.0, temperature=4.2)) == SI.c


def test_mean_speed_nonrelativistic_limit():
    params = params_for_x(200.0)
    expected = math.sqrt(8 * SI.k_B * T_REF / (math.pi * params.mass))
    assert mean_speed(params) == pytest.approx(expected, rel=0.01)


def test_mean_speed_series_matches_quadrature_at_x_1():
    assert reduced_functions(1.0).v_hat == pytest.approx(oracle._moments(1.0)[2], rel=1e-9)


def test_mean_speed_is_independent_of_degeneracy():
    a = mean_speed(params_for_x(1.5, g=2.0))
    b = mean_speed(params_for_x(1.5, g=3.0))
    assert a == b


# ---------------------------------------------------------------------------
# spectral energy density
# ---------------------------------------------------------------------------

def test_spectral_density_vanishes_at_and_below_threshold():
    params = params_for_x(2.0)
    threshold = params.mass * SI.c**2 / SI.hbar
    assert spectral_energy_density(threshold, params) == 0.0
    assert spectral_energy_density(0.5 * threshold, params) == 0.0


def test_spectral_density_massless_is_planck():
    params = GasParameters(mass=0.0, temperature=T_REF)
    omega = 2.0 * SI.k_B * T_REF / SI.hbar
    planck = SI.hbar / (math.pi**2 * SI.c**3) * omega**3 / math.expm1(2.0)
    assert spectral_energy_density(omega, params) == pytest.approx(planck, rel=1e-14)


def test_spectral_density_one_line_arithmetic_point():
    # pick (omega, T, m) with hbar omega = 2 m c^2 and beta hbar omega = 1
    params = params_for_x(0.5)
    omega = SI.k_B * T_REF / SI.hbar
    expected = (SI.hbar / (math.pi**2 * SI.c**3) * omega**3 / (math.e - 1.0)
                * math.sqrt(3) / 2)
    assert spectral_energy_density(omega, params) == pytest.approx(expected, rel=1e-12)


def test_spectral_density_is_zero_where_k_b_t_underflows():
    params = GasParameters(mass=0.0, temperature=5e-324)
    assert spectral_energy_density(1e3, params) == 0.0


def test_spectral_density_is_zero_where_the_mode_is_empty():
    # omega^3 alone overflows a double here, but the occupation is 0.
    assert spectral_energy_density(1e103, GasParameters(mass=0.0, temperature=300.0)) == 0.0


def test_spectral_density_past_omega_cubed_overflow_is_the_product():
    # omega^3 overflows, the product does not: it is the Planck law, whose
    # occupation e^-76.0 is far from 0.
    params = GasParameters(mass=0.0, temperature=1e90)
    omega = 1e103
    y = SI.hbar * omega / (SI.k_B * params.temperature)
    expected = math.exp(3 * math.log(omega) - y) * SI.hbar / (math.pi**2 * SI.c**3)
    assert spectral_energy_density(omega, params) == pytest.approx(expected, rel=1e-12)


def test_spectral_density_overflow_is_domain_error_naming_it():
    params = GasParameters(mass=0.0, temperature=1e300)
    with pytest.raises(DomainError, match="^spectral_energy_density overflows"):
        spectral_energy_density(1e300, params)


@pytest.mark.parametrize("omega", [1e-10, 1e-20, 1e-6])
def test_spectral_density_in_the_rayleigh_jeans_corner_is_omega_squared_kt(omega):
    # At T = 1e300 K, y = hbar omega/kT is a subnormal 7.6e-318 at
    # omega = 1e-6 and 7.7e-322 at 1e-10, where 1/y overflows, and 0 at
    # 1e-20, where it divides by 0.  The value is omega^2 kT/(pi^2 c^3),
    # about 5.19e230 at omega = 1e-10.
    params = GasParameters(mass=0.0, temperature=1e300)
    expected = omega * omega * (SI.k_B * params.temperature) / (math.pi**2 * SI.c**3)
    assert spectral_energy_density(omega, params) == pytest.approx(expected, rel=1e-15)


def test_spectral_density_in_the_rayleigh_jeans_corner_underflows_to_0():
    # omega^2 kT/(pi^2 c^3) is about 5e-350 at omega = 1e-300, T = 1e300 K.
    assert spectral_energy_density(1e-300, GasParameters(mass=0.0, temperature=1e300)) == 0.0


def test_spectral_density_rejects_negative_frequency():
    with pytest.raises(DomainError):
        spectral_energy_density(-1.0, GasParameters(mass=0.0, temperature=300.0))


# ---------------------------------------------------------------------------
# energy density
# ---------------------------------------------------------------------------

def test_energy_density_massless_closed_form():
    params = GasParameters(mass=0.0, temperature=T_REF)
    kt = SI.k_B * T_REF
    expected = math.pi**2 * kt**4 / (15 * SI.hbar**3 * SI.c**3)
    assert energy_density(params) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x", [0.05, 0.5, 3.0, 30.0])
def test_energy_per_photon_is_at_least_rest_energy(x):
    params = params_for_x(x)
    u = energy_density(params)
    n = number_density(params)
    assert u / n >= params.mass * SI.c**2


def test_energy_series_matches_quadrature_at_x_2():
    u_hat = reduced_functions(2.0).u_hat
    assert u_hat == pytest.approx(oracle._moments(2.0)[1], rel=1e-9)


# ---------------------------------------------------------------------------
# radiance
# ---------------------------------------------------------------------------

def test_radiance_massless_is_stefan_boltzmann():
    params = GasParameters(mass=0.0, temperature=T_REF)
    kt = SI.k_B * T_REF
    expected = math.pi**2 * kt**4 / (60 * SI.hbar**3 * SI.c**2)
    assert radiance(params) == pytest.approx(expected, rel=1e-14)


def test_radiance_closed_form_matches_quadrature_at_x_1():
    assert reduced_functions(1.0).r_hat == pytest.approx(oracle._moments(1.0)[3], rel=1e-9)


def test_radiance_low_temperature_behavior_at_x_50():
    assert abs(reduced_functions(50.0).r_hat / core._low_temp_r_hat(50.0) - 1.0) <= 4.0 / 50.0


def test_naive_radiance_equals_radiance_for_massless():
    params = GasParameters(mass=0.0, temperature=T_REF)
    assert radiance(params) == pytest.approx(radiance_naive(params), rel=1e-12)


@pytest.mark.parametrize("x", [0.05, 0.5, 2.0, 10.0, 50.0])
def test_naive_radiance_strictly_exceeds_radiance_for_massive(x):
    params = params_for_x(x)
    assert radiance(params) < radiance_naive(params)


def test_radiance_ratio_golden_value_at_x_5():
    # both sides independently via the quadrature oracles, plus a frozen value
    _, u_hat, _, r_hat = oracle._moments(5.0)
    ratio_oracle = r_hat / (0.25 * u_hat)
    assert ratio_oracle == pytest.approx(0.6408997120589307, rel=1e-9)
    params = params_for_x(5.0)
    assert radiance(params) / radiance_naive(params) == pytest.approx(
        ratio_oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# asymptotic formulas, in reduced form: r_hat's small-mass and low-temperature
# laws and v_hat's nonrelativistic one, each a function of x alone
# ---------------------------------------------------------------------------

def test_small_mass_radiance_at_zero_is_stefan_boltzmann():
    assert core._small_x_r_hat(0.0) == reduced_functions(0.0).r_hat == core._R_HAT_MAX
    assert core._small_x_r_hat(0.0) == pytest.approx(math.pi**2 / 60, rel=1e-14)


def test_small_mass_coefficient_value():
    assert 2.5 / math.pi**2 == pytest.approx(0.253303, abs=1e-6)


def test_small_mass_radiance_agrees_with_full_form_at_x_005():
    assert core._small_x_r_hat(0.05) == pytest.approx(reduced_functions(0.05).r_hat, rel=1e-4)


def test_small_mass_radiance_next_orders():
    # r_hat = (3/2 pi^2) [zeta(4) - zeta(2) x^2/6 + x^3/9 - x^4/48 + O(x^5)],
    # so (1 - r_hat/(pi^2/60))/x^2 = 5/(2 pi^2) - (10/pi^4) x
    # + x^2/(48 zeta(4)) + O(x^3): the orders after the small-mass law's.
    x = 1e-3
    deficit = (1.0 - reduced_functions(x).r_hat / (math.pi**2 / 60)) / (x * x)
    expected = 2.5 / math.pi**2 - 10.0 / math.pi**4 * x + x * x / (48 * zeta_value(4))
    assert deficit == pytest.approx(expected, rel=1e-8)


def test_low_temp_radiance_expansion_ratio():
    ratio = reduced_functions(100.0).r_hat / core._low_temp_r_hat(100.0)
    # the bracket expands to 1 + 3/x + 3/x^2 + exponentially small terms
    assert ratio - (1.0 + 3.0 / 100.0) == pytest.approx(3.0 / 100.0**2, abs=1e-4)


def test_low_temp_radiance_within_bound_at_x_30():
    assert abs(reduced_functions(30.0).r_hat / core._low_temp_r_hat(30.0) - 1.0) <= 4.0 / 30.0


def test_low_temp_mean_speed_boundary_is_c():
    # sqrt(8/pi x) is 1 where the nonrelativistic regime starts, x = 8/pi
    assert core._nonrel_v_hat(core._NONREL_MIN_X) == pytest.approx(1.0, rel=1e-12)


def test_low_temp_mean_speed_matches_full_form_at_x_200():
    assert core._nonrel_v_hat(200.0) == pytest.approx(reduced_functions(200.0).v_hat, rel=0.01)


def test_low_temp_mean_speed_scales_with_sqrt_temperature():
    # halving T doubles x and scales sqrt(8kT/pi m) by 1/sqrt(2)
    assert core._nonrel_v_hat(200.0) == pytest.approx(
        core._nonrel_v_hat(100.0) / math.sqrt(2), rel=1e-14)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_joint_mass_temperature_scaling(lam):
    base = evaluate(params_for_x(0.7, temperature=300.0))
    scaled_params = GasParameters(mass=base.params.mass * lam,
                                  temperature=300.0 * lam)
    scaled = evaluate(scaled_params)
    assert scaled.number_density == pytest.approx(
        base.number_density * lam**3, rel=1e-10)
    assert scaled.energy_density == pytest.approx(
        base.energy_density * lam**4, rel=1e-10)
    assert scaled.radiance == pytest.approx(base.radiance * lam**4, rel=1e-10)
    assert scaled.mean_speed == pytest.approx(base.mean_speed, rel=1e-10)


def test_method_tags_follow_the_regime_switch():
    # The series route switches from the expansions to the tables at x = 2
    # and to one K pair at x = 40; the tag is "series" on either side of
    # each switch, and at the massless limit.
    edges = (specfun._EXPAND_BELOW, specfun._ONE_TERM_FROM)
    for x in (0.05, 0.5, *(math.nextafter(edge, 0.0) for edge in edges), *edges, 100.0):
        assert evaluate(params_for_x(x)).methods == dict.fromkeys(
            ("n", "u", "v", "R", "R_naive"), "series"), x
        assert reduced_functions(x).method == "series", x
    massless = evaluate(GasParameters(mass=0.0, temperature=300.0))
    assert set(massless.methods.values()) == {"series"}
    # one tag per evaluation; methods spells it out and cannot be set
    assert massless.method == "series"
    with pytest.raises(AttributeError):
        massless.methods = {}


@pytest.mark.parametrize("x", [0.1, 0.2, 0.4, 0.7, 1.0])
def test_series_and_quadrature_paths_agree_in_the_overlap(x):
    n_hat, _, v_hat, _ = oracle._moments(x)
    assert reduced_functions(x).n_hat == pytest.approx(n_hat, rel=1e-8)
    assert reduced_functions(x).v_hat == pytest.approx(v_hat, rel=1e-8)


def test_mean_speed_strictly_decreasing_on_log_grid():
    grid = [10 ** (-2 + 4 * i / 49) for i in range(50)]
    values = [reduced_functions(x).v_hat for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_radiance_kernel_strictly_decreasing_on_log_grid():
    grid = [10 ** (-2 + 4 * i / 49) for i in range(50)]
    values = [reduced_functions(x).r_hat for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] < math.pi**2 / 60


def assert_spectral_identity(states, quantity, speed):
    # The trapezoid over the spectrum of tests/spectral_reference.py against
    # the SI quantity, within (16 + 2x) 2^-53 at every state; prints the worst.
    worst = (0.0, None)
    for params in states:
        err = abs(spectral_reference.spectral_integral(params, speed) / quantity(params) - 1)
        worst = max(worst, (err / spectral_reference.bound(params), params), key=lambda e: e[0])
    print(f"worst {worst[0]:.3f} of the bound, at {worst[1]}")
    assert worst[0] <= 1.0, worst


def test_spectral_density_integrates_to_energy_density():
    # U/V = int u_w dw at 396 states: 22 x over [0, 300] with every band and
    # piece edge and the double below each, 6 temperatures, 3 degeneracies.
    assert_spectral_identity(spectral_reference.STATES, energy_density, speed=False)


def test_speed_weighted_spectrum_integrates_to_radiance():
    # The paper's step, mode by mode: R = int (1/4) u_w v(w) dw, with v(w)
    # the speed of one photon of energy hbar w, at the 132 states with g = 2.
    assert_spectral_identity(spectral_reference.STATES[1::3], radiance, speed=True)


@settings(max_examples=20, deadline=None)
@given(x=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e4)),
       temperature=st.floats(min_value=0.1, max_value=1e5),
       g=st.floats(min_value=0.5, max_value=3.0))
def test_report_invariants_hold_everywhere(x, temperature, g):
    params = params_for_x(x, temperature=temperature, g=g)
    report = evaluate(params)  # the report's constructor checks its own invariants
    assert report.mean_speed <= SI.c
    assert report.radiance <= report.radiance_naive * (1 + 1e-9)
    assert set(report.methods.values()) == {"series"}
    reduced = reduced_functions(x)
    assert reduced.v_hat <= 1.0
    assert reduced.r_hat <= math.pi**2 / 60 * (1 + 1e-9)


QUANTITIES = ("number_density", "energy_density", "mean_speed", "radiance")
# Each SI function, with the names its refusals may start with: its own, or
# that of the quantity whose prefactor refuses it.
SI_FUNCTIONS = (
    (number_density, ("number_density",)), (energy_density, ("energy_density",)),
    (mean_speed, ("mean_speed",)), (radiance, ("radiance",)),
    (radiance_naive, ("radiance_naive", "energy_density")))


@settings(max_examples=200, deadline=None)
@given(log_mass=st.floats(min_value=-300.0, max_value=300.0),
       log_temperature=st.floats(min_value=-300.0, max_value=300.0))
@example(log_mass=math.log10(2e-32), log_temperature=-300.0)  # x ~ 1.2e308
@example(log_mass=0.0, log_temperature=-140.0)  # x^2 overflows and R_SB underflows
@example(log_mass=45.0, log_temperature=-70.0)  # x^2 overflows
@example(log_mass=-36.0, log_temperature=80.0)  # (c/4) U/V overflows, U does not
@example(log_mass=39.3168, log_temperature=78.6532)  # x ~ 3: R_SB x^2 e^(-x/2) overflows
def test_evaluate_over_the_whole_double_range_reports_or_names_the_error(
        log_mass, log_temperature):
    # Every (m, T) a double can hold ends in a report or in one of the two
    # documented errors, never in another exception.  When x = mc^2/kT is a
    # finite double, a DomainError names the quantity it is about, and each
    # SI function returns a finite float or refuses by its own name or its
    # quantity's; an x beyond the double range is refused by reduce.
    params = GasParameters(mass=10.0**log_mass, temperature=10.0**log_temperature)
    try:
        reduce(params)
    except DomainError as exc:
        assert str(exc).startswith("x = mc^2/kT overflows a double at m="), exc
        return
    for function, names in SI_FUNCTIONS:
        try:
            value = function(params)
        except DomainError as exc:
            assert str(exc).startswith(names), (function.__name__, exc)
        else:
            assert type(value) is float and math.isfinite(value), (function.__name__, value)
    try:
        report = evaluate(params)
    except DomainError as exc:
        assert str(exc).startswith(QUANTITIES), exc
        return
    except ConvergenceError:
        return
    assert report.mean_speed <= SI.c
    assert set(report.methods.values()) == {"series"}


# The series route against the committed table (tests/kernel_reference.py),
# all four kernels to 1e-15 at every x of a grid; its "series" grid is 1130 x
# over [1e-8, 1e3], with every band and piece edge and the double below it.

def test_series_route_matches_the_table():
    kernel_reference.assert_matches(series_kernels, kernel_reference.xs("series"))


def test_series_route_reaches_small_x():
    kernel_reference.assert_matches(series_kernels, kernel_reference.xs("small_x"))


# Per band and kernel, the worst error of the series route over every row of
# the table, in ulps of the reference rounded to a double, subnormal
# references skipped, may not exceed its ceiling: the error at 0.17.2, the
# same under Python 3.10 to 3.13 on x86_64 glibc, rounded up to the next 0.5
# ulp.  A change that lowers an error lowers its ceiling; one that raises it
# says why.
ULP_CEILINGS = {  # band: ceilings n, u, v, r, beside the worst errors at 0.17.2
    "expansions": dict(n=3.0, u=1.5, v=4.0, r=2.0),  # x < 2: 2.74 1.38 3.54 1.99
    "tables": dict(n=3.5, u=3.5, v=2.0, r=3.0),  # [2, 40): 3.25 3.36 1.59 2.73
    "one term": dict(n=4.5, u=3.5, v=3.0, r=2.5),  # x >= 40: 4.49 3.02 2.66 2.43
}


def test_series_route_stays_under_its_ulp_ceilings():
    worst = {band: dict.fromkeys("nuvr", 0.0) for band in ULP_CEILINGS}
    for x, row in kernel_reference.load().items():
        band = worst["expansions" if x < 2.0 else "tables" if x < 40.0 else "one term"]
        for key, value, reference in zip("nuvr", series_kernels(x), row[:4]):
            if reference >= kernel_reference.DBL_MIN:
                band[key] = max(band[key], kernel_reference.ulp_err(value, reference))
    over = {(band, key): (err, ULP_CEILINGS[band][key])
            for band, errors in worst.items() for key, err in errors.items()
            if not err <= ULP_CEILINGS[band][key]}
    assert not over, over


test_default_route_matches_mpmath = kernel_reference.row_test("reference", series_kernels)
test_energy_density_series_route_matches_mpmath = kernel_reference.row_test("energy", series_kernels)
test_mean_speed_series_route_matches_mpmath = kernel_reference.row_test("mean_speed", series_kernels)
test_bessel_pass_matches_mpmath = kernel_reference.row_test("bessel", series_kernels)
test_series_route_from_one_to_four_matches_mpmath = kernel_reference.row_test("one_to_four", series_kernels)
# the oracle's trapezoid pass, at its fixed step
test_quadrature_route_matches_mpmath = kernel_reference.row_test("quadrature", oracle._moments)


def test_mpmath_quadrature_reference_matches_polylog_radiance():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        x = mp.mpf(0.0165)
        w = mp.exp(-x)
        closed = 3 / (2 * mp.pi**2) * (mp.polylog(4, w) + x * mp.polylog(3, w)
                                       + x * x / 3 * mp.polylog(2, w))
        assert abs(mpmath_kernels(mp, x)[3] / closed - 1) < mp.mpf(10)**-25


def test_kernels_are_continuous_where_the_expansions_end():
    # x = 2 is the top of the expansions' band and the bottom of the
    # tables'; the trapezoid at 2 is an independent comparator.
    edge = specfun._EXPAND_BELOW
    below = reduced_functions(math.nextafter(edge, 0.0))
    above = reduced_functions(edge)
    expected = {"tables": (above.n_hat, above.u_hat, above.v_hat, above.r_hat),
                "quadrature": oracle._moments(edge)}
    for route, values in expected.items():
        for kernel, value in zip("nuvr", values):
            assert getattr(below, kernel + "_hat") == pytest.approx(
                value, rel=2e-15, abs=0.0), (route, kernel)


@pytest.mark.parametrize("edge", kernel_reference.EDGES)
def test_kernels_jump_by_at_most_2e15_at_the_band_and_piece_edges(edge):
    # The expansions end at 2, the tables' pieces at 4, 8, 16 and 40, where
    # the one-term form begins.  Each edge against the double just below
    # it, net of the kernels' own change over that step, which the table
    # gives: at 40 the step is 7.1e-15 and n_hat falls by 6.8e-15 of itself.
    left = math.nextafter(edge, 0.0)
    below, above = reduced_functions(left), reduced_functions(edge)
    assert below.method == above.method == "series"
    rows = kernel_reference.load()
    for kernel in "nuvr":
        change = getattr(rows[left], kernel) / getattr(rows[edge], kernel)
        ratio = Decimal(getattr(below, kernel + "_hat")) / Decimal(getattr(above, kernel + "_hat"))
        assert abs(ratio / change - 1) <= Decimal("2e-15"), kernel


@given(st.floats(min_value=5e-324, max_value=2.0, exclude_max=True))
def test_mean_speed_below_the_trapezoid_band_never_exceeds_one(x):
    assert reduced_functions(x).v_hat <= 1.0


@pytest.mark.parametrize("x", [5e-324, 1e-300, 2.2e-163, 2e-48, 1e-47])
@pytest.mark.parametrize("temperature", [4.0, 5e-324])
def test_states_at_tiny_x_report_the_massless_limits(x, temperature):
    # Where the Bessel pass raised (x below about 1.2e-48) or took up to
    # 11770 K pairs, the expansions give the massless limits at once.  The
    # report at the grid x, as an x sweep builds it, is then the massless
    # report, at 4 K and at a temperature whose k_B T underflows to 0.
    with cpu_time_under(1e-3):
        reduced = reduced_functions(x)
    assert reduced.method == "series"
    limits = (2.0 * zeta_value(3) / math.pi**2, math.pi**2 / 15, 1.0, math.pi**2 / 60)
    for kernel, limit in zip("nuvr", limits):
        assert getattr(reduced, kernel + "_hat") == pytest.approx(limit, rel=1e-15, abs=0.0)
    params = params_for_x(x, temperature)
    report = RadiometryReport(params, x, *_si(params, x, "unR"))
    massless = evaluate(GasParameters(mass=0.0, temperature=temperature))
    for field in ("number_density", "energy_density", "mean_speed", "radiance",
                  "radiance_naive"):
        assert getattr(report, field) == pytest.approx(
            getattr(massless, field), rel=1e-15, abs=0.0), field


def counted_passes(monkeypatch) -> list[str]:
    """The names of the passes called from now on, in call order."""
    calls = []

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((specfun, "_expansions"), (specfun, "_sum_chebyshev"),
                         (specfun, "_one_term"), (oracle, "_moments")):
        counted(module, name)
    return calls


def test_radiance_alone_below_two_takes_one_expansions_call(monkeypatch):
    # Below x = 2 one call of the expansions yields every kernel, and the
    # radiance alone needs nothing else.
    calls = counted_passes(monkeypatch)
    radiance(params_for_x(0.5))
    assert calls == ["_expansions"]


def test_radiance_alone_from_two_takes_one_table_pass(monkeypatch):
    # Anywhere on [2, 40) R needs no trapezoid pass: its polylog
    # combination is the fourth column of the one loop over the tables.
    calls = counted_passes(monkeypatch)
    grid = (2.0, 2.5, math.nextafter(4.0, 0.0), 4.0, 5.0, 10.0, 25.0,
            math.nextafter(40.0, 0.0))
    for x in grid:
        radiance(params_for_x(x))
    assert calls == ["_sum_chebyshev"] * len(grid)


@pytest.mark.parametrize("x", [2.0, 3.0, 39.5, 40.0, 1e3, 1e300])
def test_from_two_each_reduced_functions_or_si_call_is_one_pass(monkeypatch, x):
    # One band pass per reduced_functions call and per SI wrapper: from 2 on
    # all four kernels come from one pass per x, one table loop up to 40
    # and one K pair from there on.
    calls = counted_passes(monkeypatch)
    sums = "_sum_chebyshev" if x < 40.0 else "_one_term"
    reduced_functions(x)
    assert calls == [sums]
    del calls[:]
    params = params_for_x(x)
    for wrapper in (number_density, energy_density, mean_speed, radiance):
        wrapper(params)
    assert calls == [sums] * 4


@pytest.mark.parametrize("x", [5e-324, 1e-8, 0.5, 1.0, math.nextafter(2.0, 0.0)])
def test_below_two_each_reduced_functions_or_si_call_is_one_pass(monkeypatch, x):
    # One band pass per reduced_functions call and per SI wrapper: below 2
    # all four kernels come from one call of the expansions.
    calls = counted_passes(monkeypatch)
    values = KERNELS(reduced_functions(x))
    assert calls == ["_expansions"]
    assert all(v > 0.0 for v in values)
    del calls[:]
    params = params_for_x(x)
    for wrapper in (number_density, energy_density, mean_speed, radiance):
        wrapper(params)
    # at x = 5e-324 the params' own x is 0, the massless limit, which takes
    # no pass
    assert calls == ["_expansions"] * (4 if reduce(params) > 0.0 else 0)


@pytest.mark.parametrize("x", [0.0, 0.01, 0.5, 40.0])
def test_si_values_are_reduced_kernels_times_one_prefactor(x):
    params = params_for_x(x)
    report = evaluate(params)
    reduced = reduced_functions(reduce(params))
    for key, kernel, quantity, wrapper in (
            ("n", "n_hat", "number_density", number_density),
            ("u", "u_hat", "energy_density", energy_density),
            ("v", "v_hat", "mean_speed", mean_speed),
            ("R", "r_hat", "radiance", radiance)):
        expected = getattr(reduced, kernel) * si_prefactor(params, key)
        assert getattr(report, quantity) == expected
        assert wrapper(params) == expected
    assert report.radiance_naive == 0.25 * SI.c * report.energy_density


def test_result_types_hold_only_what_can_vary():
    # The method tag and R_naive are no fields: neither constructor takes
    # them and neither can be set, both types read the tag "series", and
    # R_naive is (c/4) U/V of the report's own U, bit for bit.  reduce
    # returns the float x that evaluate reports.
    assert RadiometryReport._fields == (
        "params", "x", "number_density", "energy_density", "mean_speed", "radiance")
    assert core.ReducedFunctions._fields == ("x", "n_hat", "u_hat", "v_hat", "r_hat")
    for x in (0.0, 1e-3, 2.0, 10.0, 40.0, 1e3, 1e17):
        params = params_for_x(x)
        report, reduced = evaluate(params), reduced_functions(x)
        assert type(reduce(params)) is float and reduce(params) == report.x
        assert report.method == reduced.method == "series"
        assert report.radiance_naive.hex() == (0.25 * SI.c * report.energy_density).hex()
        for result in (report, reduced):
            fields = {name: getattr(result, name) for name in type(result)._fields}
            for name, value in (("method", "series"), ("radiance_naive", 1.0)):
                with pytest.raises(TypeError):
                    type(result)(**fields, **{name: value})
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(result, name, value)


@pytest.mark.parametrize("x", [0.0, 1e-3, math.nextafter(2.0, 0.0), 2.0, 10.0, 40.0,
                               1e3, 1e17])
def test_report_is_the_one_the_public_constructor_builds(x):
    # At an x in every band, for evaluate and for the report an x sweep
    # builds from _si at its grid x, the result is the report that
    # RadiometryReport(**fields) builds, its __dict__ holds the fields in
    # order, and it stays frozen.  It is no tuple of its fields, and a
    # pickle or copy of it keeps ==, hash and repr.
    params = params_for_x(x)
    for report in (evaluate(params), RadiometryReport(params, x, *_si(params, x, "unR"))):
        fields = {name: getattr(report, name) for name in RadiometryReport._fields}
        public = RadiometryReport(**fields)
        assert type(report) is RadiometryReport
        assert report == public and hash(report) == hash(public)
        assert repr(report) == repr(public)
        assert list(vars(report).items()) == list(vars(public).items()) == list(fields.items())
        assert report != tuple(fields.values())
        for name in fields:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(report, name, 0.0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(report, name)
        for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
            assert twin == report and hash(twin) == hash(report) and repr(twin) == repr(report)
        assert report == public


@pytest.mark.parametrize("x", [0.0, 1e-3, 2.0, 40.0, 1e17])
def test_report_keeps_only_its_fields_and_derives_r_naive(x):
    # R_naive is a read-only property over the report's own U/V, not kept
    # beside the fields: the report holds its fields alone, with no slot
    # and no pickling of its own, so every pickle protocol, copy and deep
    # copy goes by the default one and keeps ==, hash, repr, vars() and
    # the bits of R_naive.
    report = evaluate(params_for_x(x))
    assert "__slots__" not in vars(RadiometryReport) and "__reduce__" not in vars(RadiometryReport)
    assert not hasattr(core, "_set_naive")
    assert isinstance(vars(RadiometryReport)["radiance_naive"], property)
    assert list(vars(report)) == list(RadiometryReport._fields)
    with pytest.raises(AttributeError, match="^cannot assign to field 'radiance_naive'$"):
        report.radiance_naive = 1.0
    with pytest.raises(AttributeError, match="^cannot delete field 'radiance_naive'$"):
        del report.radiance_naive
    naive = report.radiance_naive.hex()
    twins = [pickle.loads(pickle.dumps(report, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*twins, copy.copy(report), copy.deepcopy(report)):
        assert type(twin) is RadiometryReport and twin == report and hash(twin) == hash(report)
        assert repr(twin) == repr(report) and vars(twin) == vars(report)
        assert twin.radiance_naive.hex() == naive


@pytest.mark.parametrize("mass, temperature, g, message", [
    (1e-36, 1e81, 2.0, "energy_density: SI prefactor overflows at T=1e+81 K, g=2.0"),
    (1e-36, 300.0, 1e300, "number_density: SI prefactor overflows at T=300.0 K, g=1e+300"),
    (1e-36, 1e79, 2.0, "radiance: SI prefactor overflows at T=1e+79 K, g=2.0"),
    (1e-36, 1e300, 5e-324, "energy_density: SI prefactor overflows at T=1e+300 K, g=5e-324"),
    (1.0, 1e-300, 2.0, "x = mc^2/kT overflows a double at m=1.0 kg, T=1e-300 K"),
    (1e-36, 5e-324, 2.0, "x = mc^2/kT overflows a double at m=1e-36 kg, T=5e-324 K")])
def test_evaluate_refuses_with_the_messages_it_always_gave(mass, temperature, g, message):
    # The whole message, for each prefactor that overflows first (at
    # g = 5e-324, g/2 is 0 and the prefactors are nan) and for an x that
    # overflows, whose message names x, m and T since 0.16.0.
    with pytest.raises(DomainError) as excinfo:
        evaluate(GasParameters(mass=mass, temperature=temperature, degeneracy=g))
    assert str(excinfo.value) == message


def test_convergence_failure_names_the_quantity(monkeypatch):
    # At x ~ 3.1 the radiance changes by 8.4e-14 from the trapezoid sum at
    # step 2h to the one at h, the most of the four, above a check lowered
    # to 1e-14.
    x = 3.0945381657466884
    converged = oracle._moments(x)[3]
    monkeypatch.setattr(oracle, "_MAX_CHANGE", 1e-14)
    with pytest.raises(ConvergenceError) as excinfo:
        oracle._moments(x)
    assert str(excinfo.value).startswith("radiance")
    # r_hat at step h, not a scaled moment: the value a passing check
    # returns, with its distance from r_hat at step 2h.
    assert excinfo.value.value == converged
    assert 0.0 < excinfo.value.error <= 1e-13 * converged


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("bound", [4.0, 1e-5])
def test_an_x_that_is_not_a_finite_number_at_least_0_is_refused_at_once(capsys, x, bound):
    # The series route checks x before any work: a nan x would fall
    # through every band edge.  So does the trapezoid oracle.  The report
    # an x sweep builds takes its grid x unchecked: _grid refuses such an
    # x as either end of the sweep, whatever band the other end lies in.
    with pytest.raises(DomainError, match=r"^reduced x must be finite and >= 0"):
        with cpu_time_under(1e-3):
            reduced_functions(x)
    for function in (n_hat_series, v_hat_series, oracle._moments):
        with pytest.raises(DomainError, match=r"^reduced x must be finite and >= 0"):
            function(x)
    for ends in ((x, bound), (bound, x)):
        code = cli.main(["sweep", "--mass", "1eV", *(f"--x-{end}={value!r}" for end, value
                                                     in zip(("min", "max"), ends))])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith("error: sweep "), (ends, err)


def test_series_views_take_the_massless_limits_at_zero():
    assert n_hat_series(0.0) == 2.0 * zeta_value(3) / math.pi**2
    assert v_hat_series(0.0) == 1.0


@pytest.mark.parametrize("x", [6e17, 1e18, 1e20, 1e100, 1e155, 1e300])
def test_evaluate_underflows_to_exact_zero_far_below_threshold(x):
    # The thermal tail above the mass threshold is e^-x: every density
    # underflows to an exact 0, while the mean speed stays a finite ratio.
    report = evaluate(params_for_x(x))
    assert report.number_density == 0.0
    assert report.energy_density == 0.0
    assert report.radiance == 0.0
    assert 0.0 < report.mean_speed / SI.c < 1.0


@pytest.mark.parametrize("temperature, wrapper", [
    (1e100, energy_density), (1e100, radiance),
    (1e300, number_density), (1e300, energy_density), (1e300, radiance)])
def test_si_prefactor_out_of_double_range_is_a_named_domain_error(temperature, wrapper):
    # (kT/hbar c)^3 kT^k overflows a double; the quantity must say so by name
    # instead of returning inf or raising OverflowError.
    params = GasParameters(mass=1e-40, temperature=temperature)
    with pytest.raises(DomainError) as excinfo:
        wrapper(params)
    assert str(excinfo.value).startswith(wrapper.__name__)
    with pytest.raises(DomainError):
        evaluate(params)


@pytest.mark.xfail(strict=True, raises=DomainError,
                   reason="u_hat underflows before r_hat does, so R_naive "
                          "rounds below R in the subnormal band")
def test_subnormal_band_reports_radiance_below_naive():
    report = evaluate(params_for_x(725.0, temperature=1.0, g=1.0))
    assert report.radiance <= report.radiance_naive


@pytest.mark.xfail(strict=True,
                   reason="the reduced e^-x underflows before the ~1e98 "
                          "prefactor is applied")
def test_number_density_survives_a_huge_prefactor():
    # The true N/V at x = 800, T = 1e30 K is about 8.8e-247 m^-3.
    assert evaluate(params_for_x(800.0, temperature=1e30)).number_density > 0.0


def test_si_prefactor_overflow_names_the_degeneracy():
    # At T = 300 K only g = 1e300 pushes the prefactor past the double range.
    with pytest.raises(DomainError, match=r"T=300\.0 K, g=1e\+300"):
        number_density(GasParameters(mass=1e-36, temperature=300.0, degeneracy=1e300))


def test_si_prefactor_just_inside_double_range_stays_finite():
    # At T = 1e100 K the number-density prefactor is 8.3e307, still a double.
    value = number_density(GasParameters(mass=1e-40, temperature=1e100))
    assert math.isfinite(value) and value > 1e307


@pytest.mark.parametrize("g", [5e-324, 1.0, 2.0, 3.0, 1e200, 1e300])
def test_si_prefactors_are_the_one_prefactor_expression_bit_for_bit(g, monkeypatch):
    # Each SI prefactor is si_prefactor's one expression, bit for bit: with
    # the kernels 1, 1, 1 and 1/8, which _check_kernels accepts, _si returns
    # the prefactors themselves, R's times 1/8.
    # Asked for one quantity, _si refuses it, by name, where its prefactor is
    # out of the double range, and scales the massless kernel by it elsewhere.
    names = {"n": "number_density", "u": "energy_density", "v": "mean_speed", "R": "radiance"}
    unit = (1.0, 1.0, 1.0, 0.125)
    for i in range(400):
        temperature = 10.0 ** (-300 + 401 * i / 399)
        params = GasParameters(mass=0.0, temperature=temperature, degeneracy=g)
        expected = {}
        for key in "nuvR":
            try:
                expected[key] = si_prefactor(params, key)
            except OverflowError:
                expected[key] = math.inf
        with monkeypatch.context() as patched:
            patched.setattr(core, "_bands", lambda x: unit)
            if all(map(math.isfinite, expected.values())):
                assert _si(params, 0.0, "nuvR") == tuple(
                    expected[k] * scale for k, scale in zip("nuvR", unit)), temperature
            for slot, (key, value) in enumerate(expected.items()):
                if math.isfinite(value):
                    assert _si(params, 0.0, key)[slot] == value * unit[slot], (key, temperature)
        for slot, (key, value) in enumerate(expected.items()):
            if math.isfinite(value):
                assert _si(params, 0.0, key)[slot] == core._MASSLESS[slot] * value, key
            else:
                with pytest.raises(DomainError, match=rf"^{names[key]}: SI "):
                    _si(params, 0.0, key)


@pytest.mark.parametrize("temperature, g, quantity", [
    (300.0, 1e300, "number_density"), (1e79, 2.0, "radiance"),
    (1e81, 2.0, "energy_density")])
def test_evaluate_names_the_first_prefactor_that_overflows(temperature, g, quantity):
    # The report checks the prefactors in the order u, n, R, each on its own:
    # at 300 K only n's overflows, at 1e79 K only R's, at 1e81 K u's and R's.
    params = GasParameters(mass=1e-36, temperature=temperature, degeneracy=g)
    with pytest.raises(DomainError) as excinfo:
        evaluate(params)
    assert str(excinfo.value) == (f"{quantity}: SI prefactor overflows at "
                                  f"T={temperature!r} K, g={g!r}")


def test_number_density_alone_is_finite_where_the_other_prefactors_overflow():
    params = GasParameters(mass=1e-40, temperature=1e90)
    assert 0.0 < number_density(params) < math.inf
    with pytest.raises(DomainError, match="^energy_density: SI prefactor overflows"):
        evaluate(params)


@pytest.mark.parametrize("key, value, message", [
    ("n", math.nan, "n_hat must be finite and >= 0, got nan"),
    ("v", 1.01, "v_hat must not exceed 1, got 1.01"),
    ("R", 0.1645 * 1.01, f"r_hat must not exceed pi^2/60, got {0.1645 * 1.01!r}")])
def test_every_path_refuses_a_broken_kernel_by_name(monkeypatch, capsys, key, value, message):
    # The band loop is what every path calls, as core._bands: evaluate, the
    # x sweep and the SI wrappers through _si, reduced_functions through its
    # constructor, and both figures directly.  Each refuses the broken
    # kernel by name, and validate, which compares the band loop with its
    # oracle, fails.
    bands = core._bands

    def broken(x):
        values = list(bands(x))
        values["nuvR".index(key)] = value
        return tuple(values)

    monkeypatch.setattr(core, "_bands", broken)
    params = params_for_x(0.5)
    for call in (lambda: evaluate(params), lambda: reduced_functions(0.5),
                 *(lambda wrapper=wrapper: wrapper(params)
                   for wrapper in (number_density, mean_speed, radiance))):
        with pytest.raises(DomainError) as excinfo:
            call()
        assert str(excinfo.value) == message
    grid = ["--x-min", "0.5", "--x-max", "1", "--points", "2"]
    for argv in (["sweep", "--mass", "1eV", "--variable", "x", *grid],
                 ["figure", "mean-speed", *grid], ["figure", "radiance"]):
        code = cli.main(argv)
        assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n")), argv
    assert cli.main(["validate"]) == 1
    assert capsys.readouterr().out.endswith("RESULT: FAIL (limit 1e-07)\n")


def test_evaluate_builds_no_reduced_functions(monkeypatch):
    def refused(*args):
        raise AssertionError("evaluate built a ReducedFunctions")

    states = [params_for_x(x) for x in (0.0, 0.5, 3.0, 100.0)]
    reports = [evaluate(params) for params in states]
    monkeypatch.setattr(core, "ReducedFunctions", refused)
    with pytest.raises(AssertionError):
        reduced_functions(0.5)
    assert [evaluate(params) for params in states] == reports


def test_no_public_route_takes_the_trapezoid(monkeypatch, capsys):
    # The trapezoid is validate's oracle and nothing else's: with it
    # refused, every public kernel, SI wrapper and CLI report still runs,
    # and every tag reads "series".
    def refused(*args):
        raise AssertionError("a public route took the trapezoid")

    monkeypatch.setattr(oracle, "_moments", refused)
    wrappers = (number_density, energy_density, mean_speed, radiance, radiance_naive)
    for x in (0.05, 3.0, 30.0, 100.0):
        params = params_for_x(x)
        assert evaluate(params).methods == dict.fromkeys(("n", "u", "v", "R", "R_naive"),
                                                         "series")
        assert reduced_functions(x).method == "series"
        for wrapper in wrappers:
            assert 0.0 < wrapper(params) < math.inf, (x, wrapper.__name__)
        mass, grid = f"{params.mass!r}kg", ["--x-min", repr(x), "--x-max", repr(2 * x)]
        for argv in (["point", "--mass", mass, "--temp", repr(T_REF), "--format", "csv"],
                     ["sweep", "--mass", mass, *grid, "--points", "3"],
                     ["figure", "mean-speed", *grid, "--points", "3"]):
            assert cli.main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert err == "" and "quadrature" not in out, argv
    with pytest.raises(AssertionError, match="took the trapezoid"):
        cli.main(["validate"])


@pytest.mark.parametrize("field, value, message", [
    ("number_density", math.nan, "number_density must be finite and >= 0, got nan"),
    ("energy_density", math.inf, "energy_density must be finite and >= 0, got inf"),
    ("mean_speed", -1.0, "mean_speed must be finite and >= 0, got -1.0"),
    ("mean_speed", 3e8, "mean_speed must not exceed c, got 300000000.0"),
    ("radiance", math.inf, "radiance must be finite and >= 0, got inf"),
    ("radiance", 2.0, "radiance must not exceed the naive c/4 value"),
    ("energy_density", 1e301, "radiance_naive must be finite and >= 0, got inf"),
])
def test_report_names_the_first_broken_field(field, value, message):
    # radiance_naive = (c/4) U/V is about 0.75 here: a radiance of 2 exceeds it
    fields = dict(params=params_for_x(1.0), x=1.0, number_density=1.0, energy_density=1e-8,
                  mean_speed=1.0, radiance=0.5)
    RadiometryReport(**fields)
    with pytest.raises(DomainError) as excinfo:
        RadiometryReport(**{**fields, field: value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", ["1", None])
def test_a_field_that_is_no_number_is_refused_by_name(value):
    # A str or None makes the one-line range check raise TypeError; the
    # field-by-field check then names it, as it names any other bad field.
    kernels = dict(n_hat=1.0, u_hat=0.5, v_hat=0.9, r_hat=0.1)
    for field in kernels:
        with pytest.raises(DomainError) as excinfo:
            core.ReducedFunctions(1.0, **{**kernels, field: value})
        assert str(excinfo.value) == f"{field} must be finite and >= 0, got {value!r}"
    quantities = dict(number_density=1.0, energy_density=1.0, mean_speed=1.0, radiance=1.0)
    for field in quantities:
        with pytest.raises(DomainError) as excinfo:
            RadiometryReport(params_for_x(1.0), 1.0, **{**quantities, field: value})
        assert str(excinfo.value) == f"{field} must be finite and >= 0, got {value!r}"


def test_evaluate_checks_its_x_only_where_it_reduces_it(monkeypatch, capsys):
    # reduce refuses an x that is not finite, so evaluate and the SI
    # wrappers pass their x straight to the band loop; reduced_functions
    # checks its x once, and an x sweep and the mean-speed figure none:
    # _grid has checked its bounds, and every grid x lies between them.
    calls = []
    check = units._check_x

    def counted(x):
        calls.append(x)
        return check(x)

    for module in (units, core):
        monkeypatch.setattr(module, "_check_x", counted)
    for x in (0.0, 0.5, 3.0, 100.0):
        evaluate(params_for_x(x))
        for wrapper in (number_density, energy_density, mean_speed, radiance, radiance_naive):
            wrapper(params_for_x(x))
    assert calls == []
    reduced_functions(3.0)
    assert calls == [3.0]
    calls.clear()
    for argv in (["sweep", "--mass", "1eV", "--variable", "x", "--x-min", "0.5",
                  "--x-max", "50", "--points", "5"], ["figure", "mean-speed"]):
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == [], argv


# ---------------------------------------------------------------------------
# the package root
# ---------------------------------------------------------------------------

ROOT_NAMES = (
    "RadiometryReport", "ReducedFunctions", "energy_density", "evaluate",
    "mean_speed", "number_density", "photon_speed", "radiance", "radiance_naive",
    "reduced_functions", "spectral_energy_density",
    "ConvergenceError", "DomainError", "MassParseError", "zeta_value",
    "SI", "GasParameters", "PhysicalConstants", "format_mass", "parse_mass", "reduce",
)


def test_public_surface_is_what_a_route_or_a_user_needs():
    # The root exports exactly these 21 names, and each imports from it.  Of
    # the names oracle and specfun define, only zeta_value does: the oracle's
    # views and its quadrature driver and the Bessel views stay in their
    # modules.  Importing the root, in a fresh interpreter, leaves the
    # quadrature oracle unloaded.
    assert sorted(photongas.__all__) == sorted(ROOT_NAMES) and len(set(ROOT_NAMES)) == 21
    exec(f"from photongas import {', '.join(ROOT_NAMES)}", {})
    left = [name for module in (oracle, specfun) for name, value in vars(module).items()
            if getattr(value, "__module__", None) == module.__name__ and name != "zeta_value"]
    assert sum(name[0] != "_" for name in left) == 9  # the views and the driver
    for name in left:
        with pytest.raises(ImportError):
            exec(f"from photongas import {name}", {})
    src = str(Path(photongas.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, photongas; print(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True).stdout
    assert "'photongas'" in loaded and "'photongas.oracle'" not in loaded
