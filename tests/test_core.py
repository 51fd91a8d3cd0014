"""Thermodynamic kernels: closed forms against the quadrature oracles, exact
massless limits, asymptotic regimes, and report invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photongas import (SI, ConvergenceError, DomainError, GasParameters,
                       NumericsConfig, RegimeError, SeriesTolerance,
                       energy_density, evaluate,
                       low_temp_mean_speed, low_temp_radiance, mean_speed,
                       number_density, photon_speed, quad_energy_density,
                       quad_mean_speed, quad_number_density, quad_radiance,
                       radiance, radiance_naive, reduce, reduced_functions,
                       small_mass_radiance, spectral_energy_density,
                       zeta_value)
from photongas.core import (_si_prefactor, n_hat_series, r_hat_closed,
                            u_hat_series, v_hat_series)
from photongas.oracle import integrate_adaptive

T_REF = 5800.0


def params_for_x(x: float, temperature: float = T_REF, g: float = 2.0) -> GasParameters:
    mass = x * SI.k_B * temperature / (SI.c * SI.c)
    return GasParameters(mass=mass, temperature=temperature, degeneracy=g)


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
    assert n_hat_series(1.0) == pytest.approx(quad_number_density(1.0), rel=1e-9)


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
    assert v_hat_series(1.0) == pytest.approx(quad_mean_speed(1.0), rel=1e-9)


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
    assert u_hat_series(2.0) == pytest.approx(quad_energy_density(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# radiance
# ---------------------------------------------------------------------------

def test_radiance_massless_is_stefan_boltzmann():
    params = GasParameters(mass=0.0, temperature=T_REF)
    kt = SI.k_B * T_REF
    expected = math.pi**2 * kt**4 / (60 * SI.hbar**3 * SI.c**2)
    assert radiance(params) == pytest.approx(expected, rel=1e-14)


def test_radiance_closed_form_matches_quadrature_at_x_1():
    assert r_hat_closed(1.0) == pytest.approx(quad_radiance(1.0), rel=1e-9)


def test_radiance_low_temperature_behavior_at_x_50():
    params = params_for_x(50.0)
    assert abs(radiance(params) / low_temp_radiance(params) - 1.0) <= 4.0 / 50.0


def test_naive_radiance_equals_radiance_for_massless():
    params = GasParameters(mass=0.0, temperature=T_REF)
    assert radiance(params) == pytest.approx(radiance_naive(params), rel=1e-12)


@pytest.mark.parametrize("x", [0.05, 0.5, 2.0, 10.0, 50.0])
def test_naive_radiance_strictly_exceeds_radiance_for_massive(x):
    params = params_for_x(x)
    assert radiance(params) < radiance_naive(params)


def test_radiance_ratio_golden_value_at_x_5():
    # both sides independently via the quadrature oracles, plus a frozen value
    ratio_oracle = quad_radiance(5.0) / (0.25 * quad_energy_density(5.0))
    assert ratio_oracle == pytest.approx(0.6408997120589307, rel=1e-9)
    params = params_for_x(5.0)
    assert radiance(params) / radiance_naive(params) == pytest.approx(
        ratio_oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# asymptotic formulas
# ---------------------------------------------------------------------------

def test_small_mass_radiance_at_zero_is_stefan_boltzmann():
    params = GasParameters(mass=0.0, temperature=T_REF)
    assert small_mass_radiance(params) == pytest.approx(radiance(params), rel=1e-14)


def test_small_mass_coefficient_value():
    assert 2.5 / math.pi**2 == pytest.approx(0.253303, abs=1e-6)


def test_small_mass_radiance_agrees_with_full_form_at_x_005():
    params = params_for_x(0.05)
    assert small_mass_radiance(params) == pytest.approx(radiance(params), rel=1e-4)


def test_low_temp_radiance_expansion_ratio():
    params = params_for_x(100.0)
    ratio = radiance(params) / low_temp_radiance(params)
    # the bracket expands to 1 + 3/x + 3/x^2 + exponentially small terms
    assert ratio - (1.0 + 3.0 / 100.0) == pytest.approx(3.0 / 100.0**2, abs=1e-4)


def test_low_temp_radiance_vanishes_at_huge_x():
    assert low_temp_radiance(params_for_x(800.0)) == 0.0


def test_low_temp_radiance_within_bound_at_x_30():
    params = params_for_x(30.0)
    assert abs(radiance(params) / low_temp_radiance(params) - 1.0) <= 4.0 / 30.0


def test_low_temp_mean_speed_boundary_is_c():
    mass = 8.0 * SI.k_B * T_REF / (math.pi * SI.c**2)
    mass = math.nextafter(mass, math.inf)  # land safely on the allowed side
    value = low_temp_mean_speed(GasParameters(mass=mass, temperature=T_REF))
    assert value == pytest.approx(SI.c, rel=1e-12)


def test_low_temp_mean_speed_matches_full_form_at_x_200():
    params = params_for_x(200.0)
    assert low_temp_mean_speed(params) == pytest.approx(mean_speed(params), rel=0.01)


def test_low_temp_mean_speed_scales_with_sqrt_temperature():
    params = params_for_x(100.0)
    halved = GasParameters(mass=params.mass, temperature=params.temperature / 2)
    assert low_temp_mean_speed(halved) == pytest.approx(
        low_temp_mean_speed(params) / math.sqrt(2), rel=1e-14)


def test_low_temp_mean_speed_rejects_relativistic_regime():
    with pytest.raises(RegimeError):
        low_temp_mean_speed(params_for_x(1.0))


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
    below = evaluate(params_for_x(0.05))
    assert below.methods == {"n": "quadrature", "u": "quadrature",
                             "v": "quadrature", "R": "quadrature",
                             "R_naive": "quadrature"}
    above = evaluate(params_for_x(0.5))
    assert above.methods["n"] == "series"
    assert above.methods["v"] == "series"
    assert above.methods["R"] == "series"
    assert above.methods["u"] == "quadrature"  # quadrature is the primary route
    massless = evaluate(GasParameters(mass=0.0, temperature=300.0))
    assert set(massless.methods.values()) == {"series"}


@pytest.mark.parametrize("x", [0.1, 0.2, 0.4, 0.7, 1.0])
def test_series_and_quadrature_paths_agree_in_the_overlap(x):
    assert n_hat_series(x) == pytest.approx(quad_number_density(x), rel=1e-8)
    assert v_hat_series(x) == pytest.approx(quad_mean_speed(x), rel=1e-8)


def test_mean_speed_strictly_decreasing_on_log_grid():
    grid = [10 ** (-2 + 4 * i / 49) for i in range(50)]
    cfg = NumericsConfig()
    values = [reduced_functions(x, cfg).v_hat for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_radiance_kernel_strictly_decreasing_on_log_grid():
    grid = [10 ** (-2 + 4 * i / 49) for i in range(50)]
    cfg = NumericsConfig()
    values = [reduced_functions(x, cfg).r_hat for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] < math.pi**2 / 60


def test_spectral_density_integrates_to_energy_density():
    for x in (0.0, 0.5, 2.0, 10.0):
        params = params_for_x(x)
        threshold = params.mass * SI.c**2 / SI.hbar
        scale = SI.k_B * T_REF / SI.hbar
        upper = scale * (0.5 * (3 + math.sqrt(9 + 4 * x * x)) + 60.0)
        value, _ = integrate_adaptive(
            lambda w: spectral_energy_density(w, params), threshold, upper)
        assert value == pytest.approx(energy_density(params), rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(x=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e4)),
       temperature=st.floats(min_value=0.1, max_value=1e5),
       g=st.floats(min_value=0.5, max_value=3.0))
def test_report_invariants_hold_everywhere(x, temperature, g):
    params = params_for_x(x, temperature=temperature, g=g)
    report = evaluate(params)  # the dataclass validates its own invariants
    assert report.mean_speed <= SI.c
    assert report.radiance <= report.radiance_naive * (1 + 1e-9)
    assert set(report.methods.values()) <= {"series", "quadrature"}
    reduced = reduced_functions(x)
    assert reduced.v_hat <= 1.0
    assert reduced.r_hat <= math.pi**2 / 60 * (1 + 1e-9)


@pytest.mark.parametrize("x", [0.0, 0.01, 0.5, 40.0])
def test_si_values_are_reduced_kernels_times_one_prefactor(x):
    params = params_for_x(x)
    report = evaluate(params)
    reduced = reduced_functions(reduce(params).x)
    for key, kernel, quantity, wrapper in (
            ("n", "n_hat", "number_density", number_density),
            ("u", "u_hat", "energy_density", energy_density),
            ("v", "v_hat", "mean_speed", mean_speed),
            ("R", "r_hat", "radiance", radiance)):
        expected = getattr(reduced, kernel) * _si_prefactor(params, key)
        assert getattr(report, quantity) == expected
        assert wrapper(params) == expected
    assert report.radiance_naive == 0.25 * SI.c * report.energy_density


def test_convergence_failure_names_the_quantity():
    # x = 0.06 needs several hundred terms of the K2 sum; 100 are allowed.
    cfg = NumericsConfig(series=SeriesTolerance(max_terms=100), x_switch=0.05)
    for call in (lambda: reduced_functions(0.06, cfg),
                 lambda: evaluate(params_for_x(0.06), cfg)):
        with pytest.raises(ConvergenceError) as excinfo:
            call()
        assert str(excinfo.value).startswith("number_density")
        assert excinfo.value.terms == 100


@pytest.mark.parametrize("x", [6e17, 1e18, 1e20, 1e100])
def test_evaluate_underflows_to_exact_zero_far_below_threshold(x):
    # The thermal tail above the mass threshold is e^-x: every density
    # underflows to an exact 0, while the mean speed stays a finite ratio.
    report = evaluate(params_for_x(x))
    assert report.number_density == 0.0
    assert report.energy_density == 0.0
    assert report.radiance == 0.0
    assert 0.0 < report.mean_speed / SI.c < 1.0
