"""The adaptive quadrature driver and the phase-space integral oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photongas import (ConvergenceError, DomainError, GasParameters,
                       NumericsConfig, SI, evaluate, integrate_adaptive,
                       oracle, quad_energy_density, quad_mean_speed,
                       quad_number_density, quad_radiance, reduced_functions,
                       zeta_value)

from mpmath_reference import mpmath_kernels


def test_config_validation():
    with pytest.raises(DomainError):
        NumericsConfig(quad_tol=1e-15)
    with pytest.raises(DomainError):
        NumericsConfig(quad_tol=1e-5)


def test_integrate_names_quad_tol_when_out_of_range():
    with pytest.raises(DomainError, match="quad_tol"):
        integrate_adaptive(lambda t: t, 0.0, 1.0, 1e-15)


def test_integrate_gamma_three():
    # the integrand is below 4e-38 at the upper bound
    value, error = integrate_adaptive(lambda s: s * s * math.exp(-s), 0.0, 100.0)
    assert value == pytest.approx(2.0, rel=1e-10)
    assert error <= 1e-10 * abs(value)


def test_integrate_bose_cubed():
    def f(s):
        return s**3 / math.expm1(s) if s > 0 else 0.0

    value, _ = integrate_adaptive(f, 0.0, 100.0)
    assert value == pytest.approx(math.pi**4 / 15, rel=1e-10)


def test_integrate_quarter_circle():
    # square-root behavior at the right endpoint, like a mass threshold
    value, _ = integrate_adaptive(lambda t: math.sqrt(max(0.0, 1 - t * t)), 0.0, 1.0)
    assert value == pytest.approx(math.pi / 4, rel=1e-10)


def test_integrate_reports_depth_exhaustion_with_best_estimate(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_DEPTH", 20)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_adaptive(lambda t: math.sqrt(abs(1 - t * t)), 0.0, 1.0, 1e-14)
    err = excinfo.value
    assert err.value == pytest.approx(math.pi / 4, rel=1e-6)
    assert err.error is not None and err.error > 0


def test_integrate_rejects_bad_bounds():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda t: t, 1.0, 1.0)


# ---------------------------------------------------------------------------
# reduced kernels by quadrature
# ---------------------------------------------------------------------------

def test_number_density_massless_limit():
    assert quad_number_density(0.0) == pytest.approx(
        2 * zeta_value(3) / math.pi**2, rel=1e-9)


def test_number_density_huge_x_underflows_without_overflow():
    assert 0.0 <= quad_number_density(1e4) < 1e-300


@pytest.mark.parametrize("x", [1e200, 1e308])
def test_densities_underflow_to_exact_zero_where_powers_of_x_overflow(x):
    for quad in (quad_number_density, quad_energy_density, quad_radiance):
        assert quad(x) == 0.0


@pytest.mark.parametrize("x", [5e-324, 1e-200, 1e-61])
def test_kernels_at_the_bottom_of_the_double_range_are_massless(x):
    # The mass moves each kernel by O(x^2), far under a double's precision.
    assert quad_number_density(x) == pytest.approx(
        2 * zeta_value(3) / math.pi**2, rel=1e-13, abs=0.0)
    assert quad_energy_density(x) == pytest.approx(math.pi**2 / 15, rel=1e-13, abs=0.0)
    assert quad_radiance(x) == pytest.approx(math.pi**2 / 60, rel=1e-13, abs=0.0)
    assert quad_mean_speed(x) == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert quad_mean_speed(x) <= 1.0


def test_mean_speed_massless_is_exactly_one():
    assert quad_mean_speed(0.0) == 1.0


def test_mean_speed_nonrelativistic_regime():
    x = 100.0
    assert quad_mean_speed(x) == pytest.approx(math.sqrt(8 / (math.pi * x)), rel=0.01)


def test_energy_density_massless_limit():
    assert quad_energy_density(0.0) == pytest.approx(math.pi**2 / 15, rel=1e-9)


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 40.0])
def test_energy_exceeds_rest_mass_budget(x):
    # each photon carries at least its rest energy
    assert quad_energy_density(x) >= x * quad_number_density(x)


def test_radiance_massless_limit():
    assert quad_radiance(0.0) == pytest.approx(math.pi**2 / 60, rel=1e-9)


def test_radiance_low_temperature_asymptote():
    x = 50.0
    asymptote = x * x * math.exp(-x) / (2 * math.pi**2)
    assert abs(quad_radiance(x) / asymptote - 1.0) <= 4.0 / x


@pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
def test_kernels_reject_bad_x(x):
    with pytest.raises(DomainError):
        quad_number_density(x)


@pytest.mark.parametrize("quad", [quad_number_density, quad_mean_speed,
                                  quad_energy_density, quad_radiance])
@pytest.mark.parametrize("x", [0.05, 0.7, 12.0])
def test_tolerance_refinement_changes_less_than_reported_bound(quad, x):
    v1, v2 = quad(x, 1e-10), quad(x, 5e-11)
    # the returned error estimate is capped at rel_tol * |value|
    assert abs(v2 - v1) <= 1e-10 * abs(v1)


@pytest.mark.parametrize("quad", [quad_number_density, quad_energy_density,
                                  quad_radiance])
@pytest.mark.parametrize("x", [0.5, 5.0, 50.0, 100.0])
def test_tail_cutoff_insensitivity(quad, x, monkeypatch):
    # the range ends where E - x = oracle._TAIL; moving that end changes
    # nothing a double can hold
    monkeypatch.setattr(oracle, "_TAIL", 50.0)
    low = quad(x)
    monkeypatch.setattr(oracle, "_TAIL", 70.0)
    high = quad(x)
    assert abs(high - low) <= 1e-12 * abs(high)


@pytest.mark.parametrize("x", [1e-8, 1e-4, 0.05, 0.9, 1.1, 50.0])
def test_lower_cutoff_insensitivity(x, monkeypatch):
    # the range starts at tau = oracle._START, u = -19.68, where the lost
    # lower tail is about 1e-17 of the bulk; starting 34 grid steps (2.04 in
    # tau, to u = -103) lower, on a node table extended below it, changes
    # nothing a double can hold
    default = oracle._moments(x)
    steps = 34
    start = oracle._START - steps * oracle._H_MIN
    monkeypatch.setattr(oracle, "_NODES",
                        oracle._node_table(start, len(oracle._NODES) + steps))
    monkeypatch.setattr(oracle, "_START", start)
    for name, lower, value in zip(oracle._QUANTITIES, oracle._moments(x), default):
        assert lower == pytest.approx(value, rel=1e-14, abs=0.0), name


def test_kernels_are_continuous_across_x_30():
    # one parametrisation at every x: every kernel stays continuous across
    # x = 30
    for quad in (quad_number_density, quad_mean_speed, quad_energy_density,
                 quad_radiance):
        below = quad(29.999)
        above = quad(30.001)
        # the kernels move by O(dx) themselves; compare against a midpoint fit
        assert below == pytest.approx(above, rel=2e-3)
        tight_below = quad(29.999, 1e-12)
        assert below == pytest.approx(tight_below, rel=1e-9)


def test_integrate_rejects_infinite_bound():
    with pytest.raises(DomainError, match=r"\[0\.0, inf\]"):
        integrate_adaptive(lambda t: 1.0, 0.0, math.inf)


# ---------------------------------------------------------------------------
# the shared trapezoid pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [1e-8 * 6e10 ** (k / 11) for k in range(12)]
                         # both sides of sqrt(3e-17) and of x = 1
                         + [5.4e-9, 5.5e-9, 1.0, math.nextafter(1.0, 2.0)]
                         # where the map bends, u = oracle._TAU0 +- 1, and
                         # next to x = 0
                         + [math.exp(-6.0), math.exp(-5.0), math.exp(-4.0),
                            5e-324, 1e-300, 1e-20])
def test_moments_match_mpmath(x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        reference = mpmath_kernels(mp, mp.mpf(x))
    for name, value, expected in zip(oracle._QUANTITIES, oracle._moments(x), reference):
        assert value == pytest.approx(float(expected), rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-6])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.05, 1.0, 30.0, 600.0])
def test_ladder_converges_at_the_ends_of_the_tolerance_range(x, rel_tol):
    values = oracle._moments(x, rel_tol)
    for value, default in zip(values, oracle._moments(x)):
        assert value == pytest.approx(default, rel=max(rel_tol, 1e-13), abs=0.0)


def _node_sums_calls(x, monkeypatch):
    # (abscissae, a, r) of every oracle._node_sums call in one pass at x
    calls = []
    node_sums = oracle._node_sums

    def traced(nodes, a, r, w):
        calls.append(([t for t, _ in nodes], a, r))
        return node_sums(nodes, a, r, w)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_node_sums", traced)
        oracle._moments(x)
    return calls


@pytest.mark.parametrize("x, count", [(1e-6, 101), (0.01, 101), (0.5, 101),
                                      (3.9, 93), (10.0, 93)])
def test_nodes_per_pass(x, count, monkeypatch):
    # a deterministic work count: the first level's nodes and every later
    # level's midpoints, at the default quad_tol
    assert sum(len(nodes) for nodes, _, _ in _node_sums_calls(x, monkeypatch)) == count


@pytest.mark.parametrize("tail", [oracle._TAIL, 70.0, 240.0])
@pytest.mark.parametrize("x", [0.0, 1.0, math.nextafter(1.0, 2.0), 1e300])
def test_last_node_reaches_the_tail(x, tail, monkeypatch):
    # the node table is long enough: no slice of it ends before E - x = _TAIL
    monkeypatch.setattr(oracle, "_TAIL", tail)
    calls = _node_sums_calls(x, monkeypatch)
    _, a, r = calls[0]
    t = max(max(nodes) for nodes, _, _ in calls)
    assert a * t * t / (math.hypot(t, r) + r) >= tail


def test_exhausted_ladder_reports_the_quantity_and_its_estimate(monkeypatch):
    converged = dict(zip(oracle._QUANTITIES, oracle._moments(0.05)))
    monkeypatch.setattr(oracle, "_HALVINGS", 1)
    with pytest.raises(ConvergenceError, match=r"^\w+: trapezoid ladder") as excinfo:
        oracle._moments(0.05, 1e-14)
    err = excinfo.value
    quantity = str(err).split(":")[0]
    assert math.isfinite(err.value)
    assert err.value == pytest.approx(converged[quantity], rel=1e-5)
    assert 0.0 < err.error <= 1e-5 * err.value
    with pytest.raises(ConvergenceError, match=f"^{quantity}: trapezoid ladder"):
        reduced_functions(0.05, NumericsConfig(quad_tol=1e-14))


@given(st.floats(min_value=0.0, max_value=1e-2))
def test_mean_speed_never_exceeds_one(x):
    # Numerator and denominator share every node, and each numerator term is
    # the denominator term times t/e <= 1, so no rounding lifts the ratio
    # past 1.
    assert quad_mean_speed(x) <= 1.0


def test_evaluation_below_the_switch_takes_one_pass(monkeypatch):
    calls = []
    moments = oracle._moments

    def counted(*args):
        calls.append(args)
        return moments(*args)

    monkeypatch.setattr(oracle, "_moments", counted)
    x = 0.01
    mass = x * SI.k_B * 300.0 / (SI.c * SI.c)
    report = evaluate(GasParameters(mass=mass, temperature=300.0))
    assert report.method == "quadrature"
    assert len(calls) == 1
