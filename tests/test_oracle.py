"""The adaptive quadrature driver and the phase-space integral oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photongas import (ConvergenceError, DomainError, GasParameters, SI,
                       evaluate, integrate_adaptive, oracle,
                       quad_energy_density, quad_mean_speed,
                       quad_number_density, quad_radiance, specfun, zeta_value)

import kernel_reference


def test_integrate_names_rel_tol_when_out_of_range():
    for rel_tol, shown in ((1e-15, "1e-15"), (10**5000, "<int of 16610 bits>"), ("1", "'1'")):
        with pytest.raises(DomainError) as info:
            integrate_adaptive(lambda t: t, 0.0, 1.0, rel_tol)
        assert str(info.value) == f"rel_tol must be in [1e-14, 1e-6], got {shown}"


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
def test_tolerance_refinement_changes_less_than_reported_bound(quad, x, monkeypatch):
    # Halving the fixed step, on a node table at the finer step, moves no
    # kernel by more than integrate_adaptive's default tolerance, 1e-10.
    v1 = quad(x)
    monkeypatch.setattr(oracle, "_H", oracle._H / 2)
    monkeypatch.setattr(oracle, "_NODES",
                        oracle._node_table(oracle._START, 2 * len(oracle._NODES) - 1))
    v2 = quad(x)
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
    # lower tail is about 1e-17 of the bulk; starting 17 steps (2.04 in tau,
    # to u = -103) lower, on a node table extended below it, changes nothing
    # a double can hold
    default = oracle._moments(x)
    steps = 17
    start = oracle._START - steps * oracle._H
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


def test_integrate_rejects_infinite_bound():
    with pytest.raises(DomainError, match=r"\[0\.0, inf\]"):
        integrate_adaptive(lambda t: 1.0, 0.0, math.inf)


def test_integrate_refuses_bounds_beyond_the_double_range_naming_both():
    # Compared exactly, not converted by math.isfinite: an int bound past the
    # double range is a DomainError, and one too long for repr shows its bit length.
    for a, b, shown in ((10**400, 10**401, f"{10**400}, {10**401}"),
                        (-10**400, 0.0, f"{-10**400}, 0.0"),
                        (0, 10**5000, "0, <int of 16610 bits>"),
                        (1, 0, "1, 0"), (0.0, math.nan, "0.0, nan"), ("1", 2.0, "'1', 2.0"),
                        (0.0, None, "0.0, None")):
        with pytest.raises(DomainError) as info:
            integrate_adaptive(lambda t: 1.0, a, b)
        assert str(info.value) == f"integration bounds must be finite with a < b, got [{shown}]"
    assert integrate_adaptive(math.exp, 0, 2) == integrate_adaptive(math.exp, 0.0, 2.0)


# ---------------------------------------------------------------------------
# the shared trapezoid pass
# ---------------------------------------------------------------------------

# The trapezoid pass against the committed table (tests/kernel_reference.py),
# all four kernels to 1e-15, on 80 x over [1e-8, 1e17].

def test_trapezoid_matches_the_table():
    kernel_reference.assert_matches(oracle._moments, kernel_reference.xs("trapezoid"))


test_moments_match_mpmath = kernel_reference.row_test("reference", oracle._moments)


def _node_sums_calls(x, monkeypatch):
    # (abscissae, a, r, sums) of every oracle._node_sums call in one pass at x
    calls = []
    node_sums = oracle._node_sums

    def traced(nodes, a, r, w):
        sums = node_sums(nodes, a, r, w)
        calls.append(([t for t, _ in nodes], a, r, sums))
        return sums

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_node_sums", traced)
        oracle._moments(x)
    return calls


@pytest.mark.parametrize("x, count", [(1e-6, 99), (0.01, 99), (0.5, 99),
                                      (3.9, 93), (10.0, 91), (20.0, 89),
                                      (1e3, 85), (1e300, 85)])
def test_nodes_per_pass(x, count, monkeypatch):
    # a deterministic work count: the even nodes, whose sum is the one at
    # step 2h, and the odd ones, each read once
    calls = _node_sums_calls(x, monkeypatch)
    assert [len(nodes) for nodes, _, _, _ in calls] == [(count + 1) // 2, (count - 1) // 2]


@pytest.mark.parametrize("tail", [oracle._TAIL, 70.0, 240.0])
@pytest.mark.parametrize("x", [0.0, 1.0, math.nextafter(1.0, 2.0), 1e300])
def test_last_node_reaches_the_tail(x, tail, monkeypatch):
    # the node table is long enough: no slice of it ends before E - x = _TAIL
    monkeypatch.setattr(oracle, "_TAIL", tail)
    calls = _node_sums_calls(x, monkeypatch)
    _, a, r, _ = calls[0]
    t = max(max(nodes) for nodes, _, _, _ in calls)
    assert a * t * t / (math.hypot(t, r) + r) >= tail


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.05, 1.0, 30.0, 600.0, 1e6, 1e300])
def test_step_check_leaves_room_at_every_x(x, monkeypatch):
    # The sum at step 2h, over the even nodes, and the sum at h differ by at
    # most 1.45e-7 in any moment, the value they reach from about x = 1e6
    # on; the check refuses only a change above _MAX_CHANGE, six times that.
    (_, _, _, even), (_, _, _, odd) = _node_sums_calls(x, monkeypatch)
    change = max(abs((e + o) / (2.0 * e) - 1.0) for e, o in zip(even, odd))
    assert change <= 1.5e-7 <= oracle._MAX_CHANGE / 6


def test_exhausted_ladder_reports_the_quantity_and_its_estimate(monkeypatch):
    # At x = 2.5 every moment changes by 2.8e-14 to 1.5e-13 from the sum at
    # step 2h to the sum at h; a check at 1e-14 refuses the pass.  The
    # payload is the value at h, the one a passing check returns, and its
    # distance from the value at 2h.
    converged = dict(zip(oracle._QUANTITIES, oracle._moments(2.5)))
    monkeypatch.setattr(oracle, "_MAX_CHANGE", 1e-14)
    with pytest.raises(ConvergenceError, match=r"^\w+: trapezoid sums at steps "
                                               r"0\.24 and 0\.12 differ by ") as excinfo:
        oracle._moments(2.5)
    err = excinfo.value
    quantity = str(err).split(":")[0]
    assert err.value == converged[quantity]
    assert 0.0 < err.error <= 1e-5 * err.value


@given(st.floats(min_value=0.0, max_value=1e-2))
def test_mean_speed_never_exceeds_one(x):
    # Numerator and denominator share every node, and each numerator term is
    # the denominator term times t/e <= 1, so no rounding lifts the ratio
    # past 1.
    assert quad_mean_speed(x) <= 1.0


def test_evaluation_below_the_switch_takes_one_pass(monkeypatch):
    # Below x = 2, where the series route switches from the expansions to
    # the tables, an evaluation takes one call of the expansions and no
    # trapezoid pass: the trapezoid is validate's oracle alone.
    calls = []

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(oracle, "_moments")
    counted(specfun, "_expansions")
    x = 1.5
    mass = x * SI.k_B * 300.0 / (SI.c * SI.c)
    report = evaluate(GasParameters(mass=mass, temperature=300.0))
    assert report.method == "series"
    assert calls == ["_expansions"]
