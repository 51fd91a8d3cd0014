"""Special-function tests against independent oracles.

The K2 oracle is adaptive quadrature of the integral representation
int_0^inf exp(-z cosh t) cosh(2 t) dt, and mpmath's besselk, where installed,
checks K0, K1 and K2 at 30 digits; the polylog and zeta oracles are
long brute-force sums with explicit tail bounds.  None of them share code
with the implementations under test beyond the quadrature driver itself.
"""

import functools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photongas import (ConvergenceError, DivergenceError, DomainError,
                       NumericsConfig, bessel_k2, energy_bessel_sum,
                       integrate_adaptive, k2_weighted_sum, polylog,
                       specfun, zeta_value)
from photongas.specfun import _bessel_k

import specfun_cost
import specfun_tables

TIGHT = 1e-13


def k2_oracle(z: float) -> float:
    """Quadrature of the cosh integral representation of K2."""

    def f(t: float) -> float:
        expo = z * math.cosh(t)
        if expo > 800.0:
            return 0.0
        return math.exp(-expo) * math.cosh(2.0 * t)

    # the cut above has zeroed the integrand beyond t = acosh(800/z + 1)
    return integrate_adaptive(f, 0.0, math.acosh(800.0 / z + 1.0), TIGHT).value


def polylog_oracle(s: int, z: float, cutoff: float = 1e-14) -> float:
    """Plain term-by-term summation down to an absolute term cutoff."""
    total = 0.0
    zn = 1.0
    for n in range(1, 2_000_000):
        zn *= z
        term = zn / n**s
        total += term
        if term < cutoff * total and n > 10:
            return total
    raise AssertionError("oracle did not converge")


def zeta3_oracle() -> tuple[float, float]:
    """Brute sum of n^-3 with the integral tail bound Sum_{n>N} < 1/(2N^2)."""
    big_n = 10_000_000
    total = 0.0
    for n in range(big_n, 0, -1):
        total += 1.0 / n**3
    return total, 0.5 / big_n**2


# ---------------------------------------------------------------------------
# bessel_k2
# ---------------------------------------------------------------------------

def test_k2_small_argument_follows_two_over_z_squared():
    z = 0.01
    assert bessel_k2(z) == pytest.approx(2.0 / (z * z), rel=3e-5)


def test_k2_at_one_matches_integral_representation():
    oracle = k2_oracle(1.0)
    assert oracle == pytest.approx(1.62483889, rel=1e-8)  # anchor for the oracle itself
    assert bessel_k2(1.0) == pytest.approx(oracle, rel=1e-12)


def test_k2_large_argument_asymptote():
    z = 50.0
    leading = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
    value = bessel_k2(z)
    assert value == pytest.approx(leading, rel=0.04)
    # the deviation from the leading asymptote is 15/(8z) to first order
    assert value / leading - 1.0 == pytest.approx(15.0 / (8 * z), abs=5e-4)


@pytest.mark.parametrize("z", [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.999, 2.0,
                               2.001, 3.0, 5.0, 10.0, 16.0, 24.9, 25.1, 40.0,
                               100.0, 300.0, 600.0])
def test_k2_matches_quadrature_oracle_across_regimes(z):
    assert bessel_k2(z) == pytest.approx(k2_oracle(z), rel=2e-12)


def test_k2_underflows_safely_beyond_700():
    for z in (701.0, 710.0, 800.0, 1e4):
        value = bessel_k2(z)
        assert 0.0 <= value < 1e-300


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_k2_rejects_nonpositive_or_nonfinite(bad):
    with pytest.raises(DomainError):
        bessel_k2(bad)


def test_k2_positive_and_strictly_decreasing():
    grid = [10 ** (-2 + 4 * i / 60) for i in range(61)]
    values = [bessel_k2(z) for z in grid]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_k2_recurrence_against_internal_k0_k1():
    # K2(z) = K0(z) + (2/z) K1(z)
    for i in range(40):
        z = 0.1 * (30.0 / 0.1) ** (i / 39)
        lhs = bessel_k2(z)
        rhs = _bessel_k(0, z) + 2.0 / z * _bessel_k(1, z)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# Log-spaced over [1e-4, 1e3], plus both sides of the series/Chebyshev edge
# at z = 2 and of the Chebyshev/Hankel edge.
MPMATH_GRID = [1e-4 * 1e7 ** (i / 59) for i in range(60)] + [
    edge * (1 + side) for edge in (specfun._K_SERIES_MAX, specfun._K_HANKEL_MIN)
    for side in (-1e-15, 1e-15)]


@pytest.mark.parametrize("z", MPMATH_GRID)
def test_k0_k1_k2_match_mpmath(z):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for nu in (0, 1, 2):
            ref = mp.besselk(nu, z)
            if z < 700.0:  # K_nu itself is a normal double
                assert _bessel_k(nu, z) == pytest.approx(float(ref), rel=1e-14, abs=0.0)
            scaled_ref = float(mp.exp(z) * ref)
            assert _bessel_k(nu, z, scaled=True) == pytest.approx(scaled_ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("z", [1e3, 1e6, 1e17, 1e308])
def test_scaled_k2_matches_mpmath_far_past_underflow(z):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = float(mp.exp(z) * mp.besselk(2, z))
    assert _bessel_k(2, z, scaled=True) == pytest.approx(ref, rel=1e-14, abs=0.0)


# 3000 log-spaced points over [2, 1e6], and two far past underflow.
SCALED_PAIR_GRID = [2.0 * 5e5 ** (i / 2999) for i in range(3000)] + [1e17, 1e308]


def test_scaled_k01_matches_mpmath_to_a_few_ulps():
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(25):
        for z in SCALED_PAIR_GRID:
            pair = specfun._k01(z, scaled=True)
            for nu in (0, 1):
                ref = mp.exp(z) * mp.besselk(nu, z)
                worst = max(worst, float(abs(pair[nu] / ref - 1)))
    assert worst <= 8e-16


@pytest.mark.parametrize("edge", ["series", "hankel"])
def test_scaled_k01_is_continuous_across_its_edges(edge):
    # The two branches agree at the edge itself, and so do the pairs one
    # double apart on either side of it, to within 4 ulps.
    if edge == "series":
        z = specfun._K_SERIES_MAX
        below = tuple(math.exp(z) * k for k in specfun._k01_series(z))
        above = specfun._k01_chebyshev(z)
    else:
        z = specfun._K_HANKEL_MIN
        below = specfun._k01_chebyshev(z)
        above = specfun._k01_hankel(z)
    left = specfun._k01(math.nextafter(z, 0.0), scaled=True)
    right = specfun._k01(math.nextafter(z, math.inf), scaled=True)
    for a, b in (*zip(below, above), *zip(left, right)):
        assert abs(a - b) <= 4 * math.ulp(b)


def test_k01_work_per_pair_above_two():
    # Chebyshev or Hankel terms per pair, a count that does not depend on the
    # host: 24 below the Hankel edge, 17 at it, and fewer as z grows.
    grid = [math.nextafter(2.0, 3.0)] + [2.0 * 1e300 ** (i / 999) for i in range(1, 1000)]
    spots = (1e3, 1e6, 1e12, 1e17)
    counts = specfun_cost.term_counts(specfun, grid + [specfun._K_HANKEL_MIN, *spots])
    assert max(counts.values()) <= 25
    # The Hankel sum stops on its own terms, before its table runs out.
    assert counts[specfun._K_HANKEL_MIN] < len(specfun._HANKEL)
    assert [counts[z] for z in spots] == [6, 3, 2, 1]


def test_tables_match_their_generator():
    # tests/specfun_tables.py prints the literal tables of specfun; each
    # must appear in the module source exactly as printed.
    pytest.importorskip("mpmath")
    here = Path(__file__).resolve().parent
    printed = subprocess.run([sys.executable, str(here / "specfun_tables.py")],
                             check=True, capture_output=True, text=True).stdout
    source = Path(specfun.__file__).read_text()
    blocks = printed.split("\n)\n")
    assert [block.split(" = ")[0] for block in blocks[:-1]] == [
        "_K01_CHEBYSHEV", "_HANKEL", "_ZETA_NEG_ODD"]
    for block in blocks[:-1]:
        assert block + "\n)\n" in source, block.split(" = ")[0]


def test_zeta_at_negative_odd_integers_from_bernoulli_numbers():
    # zeta(1 - 2j) = -B_2j/(2j), regenerated in exact rational arithmetic;
    # each literal is the correctly rounded double of that fraction.
    exact = specfun_tables.zeta_negative_odd()
    assert exact[:3] == (Fraction(-1, 12), Fraction(1, 120), Fraction(-1, 252))
    assert specfun._ZETA_NEG_ODD == tuple(float(value) for value in exact)


# ---------------------------------------------------------------------------
# polylog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [2, 3, 4])
def test_polylog_log_expansion_matches_mpmath_up_to_the_switch(s):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for i in range(60):
            u = 1e-6 * (specfun._U_SWITCH / 1e-6) ** (i / 60)
            ref = mp.polylog(s, mp.exp(-mp.mpf(u)))
            assert specfun._polylog_exp(s, u) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_polylog_vanishes_at_zero(s):
    assert polylog(s, 0.0) == 0.0


def test_polylog_at_one_is_zeta():
    assert polylog(3, 1.0) == zeta_value(3)
    assert polylog(2, 1.0) == zeta_value(2)
    assert polylog(4, 1.0) == zeta_value(4)


def test_polylog_half_matches_direct_series():
    oracle = polylog_oracle(2, 0.5)
    assert oracle == pytest.approx(0.58224052, abs=1e-8)
    assert polylog(2, 0.5) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("z", [0.9, 0.95, 0.99, 0.999])
def test_polylog_near_one_matches_long_direct_series(s, z):
    # crosses the internal branch switch; the oracle needs ~40k terms at worst
    assert polylog(s, z) == pytest.approx(polylog_oracle(s, z, 1e-16), rel=1e-12)


def test_polylog_branches_join_smoothly():
    u = specfun._U_SWITCH
    for s in (2, 3, 4):
        below = polylog(s, math.exp(-(u * (1 + 1e-9))))
        above = polylog(s, math.exp(-(u * (1 - 1e-9))))
        assert below == pytest.approx(above, rel=1e-8)


def test_polylog_domain_errors():
    with pytest.raises(DomainError):
        polylog(2, -0.1)
    with pytest.raises(DomainError):
        polylog(2, 1.1)
    with pytest.raises(DomainError):
        polylog(5, 0.5)
    with pytest.raises(DivergenceError):
        polylog(1, 1.0)


@given(z=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
       s=st.sampled_from([2, 3, 4]))
def test_polylog_decreases_with_order(z, s):
    lower = polylog(s - 1, z)
    assert polylog(s, z) <= lower * (1 + 1e-14)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_polylog_derivative_identity(s, x):
    # d/dx Li_s(e^-x) = -Li_{s-1}(e^-x), checked by central differences
    h = 1e-5
    numeric = (polylog(s, math.exp(-(x + h))) - polylog(s, math.exp(-(x - h)))) / (2 * h)
    assert numeric == pytest.approx(-polylog(s - 1, math.exp(-x)), rel=1e-6)


# ---------------------------------------------------------------------------
# zeta_value
# ---------------------------------------------------------------------------

def test_zeta_closed_forms():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert zeta_value(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)


def test_zeta3_matches_brute_force_sum():
    brute, bound = zeta3_oracle()
    assert abs(zeta_value(3) - brute) <= bound + 1e-13 * brute
    assert zeta_value(3) == pytest.approx(1.2020569032, abs=1e-9)


def test_zeta_rejects_unsupported_order():
    with pytest.raises(DomainError):
        zeta_value(5)
    with pytest.raises(DomainError):
        zeta_value(1)


# ---------------------------------------------------------------------------
# weighted Bessel sums
# ---------------------------------------------------------------------------

def test_k2_weighted_sum_large_x_single_term():
    result = k2_weighted_sum(20.0)
    assert result.value == pytest.approx(bessel_k2(20.0), rel=math.exp(-20.0) * 10)
    assert result.terms <= 4


def test_k2_weighted_sum_matches_brute_force():
    x = 1.0
    brute = sum(bessel_k2(n * x) / n for n in range(1, 200))
    result = k2_weighted_sum(x)
    # the truncation rule guarantees 1e-12 relative against the full sum
    assert result.value == pytest.approx(brute, rel=2e-12, abs=0.0)


def test_k2_weighted_sum_small_x_bracketed_by_massless_limit():
    x = 0.5
    scaled = x * x * k2_weighted_sum(x).value
    limit = 2.0 * zeta_value(3)
    assert 0.8 * limit < scaled < limit


def test_k2_weighted_sum_stable_under_tolerance_refinement():
    for x in (0.1, 1.0):
        coarse = k2_weighted_sum(x, 1e-10).value
        fine = k2_weighted_sum(x, 5e-11).value
        assert abs(fine - coarse) < 1e-10 * abs(coarse)


def _check_convergence_failure(weighted_sum, term, monkeypatch):
    # The error names the function and carries the partial sum of the first
    # _MAX_TERMS terms, on the scale of the value the function returns.
    x = 0.01
    monkeypatch.setattr(specfun, "_MAX_TERMS", 100)
    with pytest.raises(ConvergenceError) as excinfo:
        weighted_sum(x, 1e-12)
    err = excinfo.value
    assert str(err).startswith(weighted_sum.__name__)
    assert err.terms == 100
    partial = math.fsum(term(n, n * x) for n in range(1, 101))
    assert err.value == pytest.approx(partial, rel=1e-13, abs=0.0)


def test_k2_weighted_sum_reports_convergence_failure(monkeypatch):
    _check_convergence_failure(k2_weighted_sum, lambda n, z: bessel_k2(z) / n,
                               monkeypatch)


def test_energy_bessel_sum_reports_convergence_failure(monkeypatch):
    _check_convergence_failure(
        energy_bessel_sum, lambda n, z: _bessel_k(1, z) / z + 3 * bessel_k2(z) / z**2,
        monkeypatch)


def test_energy_bessel_sum_matches_brute_force():
    x = 1.0
    brute = sum(_bessel_k(1, n * x) / (n * x) + 3 * bessel_k2(n * x) / (n * x) ** 2
                for n in range(1, 200))
    assert energy_bessel_sum(x).value == pytest.approx(brute, rel=2e-12, abs=0.0)


# The Euler-Maclaurin closure of the Bessel pass below x = 1 rests on three
# facts about g = K2(t)/t and h = K1/t + 3 K2/t^2, checked here with mpmath.
CLOSURE_Z = [2.0, 3.7, 10.0]


@functools.lru_cache(maxsize=None)
def _mp_closure_derivatives(z):
    # g, g', ..., g'''' and h, h', h''' at z by mp.diff of mp.besselk, at 20
    # digits, with K1(z) and K2(z); mp.besselk takes milliseconds a call, so
    # the tests share them.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        zm = mp.mpf(z)
        g = [mp.diff(lambda t: mp.besselk(2, t) / t, zm, j) for j in range(5)]
        h = [mp.diff(lambda t: mp.besselk(1, t) / t + 3 * mp.besselk(2, t) / t**2, zm, j)
             for j in (0, 1, 3)]
        return g, h, float(mp.besselk(1, zm)), float(mp.besselk(2, zm))


@pytest.mark.parametrize("z", CLOSURE_Z)
def test_closure_derivatives_match_mpmath(z):
    # g and its first four derivatives in the (K1, K2) basis; h is -g', so
    # h, h' and h''' are -g', -g'' and -g''''.
    g, h, k1, k2 = _mp_closure_derivatives(z)
    derivs = specfun._g_derivatives(z, k1, k2)
    for j, value in enumerate(derivs):
        assert value == pytest.approx(float(g[j]), rel=1e-14, abs=0.0), j
    for expected, value in zip(h, (-derivs[1], -derivs[2], -derivs[4])):
        assert value == pytest.approx(float(expected), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("z", CLOSURE_Z)
def test_closure_tail_integrals_match_mpmath(z):
    # int_z^inf g dt = K1(z)/z and int_z^inf h dt = K2(z)/z (DLMF 10.29.4).
    # The integrals are mp.quad's; their integrands take the library's K
    # pair, which test_k0_k1_k2_match_mpmath checks against mp.besselk.
    # Past t = z + 60 both integrands have fallen by e^-60.
    mp = pytest.importorskip("mpmath")

    def integrand(weight):
        def f(t):
            t = float(t)
            k0, k1 = specfun._k01(t)
            return weight(t, k1, k0 + 2.0 * k1 / t)
        return f

    with mp.workdps(20):
        edges = [z, z + 1, z + 4, z + 12, z + 30, z + 60]
        int_g = mp.quad(integrand(lambda t, k1, k2: k2 / t), edges)
        int_h = mp.quad(integrand(lambda t, k1, k2: k1 / t + 3.0 * k2 / (t * t)), edges)
    k0, k1 = specfun._k01(z)
    assert k1 / z == pytest.approx(float(int_g), rel=1e-14, abs=0.0)
    assert (k0 + 2.0 * k1 / z) / z == pytest.approx(float(int_h), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("z", CLOSURE_Z)
def test_closure_derivatives_alternate_in_sign(z):
    # g is completely monotone, (-1)^j g^(j) > 0, so the Euler-Maclaurin
    # remainder is bounded by the first omitted term.  Checked on mpmath's
    # derivatives and on the closure's own, from mpmath's pair and from the
    # e^z-scaled pair the pass takes.
    g, _, k1, k2 = _mp_closure_derivatives(z)
    assert all((-1) ** j * value > 0 for j, value in enumerate(g))
    s0, s1 = specfun._k01(z, scaled=True)
    for pair in ((k1, k2), (s1, s0 + 2.0 * s1 / z)):
        derivs = specfun._g_derivatives(z, *pair)
        assert all((-1) ** j * value > 0 for j, value in enumerate(derivs))


def test_series_tolerance_validation():
    with pytest.raises(DomainError):
        NumericsConfig(series_tol=0.0)
    with pytest.raises(DomainError):
        NumericsConfig(series_tol=1e-2)


def test_weighted_sum_names_series_tol_when_out_of_range():
    with pytest.raises(DomainError, match="series_tol"):
        k2_weighted_sum(1.0, 0.0)


@settings(max_examples=30)
@given(x=st.floats(min_value=0.1, max_value=50.0))
def test_k2_weighted_sum_positive_and_dominated_by_first_term(x):
    result = k2_weighted_sum(x)
    first = bessel_k2(x)
    assert first * (1 - 1e-12) <= result.value
    assert result.value <= first / (1 - math.exp(-x)) * (1 + 1e-12)
