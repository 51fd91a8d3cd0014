"""Self-contained special functions for the photon-gas kernels.

Provides the modified Bessel function K2 (with K0/K1 as internal helpers),
polylogarithms Li_s on [0, 1] for s in {1, 2, 3, 4}, the Riemann zeta values
zeta(2), zeta(3), zeta(4), and the Boltzmann-weighted Bessel sums that appear
in the closed-form gas formulas.  Everything here is evaluated from scratch
(ascending series, an exponentially convergent trapezoidal rule for the
integral representation, and large-argument asymptotics); no third-party
special-function library is involved, so the quadrature oracles elsewhere in
the package remain an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConvergenceError, DivergenceError, DomainError

_EULER_GAMMA = 0.5772156649015329

# Regime boundaries for the K_nu evaluator.  Below _K_SERIES_MAX the ascending
# series has no cancellation; above _K_ASYMPTOTIC_MIN the divergent asymptotic
# expansion bottoms out well below 1e-15 relative.  The band in between uses
# step-halving trapezoids on the cosh integral representation, which converge
# geometrically for this doubly-exponentially decaying integrand.
_K_SERIES_MAX = 2.0
_K_ASYMPTOTIC_MIN = 25.0


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation control for the weighted Bessel sums."""

    rel_tol: float = 1e-12
    max_terms: int = 20000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-3):
            raise DomainError(f"rel_tol must be in (0, 1e-3), got {self.rel_tol}")
        if self.max_terms < 100:
            raise DomainError(f"max_terms must be >= 100, got {self.max_terms}")


class WeightedSum(NamedTuple):
    value: float
    terms: int


def _check_positive(z: float, name: str) -> None:
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0):
        raise DomainError(f"{name} must be a positive finite number, got {z!r}")


# ---------------------------------------------------------------------------
# Modified Bessel functions of the second kind, orders 0, 1, 2.
# ---------------------------------------------------------------------------

def _k0_series(z: float) -> float:
    # K0 = -ln(z/2) I0(z) + sum_k psi(k+1) q^k / (k!)^2, q = z^2/4
    q = 0.25 * z * z
    lg = math.log(0.5 * z)
    term = 1.0
    psi = -_EULER_GAMMA
    i0 = 0.0
    s = 0.0
    for k in range(60):
        i0 += term
        s += psi * term
        term *= q / ((k + 1.0) * (k + 1.0))
        psi += 1.0 / (k + 1.0)
        if term < 1e-19:
            break
    return s - lg * i0


def _k1_series(z: float) -> float:
    # K1 = 1/z + ln(z/2) I1(z) - (z/4) sum_k (psi(k+1)+psi(k+2)) q^k / (k!(k+1)!)
    q = 0.25 * z * z
    lg = math.log(0.5 * z)
    a = 1.0
    p = 1.0 - 2.0 * _EULER_GAMMA
    i1s = 0.0
    ps = 0.0
    for k in range(60):
        i1s += a
        ps += p * a
        a *= q / ((k + 1.0) * (k + 2.0))
        p += 1.0 / (k + 1.0) + 1.0 / (k + 2.0)
        if a < 1e-19:
            break
    i1 = 0.5 * z * i1s
    return 1.0 / z + lg * i1 - 0.25 * z * ps


def _k2_series(z: float) -> float:
    # K2 = 2/z^2 - 1/2 - ln(z/2) I2(z)
    #      + (1/2)(z/2)^2 sum_k (psi(k+1)+psi(k+3)) q^k / (k!(k+2)!)
    # All three pieces are non-negative for z <= 2, so there is no cancellation.
    q = 0.25 * z * z
    lg = math.log(0.5 * z)
    b = 0.5
    r = 1.5 - 2.0 * _EULER_GAMMA
    i2s = 0.0
    rs = 0.0
    for k in range(60):
        i2s += b
        rs += r * b
        b *= q / ((k + 1.0) * (k + 3.0))
        r += 1.0 / (k + 1.0) + 1.0 / (k + 3.0)
        if b < 1e-19:
            break
    i2 = q * i2s
    return 2.0 / (z * z) - 0.5 - lg * i2 + 0.5 * q * rs


def _k_scaled_trapezoid(nu: int, z: float) -> float:
    # e^z K_nu(z) = int_0^inf exp(z(1 - cosh t)) cosh(nu t) dt.  The integrand
    # decays like exp(-(z/2) e^t), so step-halving trapezoids converge
    # geometrically; refinement stops on a 1e-15 relative step change.
    span = 60.0
    t_max = math.acosh(1.0 + span / z)
    t_max = math.acosh(1.0 + (span + nu * t_max + 2.0) / z)

    def g(t: float) -> float:
        return math.exp(z * (1.0 - math.cosh(t))) * math.cosh(nu * t)

    n = 16
    h = t_max / n
    total = 0.5 * (g(0.0) + g(t_max))
    for i in range(1, n):
        total += g(i * h)
    value = total * h
    for _ in range(12):
        half = 0.5 * h
        add = sum(g(i * h + half) for i in range(n))
        new_value = 0.5 * value + half * add
        n *= 2
        h = half
        if abs(new_value - value) <= 1e-15 * abs(new_value):
            return new_value
        value = new_value
    return value


def _k_scaled_asymptotic(nu: int, z: float) -> float:
    # e^z K_nu(z) ~ sqrt(pi/2z) [1 + (mu-1)/(8z) + ...], mu = 4 nu^2.
    # Terms are added while they shrink; at z >= 25 they bottom out below
    # 1e-15 relative long before the divergent tail turns around.
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, 40):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    return math.sqrt(math.pi / (2.0 * z)) * total


_K_SERIES = (_k0_series, _k1_series, _k2_series)


def _bessel_k(nu: int, z: float, scaled: bool = False) -> float:
    """K_nu(z) for nu in {0, 1, 2} and z > 0, or e^z K_nu(z) when scaled.

    The scaled form stays finite for arbitrarily large z, where K_nu itself
    underflows.
    """
    _check_positive(z, "z")
    if z <= _K_SERIES_MAX:
        value = _K_SERIES[nu](z)
        return math.exp(z) * value if scaled else value
    if z < _K_ASYMPTOTIC_MIN:
        value = _k_scaled_trapezoid(nu, z)
    else:
        value = _k_scaled_asymptotic(nu, z)
    return value if scaled else math.exp(-z) * value


def bessel_k2(z: float) -> float:
    """Modified Bessel function of the second kind K2(z) for z > 0.

    Relative accuracy is better than 1e-12 across z in [1e-4, 700].  For
    z beyond ~700 the value drops under 1e-300 and degrades gracefully to
    zero instead of raising.
    """
    return _bessel_k(2, z)


def _bessel_k0(z: float) -> float:
    return _bessel_k(0, z)


def _bessel_k1(z: float) -> float:
    return _bessel_k(1, z)


def _k2_scaled(z: float) -> float:
    # e^z K2(z).  Below the asymptotic edge K2 is still a normal float, so
    # the weighted sums take it from bessel_k2, looked up at call time, and
    # every K2 value of the package goes through that one function there.
    if z < _K_ASYMPTOTIC_MIN:
        return math.exp(z) * bessel_k2(z)
    return _bessel_k(2, z, scaled=True)


# ---------------------------------------------------------------------------
# Riemann zeta and polylogarithms.
# ---------------------------------------------------------------------------

_ZETA3_CACHE: float | None = None


def _compute_zeta3() -> float:
    # Direct sum to N plus the Euler-Maclaurin tail of t^-3; the first
    # neglected correction is 1/(12 N^8), far below 1e-13 at N = 200.
    big_n = 200
    partial = 0.0
    for n in range(big_n - 1, 0, -1):
        partial += 1.0 / (n * n * n)
    fn = float(big_n)
    tail = 1.0 / (2.0 * fn * fn) + 1.0 / (2.0 * fn**3) + 1.0 / (4.0 * fn**4) - 1.0 / (12.0 * fn**6)
    return partial + tail


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}; zeta(3) is computed, not hard-coded."""
    global _ZETA3_CACHE
    if s == 2:
        return math.pi * math.pi / 6.0
    if s == 4:
        return math.pi**4 / 90.0
    if s == 3:
        if _ZETA3_CACHE is None:
            _ZETA3_CACHE = _compute_zeta3()
        return _ZETA3_CACHE
    raise DomainError(f"zeta_value supports s in {{2, 3, 4}}, got {s!r}")


# zeta at non-positive integers, needed by the log expansion of Li_s near
# z = 1: zeta(0) = -1/2, zeta(-(2j-1)) = -B_2j/(2j), zeta(-2j) = 0.
_ZETA_NONPOS = {
    0: -0.5,
    -1: -1.0 / 12.0,
    -3: 1.0 / 120.0,
    -5: -1.0 / 252.0,
    -7: 1.0 / 240.0,
    -9: -1.0 / 132.0,
    -11: 691.0 / 32760.0,
    -13: -1.0 / 12.0,
}

_HARMONIC = {2: 1.0, 3: 1.5, 4: 11.0 / 6.0}

# Branch boundary between the direct power series and the log expansion,
# expressed in u = -ln z.  At u = 0.125 the direct series needs ~300 terms
# and the log expansion ~14, both comfortably below 1e-14 truncation error.
_U_SWITCH = 0.125


def _zeta_at_int(n: int) -> float:
    if n >= 2:
        return zeta_value(n)
    return _ZETA_NONPOS.get(n, 0.0)


def _polylog_small_u(s: int, u: float) -> float:
    # Li_s(e^-u) = sum_{k != s-1} zeta(s-k) (-u)^k / k!
    #              + (-u)^(s-1)/(s-1)! (H_{s-1} - ln u),  valid for u < 2 pi.
    total = (-u) ** (s - 1) / math.factorial(s - 1) * (_HARMONIC[s] - math.log(u))
    term = 1.0
    for k in range(15):
        if k != s - 1:
            total += _zeta_at_int(s - k) * term
        term *= -u / (k + 1.0)
    return total


def _polylog_direct(s: int, z: float) -> float:
    # Plain power series with a geometric tail bound; z is bounded away from
    # 1 by the branch switch, so a few hundred terms always suffice.
    total = 0.0
    zn = 1.0
    one_minus = 1.0 - z
    for n in range(1, 100000):
        zn *= z
        total += zn / n**s
        if zn * z <= one_minus * 1e-16 * total:
            break
    return total


def _polylog_exp(s: int, x: float) -> float:
    """Li_s(e^-x) for x >= 0, branch chosen on x directly."""
    if x == 0.0:
        return zeta_value(s)
    if x < _U_SWITCH:
        return _polylog_small_u(s, x)
    return _polylog_direct(s, math.exp(-x))


def polylog(s: int, z: float) -> float:
    """Polylogarithm Li_s(z) = sum_n z^n / n^s for z in [0, 1], s in {1,..,4}.

    Li_s(1) = zeta(s) for s >= 2; Li_1(1) diverges and raises.
    """
    if s not in (1, 2, 3, 4):
        raise DomainError(f"polylog order must be in {{1, 2, 3, 4}}, got {s!r}")
    if not (isinstance(z, (int, float)) and 0.0 <= z <= 1.0):
        raise DomainError(f"polylog argument must lie in [0, 1], got {z!r}")
    z = float(z)
    if z == 0.0:
        return 0.0
    if z == 1.0:
        if s == 1:
            raise DivergenceError("Li_1(1) is the divergent harmonic series")
        return zeta_value(s)
    if s == 1:
        return -math.log1p(-z)
    u = -math.log(z)
    if u < _U_SWITCH:
        return _polylog_small_u(s, u)
    return _polylog_direct(s, z)


# ---------------------------------------------------------------------------
# Boltzmann-weighted Bessel sums.
# ---------------------------------------------------------------------------

def _scaled_sum(term, x: float, tol: SeriesTolerance, label: str,
                scale: float = 1.0) -> WeightedSum:
    """scale * sum_{n>=1} e^{-(n-1)x} term(n), with the number of terms used.

    term(n) is e^{nx} times the n-th term of a Boltzmann-weighted sum, so the
    unscaled result is e^x times that sum, and every factor stays
    representable however large x gets.  Truncation stops when the current
    term AND the geometric tail bound both fall under rel_tol times the
    partial sum.  The tail bound uses K_nu((n+1)x) <= e^-x K_nu(n x), which
    follows from (ln K_nu)' <= -1; the polylog terms shrink faster still.
    """
    w = math.exp(-x)
    tail_factor = w / (1.0 - w) if w < 1.0 else math.inf
    total = 0.0
    pref = 1.0
    for n in range(1, tol.max_terms + 1):
        t = pref * term(n)
        total += t
        if t <= tol.rel_tol * total and t * tail_factor <= tol.rel_tol * total:
            return WeightedSum(scale * total, n)
        pref *= w
    raise ConvergenceError(
        f"{label} did not converge within {tol.max_terms} terms at x={x!r}",
        value=scale * total,
        terms=tol.max_terms,
    )


def _k2_sum_scaled(x: float, tol: SeriesTolerance, label: str = "scaled K2 sum",
                   scale: float = 1.0) -> WeightedSum:
    # S~(x) = e^x sum_n K2(n x)/n, the one K2 sum behind n_hat and v_hat.
    return _scaled_sum(lambda n: _k2_scaled(n * x) / n, x, tol, label, scale)


def k2_weighted_sum(x: float, tol: SeriesTolerance | None = None) -> WeightedSum:
    """sum_{n>=1} K2(n x)/n with the number of terms actually used.

    Converges in O(1/x) terms; intended for x >= ~0.1, where the gas kernels
    use it as their series path (smaller x is served by quadrature).
    """
    _check_positive(x, "x")
    return _k2_sum_scaled(x, tol or SeriesTolerance(), "k2_weighted_sum", math.exp(-x))


def energy_bessel_sum(x: float, tol: SeriesTolerance | None = None) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum."""
    _check_positive(x, "x")

    def term(n: int) -> float:
        nx = n * x
        return _bessel_k(1, nx, scaled=True) / nx + 3.0 * _k2_scaled(nx) / (nx * nx)

    return _scaled_sum(term, x, tol or SeriesTolerance(), "energy_bessel_sum", math.exp(-x))


def _speed_sum_scaled(x: float, tol: SeriesTolerance) -> WeightedSum:
    # P~(x) = e^x [Li3(e^-x) + x Li2(e^-x)] = sum_n e^{-(n-1)x} (n^-3 + x n^-2).
    return _scaled_sum(lambda n: 1.0 / n**3 + x / n**2, x, tol, "scaled speed sum")
