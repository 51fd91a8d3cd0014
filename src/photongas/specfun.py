"""Self-contained special functions for the photon-gas kernels.

Provides the modified Bessel function K2 (with K0/K1 as internal helpers),
polylogarithms Li_s on [0, 1] for s in {1, 2, 3, 4}, the Riemann zeta values
zeta(2), zeta(3), zeta(4), and the Boltzmann-weighted Bessel sums that appear
in the closed-form gas formulas.  Everything here is evaluated from scratch:
K0 and K1 as one pair, by their ascending series up to z = 2 and by Steed's
continued fraction CF2 above it, which yields e^z K0 and e^z K1 with no upper
limit on z, and K2 = K0 + 2 K1/z at every z.  No third-party special-function
library is involved, so the quadrature oracles elsewhere in the package
remain an independent check.

The Bessel sums come from one pass, _scaled_sum, with one K pair per term.
Below x = 1 it closes their tails by Euler-Maclaurin from the current pair,
as soon as the B4 term that bounds the remainder falls under series_tol/100
of each partial sum (at most 139 pairs at the default tolerance for x above
about 1e-45), and takes the polylog sum from its closed form.  From x = 1 on
it stops once each term and a geometric bound on the rest fall under
series_tol.  Its term count is the number of K pairs taken, the closing pair
included.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DivergenceError, DomainError

_EULER_GAMMA = 0.5772156649015329

# The one regime edge of the K_nu evaluator: the ascending series up to
# here, Steed's continued fraction above.
_K_SERIES_MAX = 2.0

# Default relative truncation tolerance of the Bessel sums, and their cap on
# terms.
SERIES_TOL = 1e-12
_MAX_TERMS = 20000


def _check_series_tol(rel_tol: float) -> None:
    if not (0.0 < rel_tol < 1e-3):
        raise DomainError(f"series_tol must be in (0, 1e-3), got {rel_tol}")


class WeightedSum(NamedTuple):
    value: float
    terms: int


def _check_positive(z: float, name: str) -> None:
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0):
        raise DomainError(f"{name} must be a positive finite number, got {z!r}")


# ---------------------------------------------------------------------------
# Modified Bessel functions of the second kind, orders 0, 1, 2.
# ---------------------------------------------------------------------------

def _k01_series(z: float) -> tuple[float, float]:
    # (K0, K1) by the ascending series, for z <= 2 (q = z^2/4, psi the digamma):
    #   K0 = -ln(z/2) I0 + sum_k psi(k+1) q^k/(k!)^2
    #   K1 = 1/z + ln(z/2) I1 - (z/4) sum_k (psi(k+1)+psi(k+2)) q^k/(k!(k+1)!)
    q = 0.25 * z * z
    lg = math.log(0.5 * z)
    term = 1.0  # q^k/(k!)^2
    psi = -_EULER_GAMMA
    i0 = s0 = i1 = s1 = 0.0
    for k in range(1, 60):
        t1 = term / k
        psi1 = psi + 1.0 / k
        i0 += term
        s0 += psi * term
        i1 += t1
        s1 += (psi + psi1) * t1
        term *= q / (k * k)
        if term < 1e-19:
            break
        psi = psi1
    return s0 - lg * i0, 1.0 / z + 0.5 * z * (lg * i1 - 0.5 * s1)


def _k01_cf2(z: float) -> tuple[float, float]:
    # (e^z K0, e^z K1) for z > 2 by Steed's method for Temme's continued
    # fraction CF2 at nu = 0 (Temme, J. Comput. Phys. 19, 324 (1975);
    # Numerical Recipes 6.7, bessik).  e^z K0 = sqrt(pi/2z)/s, and
    # K1/K0 = (z + 1/2 - h/4)/z, with h the CF2 value.  The steps needed fall
    # with z: 81 just above z = 2, 15 at z = 25, 2 from z = 1e17 on.  By
    # z = 1e300, s = 1 and h/z = 0 in doubles; capping z there keeps b finite.
    b = 2.0 * (1.0 + min(z, 1e300))
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a = -0.25
    q = c = 0.25
    s = 1.0 + q * delh
    for i in range(2, 1000):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh *= b * d - 1.0
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-16 * s:
            break
    k0 = math.sqrt(0.5 * math.pi / z) / s
    return k0, k0 * (z + 0.5 - 0.25 * h) / z


def _k01(z: float, scaled: bool = False) -> tuple[float, float]:
    """(K0(z), K1(z)) for z > 0, or (e^z K0(z), e^z K1(z)) when scaled.

    The scaled pair stays finite for arbitrarily large z, where K_nu itself
    underflows.
    """
    _check_positive(z, "z")
    if z <= _K_SERIES_MAX:
        k0, k1 = _k01_series(z)
        factor = math.exp(z) if scaled else 1.0
    else:
        k0, k1 = _k01_cf2(z)
        factor = 1.0 if scaled else math.exp(-z)
    return factor * k0, factor * k1


def _bessel_k(nu: int, z: float, scaled: bool = False) -> float:
    """K_nu(z) for nu in {0, 1, 2}, or e^z K_nu(z) when scaled; K2 = K0 + 2 K1/z."""
    k0, k1 = _k01(z, scaled)
    return (k0, k1, k0 + 2.0 * k1 / z)[nu]


def bessel_k2(z: float) -> float:
    """Modified Bessel function of the second kind K2(z) for z > 0.

    Relative error is at most 1.8e-15 against mpmath across z in
    [1e-4, 700] (4000 points, densest just above the z = 2 edge).  For z
    beyond ~700 the value drops under 1e-300 and degrades gracefully to
    zero instead of raising.
    """
    return _bessel_k(2, z)


# ---------------------------------------------------------------------------
# Riemann zeta and polylogarithms.
# ---------------------------------------------------------------------------

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


_ZETA3 = _compute_zeta3()


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}; zeta(3) is computed, not hard-coded."""
    if s == 2:
        return math.pi * math.pi / 6.0
    if s == 4:
        return math.pi**4 / 90.0
    if s == 3:
        return _ZETA3
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

def _g_derivatives(t: float, k1: float, k2: float) -> tuple[float, float, float, float, float]:
    """g = K2(t)/t and its first four derivatives, from K1(t) and K2(t).

    From (K_nu/t^nu)' = -K_{nu+1}/t^nu and K_{nu+1} = K_{nu-1} + 2 nu K_nu/t
    (DLMF 10.29), written in the pair (K1, K2), K2 = K0 + 2 K1/t:

        g'    = -K1/t - 3 K2/t^2
        g''   =  K2/t + 3 K1/t^2 + 12 K2/t^3
        g'''  = -K1/t - 6 K2/t^2 - 15 K1/t^3 - 60 K2/t^4
        g'''' =  K2/t + 6 K1/t^2 + 39 K2/t^3 + 90 K1/t^4 + 360 K2/t^5

    The energy sum's h = K1/t + 3 K2/t^2 is -g', so h' = -g'' and
    h''' = -g''''.  Every term is some K_nu/t^k, which is completely
    monotone, so the signs alternate: (-1)^j g^(j) > 0.  Linear in the
    pair, so an e^t-scaled pair gives e^t times each value.
    """
    r = 1.0 / t
    a = k1 * r
    g = k2 * r
    gr = g * r
    return (g,
            -a - 3.0 * gr,
            g + 3.0 * a * r + 12.0 * gr * r,
            -a - r * (6.0 * g + r * (15.0 * a + 60.0 * gr)),
            g + r * (6.0 * a + r * (39.0 * g + r * (90.0 * a + 360.0 * gr))))


def _scaled_sum(x: float, rel_tol: float) -> tuple[float, float, float, int]:
    """(S~, E~, P~, terms): three e^x-scaled sums from one K pair per term.

        S~ = e^x sum_n K2(n x)/n
        E~ = e^x sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
        P~ = e^x [Li3(e^-x) + x Li2(e^-x)] = sum_n e^{-(n-1)x} (n^-3 + x n^-2)

    Term n is e^{-(n-1)x} times e^{nx} K_nu(n x), so every factor stays
    representable however large x gets.  terms counts the K pairs taken,
    the closing pair included.  Two stop rules:

    * Below x = 1, the tails of S~ and E~ from term N on are closed by
      Euler-Maclaurin with z = N x, g = K2/t and h = -g' (DLMF 2.10.1):

          sum_{n>=N} K2(n x)/n = K1(z)/z + K2(z)/(2N) - x^2 g'(z)/12
                                 + x^4 g'''(z)/720 + R_S
          sum_{n>=N} h(n x)    = K2(z)/(x z) + h(z)/2 + x g''(z)/12
                                 - x^3 g''''(z)/720 + R_E

      using int_z^inf g dt = K1(z)/z and int_z^inf h dt = K2(z)/z
      (DLMF 10.29.4).  g and h are completely monotone, so the remainder
      after the B2 term has the sign of the B4 term and is no larger (DLMF
      2.10(i)).  With the B4 term added, |R| is still at most that term,
      and in practice near the B6 term.  The pass closes both sums at the
      first pair where both B4 terms fall under rel_tol/100 of their
      partial sums, with no extra K evaluation: 22 to 139 pairs at the
      default rel_tol for any x from about 1e-45 to 1.  P~ is the polylog closed form, from
      _polylog_exp, as r_hat takes it.  Where the closure is never met,
      because its B4 terms overflow (x below about 1e-47), the pass runs
      to its cap.
    * From x = 1 on, a sum has met the stop rule when its current term AND
      the geometric tail bound both fall under rel_tol times its partial
      sum.  The tail bound uses K_nu((n+1)x) <= e^-x K_nu(n x), which
      follows from (ln K_nu)' <= -1; the polylog terms shrink faster still.
      S~ and E~ share the K pairs and stop together, once both meet the
      rule.  P~ is summed alongside and stops as soon as it meets the rule
      itself: v_hat = 2 P~/(x^2 S~), and the truncation errors of P~ and S~
      largely cancel in that ratio when each sum is cut by its own rule.

    Under either rule, once e^{-(n-1)x} underflows to 0 every later term is
    exactly 0, and the pass stops there.

    A ConvergenceError carries the partial (S~, E~, P~) as its value.
    """
    _check_series_tol(rel_tol)
    w = math.exp(-x)
    # t <= r S and t w/(1-w) <= r S, as one comparison.
    bound = max(1.0, w / (1.0 - w)) if w < 1.0 else math.inf
    s = e = p = 0.0
    # From x = 1 on the geometric rule stops the pass within 25 pairs.
    # Below it p_open stays True, which keeps that rule off.
    closing = x < 1.0
    if closing:
        p = math.exp(x) * (_polylog_exp(3, x) + x * _polylog_exp(2, x))
        x2 = x * x
        cut = 7.2 * rel_tol  # rel_tol/100, times the 720 of the B4 term
    p_open = True
    pref = 1.0
    for n in range(1, _MAX_TERMS + 1):
        z = n * x
        k0, k1 = _k01(z, scaled=True)
        k2 = k0 + 2.0 * k1 / z
        ts = pref * (k2 / n)
        te = pref * (k1 / z + 3.0 * k2 / (z * z))
        s += ts
        e += te
        if closing:
            g, g1, g2, g3, g4 = _g_derivatives(z, k1, k2)
            # 720 times the B4 terms, which bound the remainders.
            b4s = -pref * x2 * x2 * g3
            b4e = pref * x2 * x * g4
            if b4s <= cut * s and b4e <= cut * e:
                return (s - 0.5 * ts + pref * (k1 / z - x2 * g1 / 12.0) - b4s / 720.0,
                        e - 0.5 * te + pref * (g / x + x * g2 / 12.0) - b4e / 720.0, p, n)
        elif p_open:
            tp = pref * (1.0 / n**3 + x / n**2)
            p += tp
            p_open = tp * bound > rel_tol * p
        pref *= w
        if pref == 0.0 or (not p_open and ts * bound <= rel_tol * s and te * bound <= rel_tol * e):
            return s, e, p, n
    raise ConvergenceError(
        f"scaled Bessel sums did not converge within {_MAX_TERMS} terms at x={x!r}",
        value=(s, e, p),
        terms=_MAX_TERMS,
    )


def _unscaled(x: float, rel_tol: float, index: int, name: str) -> WeightedSum:
    # e^-x times sum number ``index`` of the pass, for the public views.
    _check_positive(x, "x")
    try:
        *sums, terms = _scaled_sum(x, rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{name}: {exc}", value=math.exp(-x) * exc.value[index],
                               terms=exc.terms) from exc
    return WeightedSum(math.exp(-x) * sums[index], terms)


def k2_weighted_sum(x: float, rel_tol: float = SERIES_TOL) -> WeightedSum:
    """sum_{n>=1} K2(n x)/n with the number of terms actually used.

    A view of _scaled_sum, which the gas kernels take on their series route
    (x >= x_switch, default 4.0).  Takes at most 139 terms at the default
    rel_tol below x = 1, and O(1/x) above it (23 at x = 1, 8 at x = 4).
    """
    return _unscaled(x, rel_tol, 0, "k2_weighted_sum")


def energy_bessel_sum(x: float, rel_tol: float = SERIES_TOL) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum."""
    return _unscaled(x, rel_tol, 1, "energy_bessel_sum")
