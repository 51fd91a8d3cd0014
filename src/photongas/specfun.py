"""Self-contained special functions for the photon-gas kernels.

Provides the modified Bessel function K2 (with K0/K1 as internal helpers),
the polylogarithms Li2, Li3 and Li4 of e^-x for x >= 0, the Riemann zeta
values zeta(2), zeta(3), zeta(4), and the Boltzmann-weighted Bessel sums that
appear in the closed-form gas formulas.  Everything here is evaluated from
scratch: K0 and K1 as one pair, by their ascending series up to z = 2, above
it as e^z K0 and e^z K1, by a 24-term Chebyshev series up to z = 25 and by
the Hankel expansion, whose terms fall with z, from there on with no upper
limit, and K2 = K0 + 2 K1/z at every z.  The three polylogarithms come from
one loop, _polylogs: their log expansion about e^-x = 1 for x < 1, and the
power series in e^-x from there on.  The tables are literals, generated by
tests/specfun_tables.py.  No third-party special-function library is
involved, so the quadrature oracles elsewhere in the package remain an
independent check.

Below x = _EXPAND_BELOW = 2 the gas kernels take the Bessel sums
x^2 sum_n K2(n x)/n and x^4 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2] from
their expansions about x = 0, _expansions: one loop of at most 18 terms
over two literal tables, which tests/specfun_tables.py generates from the
residues of the sums' Mellin transforms.

Elsewhere the Bessel sums come from one pass, _scaled_sum, with one K pair
per term.
Below x = 4 it closes their tails by Euler-Maclaurin from the current pair,
as soon as the B4 term that bounds the remainder falls under series_tol/100
of each partial sum (at most 139 pairs at the default tolerance for x above
about 1e-45, 22 at x = 1), and takes the polylog sum from its closed form.
From x = 4 on it stops once each term and a geometric bound on the rest fall
under series_tol.  Its term count is the number of K pairs taken, the
closing pair included.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

_EULER_GAMMA = 0.5772156649015329

# The regime edges of the K_nu evaluator: the ascending series up to
# _K_SERIES_MAX, a Chebyshev series up to _K_HANKEL_MIN, where the Hankel
# expansion's 17 terms cost less than the Chebyshev series' 24, and that
# expansion from there on.
_K_SERIES_MAX = 2.0
_K_HANKEL_MIN = 25.0

# Default relative truncation tolerance of the Bessel sums, and their cap on
# terms.
SERIES_TOL = 1e-12
_MAX_TERMS = 20000

# Below this x the Bessel pass closes its sums by Euler-Maclaurin, from it on
# it cuts them by a geometric tail bound: each rule is the better on its side.
_CLOSE_BELOW = 4.0


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


# Halved Chebyshev coefficients of sqrt(z) e^z K0(z) and sqrt(z) e^z K1(z)
# in y = 4/z - 1 on z > 2, highest order first; tests/specfun_tables.py
# generates them with mpmath.  The first omitted pair is below 3e-18.
_K01_CHEBYSHEV = (
    (-8.237902969921316e-18, 8.970255239431786e-18),
    (2.6051958888217772e-17, -2.844731424596824e-17),
    (-8.391155628774503e-17, 9.190467876215227e-17),
    (2.7560279997021668e-16, -3.028523635321509e-16),
    (-9.242966889604536e-16, 1.0193515831199305e-15),
    (3.170038238138323e-15, -3.5099185446073842e-15),
    (-1.1137566633731482e-14, 1.2385772121097994e-14),
    (4.0164453875341873e-14, -4.488352591005073e-14),
    (-1.4900484615740892e-13, 1.6742098330261216e-13),
    (5.701702941036721e-13, -6.445869804749114e-13),
    (-2.2572989416872596e-12, 2.5698198367411716e-12),
    (9.279745574774632e-12, -1.0649839192138955e-11),
    (-3.978744622238698e-11, 4.609157593802657e-11),
    (1.7886986407001642e-10, -2.0951773796709627e-10),
    (-8.487672546945307e-10, 1.0075248775985173e-09),
    (4.287017008707113e-09, -5.172881232839048e-09),
    (-2.330244948843974e-08, 2.8705420627250247e-08),
    (1.3834068197225074e-07, -1.7509803015439063e-07),
    (-9.158777613595598e-07, 1.2032424739186085e-06),
    (6.97490685943825e-06, -9.680989870830415e-06),
    (-6.424774790813901e-05, 9.760775923567581e-05),
    (0.0007849419428650267, -0.0014289084298113896),
    (-0.01572405065598225, 0.05196186828840862),
    (1.2201515410329777, 1.3603130952422213),
)


def _k01_chebyshev(z: float) -> tuple[float, float]:
    # (e^z K0, e^z K1) for 2 < z < _K_HANKEL_MIN: both Chebyshev series in
    # one Clenshaw loop, as Cephes' k0e/k1e (Moshier 1989).
    y2 = 8.0 / z - 2.0
    b0 = b1 = b2 = d0 = d1 = d2 = 0.0
    for c0, c1 in _K01_CHEBYSHEV:
        b0, b1, b2 = y2 * b0 - b1 + c0, b0, b1
        d0, d1, d2 = y2 * d0 - d1 + c1, d0, d1
    r = math.sqrt(z)
    return (b0 - b2) / r, (d0 - d2) / r


# Ratios a_k/a_(k-1) = (4 nu^2 - (2k-1)^2)/(8k) of the Hankel expansion for
# nu = 0 and 1, as generated by tests/specfun_tables.py.
_HANKEL = (
    (-0.125, 0.375),
    (-0.5625, -0.3125),
    (-1.0416666666666667, -0.875),
    (-1.53125, -1.40625),
    (-2.025, -1.925),
    (-2.5208333333333335, -2.4375),
    (-3.017857142857143, -2.9464285714285716),
    (-3.515625, -3.453125),
    (-4.013888888888889, -3.9583333333333335),
    (-4.5125, -4.4625),
    (-5.011363636363637, -4.965909090909091),
    (-5.510416666666667, -5.46875),
    (-6.009615384615385, -5.971153846153846),
    (-6.508928571428571, -6.473214285714286),
    (-7.008333333333334, -6.975),
    (-7.5078125, -7.4765625),
    (-8.007352941176471, -7.977941176470588),
    (-8.506944444444445, -8.479166666666666),
    (-9.006578947368421, -8.980263157894736),
    (-9.50625, -9.48125),
)


def _k01_hankel(z: float) -> tuple[float, float]:
    # (e^z K0, e^z K1) for z >= _K_HANKEL_MIN by the Hankel expansion
    # e^z K_nu(z) ~ sqrt(pi/2z) sum_k a_k(nu)/z^k (DLMF 10.40.2).  For real
    # z the remainder is smaller than the first omitted term (DLMF 10.40(ii)),
    # and the K1 terms are the larger, so the sum stops once a K1 term falls
    # under 1e-16: after 17 terms at z = 25, 6 at 1e3, 3 at 1e6, 2 at 1e12
    # and 1 from about 4e15 on.  The terms are summed apart from the leading
    # 1, and sqrt(pi/2z) is taken in one root: both halve the rounding.
    w = 1.0 / z
    t0 = t1 = 1.0
    e0 = e1 = 0.0
    for a0, a1 in _HANKEL:
        t0 *= a0 * w
        t1 *= a1 * w
        e0 += t0
        e1 += t1
        if abs(t1) < 1e-16:
            break
    r = math.sqrt(0.5 * math.pi / z)
    return r + r * e0, r + r * e1


def _k01_scaled(z: float) -> tuple[float, float]:
    """(e^z K0(z), e^z K1(z)) for z > 0, unchecked; the Bessel pass's pair."""
    if z <= _K_SERIES_MAX:
        k0, k1 = _k01_series(z)
        factor = math.exp(z)
        return factor * k0, factor * k1
    if z < _K_HANKEL_MIN:
        return _k01_chebyshev(z)
    return _k01_hankel(z)


def _k01(z: float) -> tuple[float, float]:
    """(K0(z), K1(z)) for z > 0; past z of about 700 both underflow to 0."""
    _check_positive(z, "z")
    if z <= _K_SERIES_MAX:
        return _k01_series(z)
    k0, k1 = _k01_scaled(z)
    factor = math.exp(-z)
    return factor * k0, factor * k1


def bessel_k2(z: float) -> float:
    """Modified Bessel function of the second kind K2(z) = K0 + 2 K1/z, z > 0.

    Relative error is at most 6.1e-16 against mpmath across z in
    [1e-4, 700] (4000 log-spaced points and 199 more in (2, 2.5]).  For z
    beyond ~700 the value drops under 1e-300 and degrades gracefully to
    zero instead of raising.
    """
    k0, k1 = _k01(z)
    return k0 + 2.0 * k1 / z


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


# zeta(2), zeta(3), zeta(4): also Li2, Li3, Li4 at e^-0 = 1.
_ZETA = (math.pi * math.pi / 6.0, _compute_zeta3(), math.pi**4 / 90.0)


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}; zeta(3) is computed, not hard-coded."""
    if s not in (2, 3, 4):
        raise DomainError(f"zeta_value supports s in {{2, 3, 4}}, got {s!r}")
    return _ZETA[int(s) - 2]


# zeta(1 - 2j) = -B_2j/(2j) for j = 1..20, from the Bernoulli numbers
# B_2..B_40, as generated by tests/specfun_tables.py: the log expansion of
# Li_s near z = 1 takes zeta at these arguments.
_ZETA_NEG_ODD = (
    -1 / 12,
    1 / 120,
    -1 / 252,
    1 / 240,
    -1 / 132,
    691 / 32760,
    -1 / 12,
    3617 / 8160,
    -43867 / 14364,
    174611 / 6600,
    -77683 / 276,
    236364091 / 65520,
    -657931 / 12,
    3392780147 / 3480,
    -1723168255201 / 85932,
    7709321041217 / 16320,
    -151628697551 / 12,
    26315271553053477373 / 69090840,
    -154210205991661 / 12,
    261082718496449122051 / 541200,
)

# Branch boundary between the log expansion and the power series, in
# u = -ln z = x.  The log expansion converges for u < 2 pi, and below u = 1
# it needs at most 10 of the zeta(1 - 2j); from u = 1 up the power series
# needs at most 38 terms.
_U_SWITCH = 1.0

# (n^2, n^3, n^4) of the power series, as exact floats.
_POWERS = tuple((float(n * n), float(n**3), float(n**4)) for n in range(1, 64))


def _polylogs(x: float) -> tuple[float, float, float]:
    """(Li2, Li3, Li4) of e^-x for x >= 0, from one loop.

    Below _U_SWITCH, the log expansion, valid for x < 2 pi (Wood, Kent
    TR 15-92, 1992), with m_k = (-x)^k/k!:

        Li_s(e^-x) = sum_{k != s-1} zeta(s-k) m_k + m_(s-1) (H_{s-1} - ln x)

    Past k = s, zeta(s-k) is 0 except zeta(1-2j) at k = s+2j-1, so the
    three tails take m_(2j+1), m_(2j+2) and m_(2j+3) from one chain, each j
    smaller by about (x/2 pi)^2, and stop on Li2's, the largest relative
    step.  Above, the power series in e^-x, cut by Li4's tail bound.
    """
    if x == 0.0:
        return _ZETA
    if x < _U_SWITCH:
        zeta2, zeta3, zeta4 = _ZETA
        m1 = -x
        m2 = m1 * (-x / 2)
        m3 = m2 * (-x / 3)
        m4 = m3 * (-x / 4)
        lg = math.log(x)
        li2 = zeta2 + m1 * (1.0 - lg) - 0.5 * m2
        li3 = zeta3 + zeta2 * m1 + m2 * (1.5 - lg) - 0.5 * m3
        li4 = zeta4 + zeta3 * m1 + zeta2 * m2 + m3 * (11.0 / 6.0 - lg) - 0.5 * m4
        m, k = m3, 3
        for zeta in _ZETA_NEG_ODD:
            step = zeta * m
            li2 += step
            m *= -x / (k + 1)
            li3 += zeta * m
            k += 2
            m *= -x / k
            li4 += zeta * m
            if abs(step) < 1e-17 * li2:
                break
        return li2, li3, li4
    w = math.exp(-x)
    cut = (1.0 - w) * 1e-16
    li2 = li3 = li4 = 0.0
    wn = 1.0
    for n2, n3, n4 in _POWERS:
        wn *= w
        li2 += wn / n2
        li3 += wn / n3
        li4 += wn / n4
        if wn * w <= cut * li4:
            break
    return li2, li3, li4


# ---------------------------------------------------------------------------
# The gas kernels' Bessel sums about x = 0.
# ---------------------------------------------------------------------------

# Below this x the series route takes x^2 sum_n K2(n x)/n and the energy
# sum from their expansions about x = 0, which need at most 18 terms there.
# From it on the Bessel pass is the more accurate: the expansions' terms
# cancel more as x grows, to 6.9e-15 near x = 4.
_EXPAND_BELOW = 2.0

# Coefficients of the expansions about x = 0 (see _expansions): (a_j, b_j)
# of x^2 sum_n K2(n x)/n and c_j of the energy sum, for j = 1, 2, ...; as
# generated by tests/specfun_tables.py.
_K2_SUM_EXPANSION = (
    (-0.5965735902799727, 0.5),
    (-0.029697762917331495, 0.010416666666666666),
    (0.0001890648737203121, -8.680555555555556e-05),
    (-2.6506575641419882e-06, 1.2917493386243386e-06),
    (4.519745112109212e-08, -2.2605613425925925e-08),
    (-8.431803899664349e-10, 4.2813661791526375e-10),
    (1.6598406212420198e-11, -8.514564188314808e-12),
    (-3.389968797349112e-13, 1.7520471715282372e-13),
    (7.114205137537646e-15, -3.698152789109263e-15),
    (-1.5246923684371607e-16, 7.962309592747284e-17),
    (3.322927854819893e-18, -1.7418429689875224e-18),
    (-7.341953199010248e-20, 3.8606195481775336e-20),
    (1.6408130409432902e-21, -8.650708521083696e-22),
    (-3.7025327331181446e-23, 1.9564731864189592e-23),
    (8.4242430004105e-25, -4.460223977932017e-25),
    (-1.9305239647505574e-26, 1.0238703104100993e-26),
    (4.451866657807344e-28, -2.364656104346069e-28),
    (-1.0323118997683937e-29, 5.490598560277992e-30),
    (2.405549521463798e-31, -1.2809860575842e-31),
    (-5.630244557262817e-33, 3.0014174203417623e-33),
)
_ENERGY_SUM_EXPANSION = (
    -0.8224670334241132,
    0.10648803637923487,
    0.0009515142830747897,
    -1.2994484782338255e-05,
    2.2405769316738044e-07,
    -4.2298187182628614e-09,
    8.40562244070322e-11,
    -1.7293075267158889e-12,
    3.649986369227605e-14,
    -7.858514598486483e-16,
    1.7191317437520905e-17,
    -3.810279677046989e-19,
    8.537907598182327e-21,
    -1.9309616659044787e-22,
    4.402064636643566e-24,
    -1.0105194931179539e-25,
    2.3338220299950658e-27,
    -5.419003571828885e-29,
    1.2642825631851106e-30,
    -2.9622802581419094e-32,
)


# The massless limits of x^2 S and x^4 E below: 2 zeta(3), and pi^4/15
# correctly rounded (math.pi**4/15 is an ulp low).
_MASSLESS_SUMS = (2.0 * _ZETA[1], 6.493939402266829)
_LN_2PI = math.log(2.0 * math.pi)


def _expansions(x: float) -> tuple[float, float]:
    """(x^2 S, x^4 E) for 0 < x < _EXPAND_BELOW, from one loop, with

        S = sum_n K2(n x)/n,  E = sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2],

    so pi^2 n_hat and pi^2 u_hat, by their expansions about x = 0:

        x^2 S = 2 zeta(3) + sum_j x^2j (a_j + b_j ln x)
        x^4 E = pi^4/15 - x^4 ln(x)/16 + sum_j c_j x^2j

    the sums of the residues of their Mellin transforms, which converge for
    x < 2 pi (tests/specfun_tables.py derives them).  Term j falls about
    as (x/2 pi)^2j, so the loop takes the first n terms, with
    (x/2 pi)^2n <= 1e-17: 1 at x = 1e-8, 5 at 0.1, 11 at 1 and 18 below 2.
    The first term left out is then under 1e-18 of its sum.  The loop sums
    them by Horner's rule from the smallest up, which rounds about half as
    much as summing from the largest.  Where x^2 underflows every term is
    0, and the sums are the massless limits 2 zeta(3) and pi^4/15.
    """
    x2 = x * x
    lg = math.log(x)
    n = math.ceil(19.6 / (_LN_2PI - lg))  # 19.6 > ln(1e17)/2
    s = e = 0.0
    for (a, b), c in zip(_K2_SUM_EXPANSION[n - 1::-1], _ENERGY_SUM_EXPANSION[n - 1::-1]):
        s = x2 * (s + (a + b * lg))
        e = x2 * (e + c)
    s0, e0 = _MASSLESS_SUMS
    return s0 + s, e0 + (e - x2 * x2 * lg / 16.0)


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


def _scaled_sum(x: float, rel_tol: float,
                polylogs: tuple[float, float, float] | None = None) -> tuple[float, float, float, int]:
    """(S~, E~, P~, terms): three e^x-scaled sums from one K pair per term.

        S~ = e^x sum_n K2(n x)/n
        E~ = e^x sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
        P~ = e^x [Li3(e^-x) + x Li2(e^-x)] = sum_n e^{-(n-1)x} (n^-3 + x n^-2)

    Term n is e^{-(n-1)x} times e^{nx} K_nu(n x), so every factor stays
    representable however large x gets.  terms counts the K pairs taken,
    the closing pair included.  Two stop rules:

    * Below x = _CLOSE_BELOW = 4, the tails of S~ and E~ from term N on are
      closed by Euler-Maclaurin with z = N x, g = K2/t and h = -g' (DLMF
      2.10.1):

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
      partial sums, with no extra K evaluation: 8 to 139 pairs at the
      default rel_tol for any x from about 1e-45 to 4, 22 at x = 1.  P~ is
      the closed form, from polylogs = _polylogs(x), which the caller may
      pass.  The B4 terms fall as z grows; where they still overflow at
      z = _MAX_TERMS x (x below about 1.2e-48), the closure can never be
      met, and the pass raises before its first pair, with nan for S~ and
      E~.  Above x = 2 pi the closure's Bernoulli series diverges.
    * From x = 4 on, a sum has met the stop rule when its current term AND
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
    # From _CLOSE_BELOW on the geometric rule stops the pass within 8 pairs
    # at the default rel_tol.  Below it p_open stays True, keeping it off.
    closing = x < _CLOSE_BELOW
    if closing:
        li2, li3, _ = polylogs or _polylogs(x)
        p = math.exp(x) * (li3 + x * li2)
        x2 = x * x
        cut = 7.2 * rel_tol  # rel_tol/100, times the 720 of the B4 term
        if w == 1.0:
            # pref stays 1, so the B4 terms of the last pair allowed are
            # the smallest the pass can reach.
            z = _MAX_TERMS * x
            k0, k1 = _k01_scaled(z)
            g3, g4 = _g_derivatives(z, k1, k0 + 2.0 * k1 / z)[3:]
            if not math.isfinite(-x2 * x2 * g3 + x2 * x * g4):
                raise ConvergenceError(f"scaled Bessel sums cannot converge within {_MAX_TERMS} "
                                       f"terms at x={x!r}: the closure overflows",
                                       value=(math.nan, math.nan, p), terms=0)
    p_open = True
    pref = 1.0
    for n in range(1, _MAX_TERMS + 1):
        z = n * x
        k0, k1 = _k01_scaled(z)
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
    from x = 2 up (x >= x_switch, default 4.0; below 2 they take
    _expansions).  Takes at most 139 terms at the default rel_tol for x
    above about 1e-45, and O(1/x) from x = 1 up (22 at x = 1, 8 at x = 4).
    """
    return _unscaled(x, rel_tol, 0, "k2_weighted_sum")


def energy_bessel_sum(x: float, rel_tol: float = SERIES_TOL) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum."""
    return _unscaled(x, rel_tol, 1, "energy_bessel_sum")
