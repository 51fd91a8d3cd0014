"""Self-contained special functions for the photon-gas kernels.

Provides the modified Bessel function K2 (with K0/K1 as internal helpers),
the polylogarithms Li2, Li3 and Li4 of e^-x for x >= ln 2, the Riemann zeta
values zeta(2), zeta(3), zeta(4), and the Boltzmann-weighted Bessel sums that
appear in the closed-form gas formulas.  Everything here is evaluated from
scratch: K0 and K1 as one pair, by their ascending series up to z = 2, above
it as e^z K0 and e^z K1, by a 24-term Chebyshev series up to z = 25 and by
the Hankel expansion, whose terms fall with z, from there on with no upper
limit, and K2 = K0 + 2 K1/z at every z.  The three polylogarithms come from
one loop over their power series in e^-x, _polylogs.  The tables are
literals, generated by tests/specfun_tables.py.  No third-party
special-function library is involved, so the quadrature oracles elsewhere
in the package remain an independent check.

Below x = _EXPAND_BELOW = 2 the gas kernels take all they need from one
loop, _expansions, of at most 18 terms over two literal tables: the Bessel
sums x^2 sum_n K2(n x)/n and x^4 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
and the polylog combinations Li3 + x Li2 and Li4 + x Li3 + (x^2/3) Li2 of
e^-x, by their expansions about x = 0.  tests/specfun_tables.py generates
the tables from the residues of the sums' Mellin transforms and, in exact
rational arithmetic, from the Bernoulli numbers.

From x = 2 on the Bessel sums come from one pass, _scaled_sum, with one K
pair per term.  Each sum stops once its term is at most 2^-53 of its partial
sum, which leaves out less than 0.16 of that term, so the pass has no
tolerance: 10 to 17 K pairs on [2, 4), 2 to 4 on [16, 40].  Its term count
is the number of K pairs taken.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import DomainError

_EULER_GAMMA = 0.5772156649015329

# The regime edges of the K_nu evaluator: the ascending series up to
# _K_SERIES_MAX, a Chebyshev series up to _K_HANKEL_MIN, where the Hankel
# expansion's 17 terms cost less than the Chebyshev series' 24, and that
# expansion from there on.
_K_SERIES_MAX = 2.0
_K_HANKEL_MIN = 25.0

# Each sum of the Bessel pass stops once its term is at most this fraction
# of its partial sum.
_HALF_ULP = 2.0**-53


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


# pi^4/90 = zeta(4), pi^4/15, pi^2/15 and pi^2/60, correctly rounded, as
# generated by tests/specfun_tables.py; the math.pi expression of each is an
# ulp low.
_PI_POWERS = (
    1.0823232337111381,
    6.493939402266829,
    0.6579736267392906,
    0.16449340668482265,
)

# zeta(2), zeta(3), zeta(4): also Li2, Li3, Li4 at e^-0 = 1.
_ZETA = (math.pi * math.pi / 6.0, _compute_zeta3(), _PI_POWERS[0])


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}; zeta(3) is computed, not hard-coded."""
    if s not in (2, 3, 4):
        raise DomainError(f"zeta_value supports s in {{2, 3, 4}}, got {s!r}")
    return _ZETA[int(s) - 2]


# (n^2, n^3, n^4) of the power series, as exact floats.
_POWERS = tuple((float(n * n), float(n**3), float(n**4)) for n in range(1, 64))


def _polylogs(x: float) -> tuple[float, float, float]:
    """(Li2, Li3, Li4) of w = e^-x for w <= 1/2, that is x >= ln 2, from one
    loop over their power series in w, cut by Li4's tail bound: at most 55
    terms, at w = 1/2, and 19 at x = 2.  Below x = 2 the gas kernels take
    their polylog combinations from _expansions instead."""
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

# Below this x the series route takes every kernel from the expansions
# about x = 0, which need at most 18 terms there.  From it on the Bessel
# pass is the more accurate: the expansions' terms cancel more as x grows,
# to 6.9e-15 near x = 4.
_EXPAND_BELOW = 2.0

# Coefficients of the expansions about x = 0 (see _expansions): (a_j, b_j)
# of x^2 sum_n K2(n x)/n, and c_j of the energy sum with p_j and q_j of the
# two polylog combinations, for j = 1, 2, ...; as generated by
# tests/specfun_tables.py.
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
    (-0.8224670334241132, 0.010416666666666666, 0.001851851851851852),
    (0.10648803637923487, -5.787037037037037e-05, -1.3227513227513228e-05),
    (0.0009515142830747897, 6.889329805996473e-07, 1.749671061840374e-07),
    (-1.2994484782338255e-05, -1.0333994708994709e-08, -2.7835675983824134e-09),
    (2.2405769316738044e-07, 1.7397297489890083e-10, 4.8663769202489744e-11),
    (-4.2298187182628614e-09, -3.1453512730282697e-12, -9.032803655876057e-13),
    (8.40562244070322e-11, 5.974346665484231e-14, 1.7493511804816575e-14),
    (-1.7293075267158889e-12, -1.1769723251120078e-15, -3.4981220808282587e-16),
    (3.649986369227605e-14, 2.3850172378549568e-17, 7.17298417399987e-18),
    (-7.858514598486483e-16, -4.942883405813777e-19, -1.500944581475543e-19),
    (1.7191317437520905e-17, 1.043371747795498e-20, 3.1936248280349156e-21),
    (-3.810279677046989e-19, -2.236292417598161e-22, -6.891093672006184e-23),
    (8.537907598182327e-21, 4.85536681267784e-24, 1.5047709832394498e-24),
    (-1.9309616659044787e-22, -1.065894931790184e-25, -3.3198062391685377e-26),
    (4.402064636643566e-24, 2.3624504711850864e-27, 7.389874396668892e-28),
    (-1.0105194931179539e-25, -5.280138482419303e-29, -1.6579482449847626e-29),
    (2.3338220299950658e-27, 1.1888664016461314e-30, 3.74561769785036e-31),
    (-5.419003571828885e-29, -2.6944407461003727e-32, -8.514656827593694e-33),
    (1.2642825631851106e-30, 6.142588327036213e-34, 1.946369451135094e-34),
    (-2.9622802581419094e-32, -1.4077514379170418e-35, -4.4715870971840234e-36),
)


_LN_2PI = math.log(2.0 * math.pi)


def _expansions(x: float) -> tuple[float, float, float, float, int]:
    """(x^2 S, x^4 E, P, Q, terms) for 0 < x < _EXPAND_BELOW, from one loop:

        S = sum_n K2(n x)/n,  E = sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
        P = Li3(w) + x Li2(w),  Q = Li4(w) + x Li3(w) + (x^2/3) Li2(w),  w = e^-x

    so pi^2 n_hat, pi^2 u_hat, and the polylogs of v_hat = 2 P/(x^2 S) and
    r_hat = (3/2 pi^2) Q, by their expansions about x = 0:

        x^2 S = 2 zeta(3) + sum_j x^2j (a_j + b_j ln x)
        x^4 E = pi^4/15 - x^4 ln(x)/16 + sum_j c_j x^2j
        P     = zeta(3) + x^2 (ln(x)/2 - 1/4) - x^3/6 + sum_j p_j x^(2j+2)
        Q     = zeta(4) - zeta(2) x^2/6 + x^3/9 - x^4/48 + sum_j q_j x^(2j+3)

    The first two are the sums of the residues of their Mellin transforms,
    the last two the log expansions of the polylogs about w = 1 (Wood, Kent
    TR 15-92, 1992), whose ln x terms cancel in Q; all four converge for
    x < 2 pi (tests/specfun_tables.py derives them).  Term j falls about
    as (x/2 pi)^2j, so the loop takes the first n terms, with
    (x/2 pi)^2n <= 1e-17: 1 at x = 1e-8, 5 at 0.1, 11 at 1 and 18 below 2.
    The first term left out is then under 1e-18 of its sum.  The loop sums
    them by Horner's rule from the smallest up, which rounds about half as
    much as summing from the largest.  Where x^2 underflows every term is
    0, and the sums are the massless limits 2 zeta(3), pi^4/15, zeta(3)
    and zeta(4).  terms is n.
    """
    x2 = x * x
    lg = math.log(x)
    n = math.ceil(19.6 / (_LN_2PI - lg))  # 19.6 > ln(1e17)/2
    s = e = p = q = 0.0
    for (a, b), (c, pj, qj) in zip(_K2_SUM_EXPANSION[n - 1::-1], _ENERGY_SUM_EXPANSION[n - 1::-1]):
        s = x2 * (s + (a + b * lg))
        e = x2 * (e + c)
        p = x2 * (p + pj)
        q = x2 * (q + qj)
    zeta2, zeta3, zeta4 = _ZETA
    return (2.0 * zeta3 + s, _PI_POWERS[1] + (e - x2 * x2 * lg / 16.0),
            zeta3 + x2 * ((0.5 * lg - 0.25) - x / 6.0 + p),
            zeta4 + x2 * (-zeta2 / 6.0 + x / 9.0 - x2 / 48.0 + x * q), n)


# ---------------------------------------------------------------------------
# Boltzmann-weighted Bessel sums.
# ---------------------------------------------------------------------------

def _scaled_sum(x: float) -> tuple[float, float, float, int]:
    """(S~, E~, P~, terms) for x >= _EXPAND_BELOW, from one K pair per term.

        S~ = e^x sum_n K2(n x)/n
        E~ = e^x sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
        P~ = e^x [Li3(e^-x) + x Li2(e^-x)] = sum_n e^{-(n-1)x} (n^-3 + x n^-2)

    Term n is e^{-(n-1)x} times e^{nx} K_nu(n x), so every factor stays
    representable however large x gets.  terms counts the K pairs taken.

    A sum stops once its term is at most 2^-53 of its partial sum.  Each
    term is at most w = e^-x times the one before, since
    K_nu((n+1)x) <= e^-x K_nu(n x) follows from (ln K_nu)' <= -1, and the
    polylog terms shrink faster still.  With w <= e^-2 the rest of the sum
    is then under w/(1 - w) < 0.16 of that term.  S~ and E~ share the K
    pairs and stop together, once both terms meet the rule.  P~ is summed
    alongside and stops as soon as its own term meets it: v_hat =
    2 P~/(x^2 S~), and the truncation errors of P~ and S~ largely cancel in
    that ratio when each sum is cut by its own rule.  Once e^{-(n-1)x}
    underflows to 0 every later term is exactly 0, and the pass stops there.
    x must be a number, or the pass never stops.  The terms from n = 2 on
    are summed apart from the first, which they join last: on [2, 4) that
    cuts the rounding of S~ and P~ from up to 6e-16 to 2e-16.
    """
    w = math.exp(-x)
    s = e = p = 0.0  # the terms from n = 2 on
    p_open = True
    pref = 1.0
    for n in itertools.count(1):
        z = n * x
        k0, k1 = _k01_scaled(z)
        k2 = k0 + 2.0 * k1 / z
        ts = pref * (k2 / n)
        te = pref * (k1 / z + 3.0 * k2 / (z * z))
        tp = pref * (1.0 / n**3 + x / n**2) if p_open else 0.0
        if n == 1:
            s1, e1, p1 = ts, te, tp
        else:
            s, e, p = s + ts, e + te, p + tp
        p_open = tp > _HALF_ULP * (p1 + p)
        pref *= w
        if pref == 0.0 or (not p_open and ts <= _HALF_ULP * (s1 + s)
                           and te <= _HALF_ULP * (e1 + e)):
            return s1 + s, e1 + e, p1 + p, n


def _view(x: float, index: int, name: str) -> WeightedSum:
    # Sum number ``index`` of the pass, S or E, for the public views: below
    # _EXPAND_BELOW the expansion over x^2 or x^4, from it on e^-x times
    # the scaled sum.
    _check_positive(x, "x")
    if x < _EXPAND_BELOW:
        sums = _expansions(x)
        scale = (x * x) ** (index + 1)
        value = sums[index] / scale if scale else math.inf
        if value == math.inf:
            raise DomainError(f"{name}: the sum overflows a double at x={x!r}")
        return WeightedSum(value, sums[-1])
    sums = _scaled_sum(x)
    return WeightedSum(math.exp(-x) * sums[index], sums[-1])


def k2_weighted_sum(x: float) -> WeightedSum:
    """sum_{n>=1} K2(n x)/n with the number of terms actually used.

    Below x = 2 from the expansions about x = 0 that the gas kernels take
    there (1 to 18 terms), from 2 on from the Bessel pass that they take
    from x_switch up (17 K pairs at x = 2, at most 4 from x = 16 on).  Raises
    DomainError where the sum overflows a double, below x of about 1.2e-154.
    """
    return _view(x, 0, "k2_weighted_sum")


def energy_bessel_sum(x: float) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum.

    From the same two routes as k2_weighted_sum; raises DomainError where
    the sum overflows a double, below x of about 1.4e-77.
    """
    return _view(x, 1, "energy_bessel_sum")
