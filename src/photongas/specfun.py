"""Self-contained special functions for the photon-gas kernels.

Provides the modified Bessel function K2 (with K0/K1 as internal helpers),
the Riemann zeta values zeta(2), zeta(3), zeta(4), and the Boltzmann-weighted
Bessel sums and polylog combinations that appear in the closed-form gas
formulas.  Everything here is evaluated from scratch: K0 and K1 as one pair,
by their ascending series up to z = 2, above it as e^z K0 and e^z K1, by a
24-term Chebyshev series up to z = 25 and by the Hankel expansion, whose
terms fall with z, from there on with no upper limit, and K2 = K0 + 2 K1/z
at every z.  The tables are literals, generated by tests/specfun_tables.py.
No third-party special-function library is involved, so the quadrature
oracles elsewhere in the package remain an independent check.

Below x = _EXPAND_BELOW = 2 the gas kernels take all they need from one
loop, _expansions, of at most 18 terms over two literal tables: the Bessel
sums x^2 sum_n K2(n x)/n and x^4 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
and the polylog combinations Li3 + x Li2 and Li4 + x Li3 + (x^2/3) Li2 of
e^-x, by their expansions about x = 0.  tests/specfun_tables.py generates
the tables from the residues of the sums' Mellin transforms and, in exact
rational arithmetic, from the Bernoulli numbers.

From x = 2 up to x = _ONE_TERM_FROM = 40 they take the Bessel sums, v_hat
and the radiance's polylog combination from one Clenshaw loop,
_sum_chebyshev, over literal Chebyshev tables in ln x on four pieces, 16 to
19 rows, which tests/specfun_tables.py generates from a quadrature of the
defining integrals.  From 40 on all later terms of the sums are below e^-40
of the first, so one K pair, _one_term, gives them, and each Li_s(e^-x) is
e^-x.  Neither form loops to convergence or has a tolerance.
"""

from __future__ import annotations

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
    """(e^z K0(z), e^z K1(z)) for z > 0, unchecked."""
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
# Riemann zeta.
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
_PI_RATIOS = (
    1.0823232337111381,
    6.493939402266829,
    0.6579736267392906,
    0.16449340668482265,
)

# zeta(2), zeta(3), zeta(4): also Li2, Li3, Li4 at e^-0 = 1.
_ZETA = (math.pi * math.pi / 6.0, _compute_zeta3(), _PI_RATIOS[0])


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}; zeta(3) is computed, not hard-coded."""
    if s not in (2, 3, 4):
        raise DomainError(f"zeta_value supports s in {{2, 3, 4}}, got {s!r}")
    return _ZETA[int(s) - 2]


# ---------------------------------------------------------------------------
# The gas kernels' Bessel sums about x = 0.
# ---------------------------------------------------------------------------

# Below this x the series route takes every kernel from the expansions
# about x = 0, which need at most 18 terms there.  From it on the tables
# of _sum_chebyshev are the more accurate: the expansions' terms cancel
# more as x grows, to 6.9e-15 near x = 4.
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
    return (2.0 * zeta3 + s, _PI_RATIOS[1] + (e - x2 * x2 * lg / 16.0),
            zeta3 + x2 * ((0.5 * lg - 0.25) - x / 6.0 + p),
            zeta4 + x2 * (-zeta2 / 6.0 + x / 9.0 - x2 / 48.0 + x * q), n)


# ---------------------------------------------------------------------------
# The gas kernels' sums from x = 2 up.
# ---------------------------------------------------------------------------

# From this x on every term of the Bessel sums and of the polylog
# combinations past the first is below e^-x < 4.3e-18 of it, so the first
# alone is the sum to double precision.
_ONE_TERM_FROM = 40.0

# Per piece [2, 4), [4, 8), [8, 16) and [16, 40): its top, mid and scale
# of the map y = (ln x - mid) scale/2 onto [-1, 1), and the halved
# Chebyshev coefficients (a_k, b_k, c_k, d_k) in y, highest order first, of
# a = e^x sqrt(x) S, b = e^x x^1.5 E, c = sqrt(x) v_hat and
# d = e^x Q/(1 + x + x^2/3) (see _sum_chebyshev); as generated by
# tests/specfun_tables.py.  The first omitted row is below 2e-18 of the
# leading one.
_SUM_CHEBYSHEV = (
    (4.0, 1.0397207708399179, 5.7707801635558535, (
        (-2.2072124420317785e-17, -1.9306034380143705e-17, 1.3299415816014825e-17, -1.6224046544163822e-17),
        (-4.570517848898548e-16, -3.944906209237006e-16, 1.6594601955405554e-16, -2.2191347434491556e-16),
        (-1.851507083965976e-15, -3.680090223328478e-15, -2.0438443527810697e-17, -3.0770833624433413e-16),
        (3.448120163860517e-14, 7.395759356243098e-14, -2.0419318368674825e-14, 2.220566491470993e-14),
        (5.273842561456613e-13, -7.306380595347214e-13, -1.8835260576643033e-13, 2.680221506890408e-13),
        (1.2404387250097468e-12, 3.363190003295138e-11, 8.194416257762687e-13, -6.547865471451052e-15),
        (-5.8113030745355006e-11, -7.92737728176035e-10, 3.135931442387963e-11, -3.720425064733465e-11),
        (-3.0400985727043484e-10, 1.5302007737243153e-08, 1.5731173051679484e-10, -3.2709469571757384e-10),
        (-7.31149444184049e-09, -3.027278281386719e-07, -3.1763875312738366e-09, 2.8999375487905766e-09),
        (2.9164145283760257e-07, 5.208230943659119e-06, -4.42687962262572e-08, 5.782362607905078e-08),
        (-4.600591061359841e-06, -7.649760914161891e-05, 3.1130398522351505e-07, -1.5456014782224186e-07),
        (9.535282264163751e-05, 0.000997613242627499, 8.572378696506264e-06, -6.55026556580068e-06),
        (-0.0017934762384473751, -0.0111794598123386, -7.469724426366708e-05, 1.565429336132408e-05),
        (0.023350470958565805, 0.10113221233660451, -0.0018690371979027823, 0.000556933526092077),
        (-0.20787129487163614, -0.6837813951628595, 0.047613647084171075, -0.004478103897507601),
        (2.282830655557143, 3.986470677709136, 1.2227154653339083, 1.011209338698048),
    )),
    (8.0, 1.7328679513998633, 5.7707801635558535, (
        (1.4907907793864948e-17, 1.6313815163178803e-17, -1.4051468898317124e-18, 3.576895199670672e-18),
        (-1.814876984580729e-16, -1.6276326793728543e-16, 8.689296737190553e-17, -1.185708218731523e-16),
        (-1.830404961544053e-15, -1.920353136694183e-15, 3.305146174876065e-16, -6.398150564616397e-16),
        (1.2685146423002487e-14, 1.0306046370607662e-14, -7.568547886257992e-15, 9.62143932118911e-15),
        (1.9373457526318524e-13, 2.0654252260827702e-13, -4.545289513228729e-14, 8.111158756745597e-14),
        (-7.16948168329716e-13, -7.242891348068294e-13, 6.09696268436174e-13, -6.991333788402924e-13),
        (-1.7948200282224973e-11, -1.2300871936126155e-11, 4.800872530405824e-12, -8.401086764198875e-12),
        (2.8693416693351062e-11, -1.2497230600397851e-10, -4.96439236371504e-11, 5.043600106237179e-11),
        (1.6231816193241132e-09, 4.435616192291248e-09, -4.0681346981773925e-10, 7.442389984071312e-10),
        (-4.287568918456688e-09, -5.689805558127036e-08, 4.736239206722444e-09, -4.436025012617287e-09),
        (-4.814504386845273e-08, 8.927094027079153e-07, 2.0679539997774142e-08, -5.302917380273797e-08),
        (-1.6069572826096758e-06, -1.6035098169277217e-05, -5.52180887623483e-07, 4.809907011352128e-07),
        (4.7943560660119424e-05, 0.00023552044324067362, 3.31080588551686e-06, 1.7251766243494563e-06),
        (-0.0007247702600421982, -0.0028071503771735203, 4.557714947096414e-05, -4.23550429240922e-05),
        (0.00891155588994481, 0.028213606380728024, -0.001956907077513073, 0.0002585336860093519),
        (-0.08621494639105234, -0.22332152952794093, 0.03143787263258416, -0.0007866902666809558),
        (1.718582566098652, 2.2914758718217993, 1.3809459200364977, 1.0012074670604865),
    )),
    (16.0, 2.4260151319598084, 5.7707801635558535, (
        (2.130071352019756e-17, 2.2246363492611234e-17, -4.991834728576405e-18, 9.213878800288598e-18),
        (-1.5342724316933972e-16, -1.3731409718327502e-16, 7.879964111493783e-17, -1.09946964272454e-16),
        (-1.5256979104394215e-15, -1.6567209851431298e-15, 2.39218724294555e-16, -5.384635324100969e-16),
        (1.632503408221063e-14, 1.525123715479373e-14, -6.790616815381631e-15, 1.0044929657273671e-14),
        (6.84398481752658e-14, 8.508445452806667e-14, 4.523544651297178e-15, 9.131713892547415e-15),
        (-1.445723763485987e-12, -1.464325030846206e-12, 4.564559844305221e-13, -7.492602210005479e-13),
        (1.1545857924781654e-12, 8.330645463666183e-13, -2.327702116816207e-12, 2.57609348435535e-12),
        (9.183388734228789e-11, 7.327540737291507e-11, -1.6149716483253943e-11, 3.574466890407818e-11),
        (-5.542016205471507e-10, 4.90291487783092e-11, 2.2489309345815749e-10, -3.630583694256242e-10),
        (-3.240973622237113e-09, -1.4801217458055831e-08, -7.002008401315815e-10, 3.0571214011718434e-10),
        (8.284212497951066e-08, 2.740890760226684e-07, -1.8230964475298085e-09, 1.7811735777933292e-08),
        (-1.0288548329156077e-06, -3.982069907829497e-06, -3.947337368148713e-09, -1.741253051684744e-07),
        (1.4484065415320236e-05, 5.642667672391391e-05, -6.82765150658255e-07, 9.267702182243631e-07),
        (-0.0002414125327676934, -0.0007724101207613434, 5.0961788674932194e-05, -3.2867641505413326e-06),
        (0.003637407775276589, 0.009369595156366746, -0.0013226953284092098, 8.154354152835239e-06),
        (-0.03938366226227666, -0.08689134553174559, 0.018300275190601567, -1.4218716426715617e-05),
        (1.476062654324144, 1.701898278833694, 1.4793537966451862, 1.0000171871072816),
    )),
    (40.0, 3.2307340881768587, 4.365426671749166, (
        (4.76954635816482e-18, 4.978056534593887e-18, -1.3398255152628117e-18, 2.2697454111929402e-18),
        (-2.3515416351913603e-17, -2.2908425764200028e-17, 9.029976760791257e-18, -1.364970171071803e-17),
        (-2.8292793764242886e-17, -4.013092218640763e-17, -7.176694494128009e-18, 2.0026545400624867e-18),
        (9.537807441248047e-16, 1.0129692876986092e-15, -2.4326864120441938e-16, 4.2820249686103695e-16),
        (-5.297194968986931e-15, -5.2913834316186485e-15, 1.772382846688261e-15, -2.8150763463363776e-15),
        (6.6179019365988705e-15, 4.17523530840129e-15, -4.750645536225571e-15, 6.207459173255251e-15),
        (1.161119229527206e-13, 1.4148218513023132e-13, -1.7127296498925347e-14, 3.8220135846775635e-14),
        (-1.1466297454722506e-12, -1.3745566998227901e-12, 2.6610554526867656e-13, -4.764299879864438e-13),
        (6.609100770456125e-12, 9.341127541262866e-12, -1.7120189303535537e-12, 2.8887112973712794e-12),
        (-3.070213994144529e-11, -7.37284917463786e-11, 7.207406175975674e-12, -1.2709573379224044e-11),
        (1.7062496550666657e-10, 8.880069405665347e-10, -6.615974599568834e-13, 4.468345595226559e-11),
        (-2.00077845672105e-09, -1.3407930688985161e-08, -5.421185683063766e-10, -1.3068650833528543e-10),
        (3.7707328245274285e-08, 2.057444054523473e-07, 7.583350059330795e-09, 3.2465113989025084e-10),
        (-7.45869153032302e-07, -3.023230066721892e-06, 8.978140309792964e-09, -6.932435378806205e-10),
        (1.363309344786536e-05, 4.195807950583708e-05, -3.017990031255992e-06, 1.2816152773098689e-09),
        (-0.0002143688209900171, -0.000533123315892518, 8.066304249588529e-05, -2.060340600065229e-09),
        (0.002654716660339266, 0.005730468463483317, -0.0012578465911385834, 2.887882071909622e-09),
        (-0.02263849776549562, -0.04496103210292635, 0.011983671962350378, -3.5346044988869383e-09),
        (1.3530703847294874, 1.4428757152407208, 1.540059902786181, 1.000000003780597),
    )),
)


def _sum_chebyshev(x: float) -> tuple[float, float, float, float, int]:
    """(a, b, c, d, rows) for _EXPAND_BELOW <= x < _ONE_TERM_FROM:

        a = e^x sqrt(x) S          = pi^2 e^x n_hat/x^1.5
        b = e^x x^1.5 E            = pi^2 e^x u_hat/x^2.5
        c = sqrt(x) v_hat
        d = e^x Q/(1 + x + x^2/3)  = (2 pi^2/3) e^x r_hat/(1 + x + x^2/3)

    with S, E and Q the Bessel sums and the polylog combination of
    _expansions, so all four kernels from x = 2 up to the one-term form.
    All four are smooth in ln x and tend to constants as x grows, d to 1,
    and their Chebyshev series in ln x over the piece of _SUM_CHEBYSHEV
    that holds x are summed in one Clenshaw loop, as _k01_chebyshev sums
    its pair: 16 rows on [2, 4), 17 on [4, 16), 19 on [16, 40).  rows is
    that count.  The recurrence beta_k = y2 beta_(k+1) - beta_(k+2) + c_k
    runs one row short, to beta_1 and beta_2 of each series (a1 and a2 for
    a), and the last row gives beta_0 and the sum beta_0 - beta_2.
    """
    for top, mid, scale, rows in _SUM_CHEBYSHEV:
        if x < top:
            break
    y2 = (math.log(x) - mid) * scale
    a1 = a2 = b1 = b2 = c1 = c2 = d1 = d2 = 0.0
    for ca, cb, cc, cd in rows[:-1]:
        a1, a2 = y2 * a1 - a2 + ca, a1
        b1, b2 = y2 * b1 - b2 + cb, b1
        c1, c2 = y2 * c1 - c2 + cc, c1
        d1, d2 = y2 * d1 - d2 + cd, d1
    ca, cb, cc, cd = rows[-1]
    return (y2 * a1 - a2 + ca - a2, y2 * b1 - b2 + cb - b2, y2 * c1 - c2 + cc - c2,
            y2 * d1 - d2 + cd - d2, len(rows))


def _one_term(x: float) -> tuple[float, float, float]:
    """(S~, E~, P~) for x >= _ONE_TERM_FROM, from one K pair:

        S~ = e^x K2(x),  E~ = e^x [K1(x)/x + 3 K2(x)/x^2],  P~ = 1 + x

    the first terms of e^x S, e^x E and e^x [Li3(e^-x) + x Li2(e^-x)].
    Each later term is at most e^-x times the one before, since
    K_nu((n+1) x) <= e^-x K_nu(n x), so all of them together are under
    4.3e-18 of the first.  Every factor stays representable however large
    x gets: past x of about 1e154, x^2 overflows and E~ is its first part.
    """
    k0, k1 = _k01_hankel(x)
    k2 = k0 + 2.0 * k1 / x
    return k2, k1 / x + 3.0 * k2 / (x * x), 1.0 + x


def _view(x: float, index: int, name: str) -> WeightedSum:
    # Sum number ``index``, S or E, for the public views: below
    # _EXPAND_BELOW the expansion over x^2 or x^4, up to _ONE_TERM_FROM
    # e^-x a/sqrt(x) or e^-x b/x^1.5 from the tables, from there on e^-x
    # times the first term.
    _check_positive(x, "x")
    if x < _EXPAND_BELOW:
        sums = _expansions(x)
        scale = (x * x) ** (index + 1)
        value = sums[index] / scale if scale else math.inf
        if value == math.inf:
            raise DomainError(f"{name}: the sum overflows a double at x={x!r}")
        return WeightedSum(value, sums[-1])
    if x < _ONE_TERM_FROM:
        sums = _sum_chebyshev(x)
        root = math.sqrt(x)
        return WeightedSum(math.exp(-x) * sums[index] / (root * x**index), sums[-1])
    return WeightedSum(math.exp(-x) * _one_term(x)[index], 1)


def k2_weighted_sum(x: float) -> WeightedSum:
    """sum_{n>=1} K2(n x)/n with the number of terms actually used.

    From the forms the gas kernels take: below x = 2 the expansions about
    x = 0 (1 to 18 terms), up to x = 40 the Chebyshev tables in ln x (16 to
    19 rows), from 40 on the first term alone (1).  Raises DomainError
    where the sum overflows a double, below x of about 1.2e-154.
    """
    return _view(x, 0, "k2_weighted_sum")


def energy_bessel_sum(x: float) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum.

    From the same three forms as k2_weighted_sum; raises DomainError where
    the sum overflows a double, below x of about 1.4e-77.
    """
    return _view(x, 1, "energy_bessel_sum")
