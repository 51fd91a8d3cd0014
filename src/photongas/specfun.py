"""Self-contained special functions for the photon-gas kernels.

Provides the Riemann zeta values zeta(2), zeta(3), zeta(4), its one name in
the package root, and the Boltzmann-weighted Bessel sums and polylog
combinations of the closed-form gas formulas.  bessel_k2, k2_weighted_sum and
energy_bessel_sum are on no route and stay only for perfbench/tracing.py,
which binds them by name.  Everything here is evaluated from scratch: K0 and K1 as one pair,
by their ascending series up to z = 2, above it as e^z K0 and e^z K1, by a
24-term Chebyshev series up to z = 25 and by the Hankel expansion, whose
terms fall with z, from there on with no upper limit, and K2 = K0 + 2 K1/z
at every z.  The Hankel ratios are built from their definition at import;
the other tables are literals, generated by tests/specfun_tables.py.  No
third-party special-function library is involved, so the quadrature
oracles elsewhere in the package remain an independent check.

Below x = _EXPAND_BELOW = 2 the gas kernels take all they need from one
loop, _expansions, of at most 18 rows of one literal table: the Bessel
sums x^2 sum_n K2(n x)/n and x^4 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
and the polylog combinations Li3 + x Li2 and Li4 + x Li3 + (x^2/3) Li2 of
e^-x, by their expansions about x = 0.  tests/specfun_tables.py generates
the tables from the residues of the sums' Mellin transforms and, in exact
rational arithmetic, from the Bernoulli numbers.

From x = 2 up to x = _ONE_TERM_FROM = 40 they take the Bessel sums, v_hat
and the radiance's polylog combination from one Horner loop,
_sum_chebyshev, over literal tables of Chebyshev fits in ln x on four
pieces, 16 to 19 rows, stored as polynomials; tests/specfun_tables.py
generates them from a quadrature of the defining integrals.  From 40 on
all later terms of the sums are below e^-40 of the first, so one K pair,
_one_term, gives them, and each Li_s(e^-x) is e^-x.  Neither form loops to
convergence or has a tolerance.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError
from .units import _DBL_MAX, _checked, _shown

_EULER_GAMMA = 0.5772156649015329

# The regime edges of the K_nu evaluator: the ascending series up to
# _K_SERIES_MAX, a Chebyshev series up to _K_HANKEL_MIN, where the Hankel
# expansion's 17 terms cost less than the Chebyshev series' 24, and that
# expansion from there on.
_K_SERIES_MAX = 2.0
_K_HANKEL_MIN = 25.0


WeightedSum = namedtuple("WeightedSum", "value terms")


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
# nu = 0 and 1, k = 1..20, each correctly rounded.
_HANKEL = tuple(tuple((4 * nu * nu - (2 * k - 1) ** 2) / (8 * k) for nu in (0, 1))
                for k in range(1, 21))


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


def _k01(z: float) -> tuple[float, float]:
    """(K0(z), K1(z)) for z > 0, unchecked; past z of about 700 both underflow to 0."""
    if z <= _K_SERIES_MAX:
        return _k01_series(z)
    k0, k1 = _k01_chebyshev(z) if z < _K_HANKEL_MIN else _k01_hankel(z)
    factor = math.exp(-z)
    return factor * k0, factor * k1


_K2_FINITE_FROM = math.sqrt(2.0 / _DBL_MAX)


def bessel_k2(z: float) -> float:
    """Modified Bessel function of the second kind K2(z) = K0 + 2 K1/z, z > 0.

    Relative error is at most 6.1e-16 against mpmath across z in
    [1e-4, 700] (4000 log-spaced points and 199 more in (2, 2.5]).  For z
    beyond ~700 the value drops under 1e-300 and degrades gracefully to
    zero.  Below _K2_FINITE_FROM = sqrt(2/DBL_MAX), about 1.05e-154, where
    K2 ~ 2/z^2 exceeds the largest double, it raises DomainError.
    """
    z = _checked(z, "z must be a positive finite number", positive=True)
    if z < _K2_FINITE_FROM:
        raise DomainError(f"bessel_k2: K2 overflows a double at z={z!r}")
    k0, k1 = _k01(z)
    return k0 + 2.0 * k1 / z


# ---------------------------------------------------------------------------
# Riemann zeta.
# ---------------------------------------------------------------------------

# pi^4/15, pi^2/15 and pi^2/60, correctly rounded, as generated by
# tests/specfun_tables.py; the math.pi expression of each is an ulp low.
_PI_RATIOS = (
    6.493939402266829,
    0.6579736267392906,
    0.16449340668482265,
)

# zeta(2), zeta(3), zeta(4), correctly rounded, as generated by
# tests/specfun_tables.py: also Li2, Li3, Li4 at e^-0 = 1.
_ZETA = (
    1.6449340668482264,
    1.2020569031595942,
    1.0823232337111381,
)


def zeta_value(s: int) -> float:
    """zeta(s) for s in {2, 3, 4}, correctly rounded."""
    if s not in (2, 3, 4):
        raise DomainError(f"zeta_value supports s in {{2, 3, 4}}, got {_shown(s)}")
    return _ZETA[int(s) - 2]


# ---------------------------------------------------------------------------
# The gas kernels' Bessel sums about x = 0.
# ---------------------------------------------------------------------------

# Below this x the series route takes every kernel from the expansions
# about x = 0, which need at most 18 terms there.  From it on the tables
# of _sum_chebyshev are the more accurate: the expansions' terms cancel
# more as x grows, to 6.9e-15 near x = 4.
_EXPAND_BELOW = 2.0

# Coefficients of the expansions about x = 0 (see _expansions), one row
# (a_j, b_j, c_j, p_j, q_j) per j = 1, 2, ...: (a_j, b_j) of
# x^2 sum_n K2(n x)/n, c_j of the energy sum, and p_j and q_j of the two
# polylog combinations; as generated by tests/specfun_tables.py.
_EXPANSION = (
    (-0.5965735902799727, 0.5, -0.8224670334241132, 0.010416666666666666, 0.001851851851851852),
    (-0.029697762917331495, 0.010416666666666666, 0.10648803637923487, -5.787037037037037e-05, -1.3227513227513228e-05),
    (0.0001890648737203121, -8.680555555555556e-05, 0.0009515142830747897, 6.889329805996473e-07, 1.749671061840374e-07),
    (-2.6506575641419882e-06, 1.2917493386243386e-06, -1.2994484782338255e-05, -1.0333994708994709e-08, -2.7835675983824134e-09),
    (4.519745112109212e-08, -2.2605613425925925e-08, 2.2405769316738044e-07, 1.7397297489890083e-10, 4.8663769202489744e-11),
    (-8.431803899664349e-10, 4.2813661791526375e-10, -4.2298187182628614e-09, -3.1453512730282697e-12, -9.032803655876057e-13),
    (1.6598406212420198e-11, -8.514564188314808e-12, 8.40562244070322e-11, 5.974346665484231e-14, 1.7493511804816575e-14),
    (-3.389968797349112e-13, 1.7520471715282372e-13, -1.7293075267158889e-12, -1.1769723251120078e-15, -3.4981220808282587e-16),
    (7.114205137537646e-15, -3.698152789109263e-15, 3.649986369227605e-14, 2.3850172378549568e-17, 7.17298417399987e-18),
    (-1.5246923684371607e-16, 7.962309592747284e-17, -7.858514598486483e-16, -4.942883405813777e-19, -1.500944581475543e-19),
    (3.322927854819893e-18, -1.7418429689875224e-18, 1.7191317437520905e-17, 1.043371747795498e-20, 3.1936248280349156e-21),
    (-7.341953199010248e-20, 3.8606195481775336e-20, -3.810279677046989e-19, -2.236292417598161e-22, -6.891093672006184e-23),
    (1.6408130409432902e-21, -8.650708521083696e-22, 8.537907598182327e-21, 4.85536681267784e-24, 1.5047709832394498e-24),
    (-3.7025327331181446e-23, 1.9564731864189592e-23, -1.9309616659044787e-22, -1.065894931790184e-25, -3.3198062391685377e-26),
    (8.4242430004105e-25, -4.460223977932017e-25, 4.402064636643566e-24, 2.3624504711850864e-27, 7.389874396668892e-28),
    (-1.9305239647505574e-26, 1.0238703104100993e-26, -1.0105194931179539e-25, -5.280138482419303e-29, -1.6579482449847626e-29),
    (4.451866657807344e-28, -2.364656104346069e-28, 2.3338220299950658e-27, 1.1888664016461314e-30, 3.74561769785036e-31),
    (-1.0323118997683937e-29, 5.490598560277992e-30, -5.419003571828885e-29, -2.6944407461003727e-32, -8.514656827593694e-33),
    (2.405549521463798e-31, -1.2809860575842e-31, 1.2642825631851106e-30, 6.142588327036213e-34, 1.946369451135094e-34),
    (-5.630244557262817e-33, 3.0014174203417623e-33, -2.9622802581419094e-32, -1.4077514379170418e-35, -4.4715870971840234e-36),
)

_LN_2PI = math.log(2.0 * math.pi)
# The constant terms 2 zeta(3), pi^4/15, zeta(3) and zeta(4) of the four
# expansions, and -zeta(2)/6 of Q's x^2 term.
_EXPANSION_CONSTANTS = (2.0 * _ZETA[1], _PI_RATIOS[0], _ZETA[1], _ZETA[2], -_ZETA[0] / 6.0)


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
    The first term left out is then under 1e-18 of its sum.  The loop reads
    those n rows of _EXPANSION in one slice and sums them by Horner's rule
    from the smallest up, which rounds about half as much as summing from
    the largest.  Where x^2 underflows every term is 0, and the sums are
    the massless limits 2 zeta(3), pi^4/15, zeta(3) and zeta(4).  terms is
    n.
    """
    x2 = x * x
    lg = math.log(x)
    n = math.ceil(19.6 / (_LN_2PI - lg))  # 19.6 > ln(1e17)/2
    s = e = p = q = 0.0
    for a, b, c, pj, qj in _EXPANSION[n - 1::-1]:
        s = x2 * (s + (a + b * lg))
        e = x2 * (e + c)
        p = x2 * (p + pj)
        q = x2 * (q + qj)
    s0, e0, p0, q0, q2 = _EXPANSION_CONSTANTS
    return (s0 + s, e0 + (e - x2 * x2 * lg / 16.0), p0 + x2 * ((0.5 * lg - 0.25) - x / 6.0 + p),
            q0 + x2 * (q2 + x / 9.0 - x2 / 48.0 + x * q), n)


# ---------------------------------------------------------------------------
# The gas kernels' sums from x = 2 up.
# ---------------------------------------------------------------------------

# From this x on every term of the Bessel sums and of the polylog
# combinations past the first is below e^-x < 4.3e-18 of it, so the first
# alone is the sum to double precision.
_ONE_TERM_FROM = 40.0

# Per piece [2, 4), [4, 8), [8, 16) and [16, 40): its top, mid and scale
# of the map y = (ln x - mid) scale onto [-1, 1), and the coefficients
# (a_k, b_k, c_k, d_k) of y^k, highest power first, of the Chebyshev fits
# in y of a = e^x sqrt(x) S, b = e^x x^1.5 E, c = sqrt(x) v_hat and
# d = e^x Q/(1 + x + x^2/3) (see _sum_chebyshev); as generated by
# tests/specfun_tables.py.  The first omitted Chebyshev coefficient is
# below 2e-18 of the leading one.
_SUM_CHEBYSHEV = (
    (4.0, 1.0397207708399179, 2.8853900817779268, (
        (-7.232593730049732e-13, -6.326201345685489e-13, 4.357952574591738e-13, -5.316295571591601e-13),
        (-7.48833644363538e-12, -6.463334333213911e-12, 2.718859584373646e-12, -3.6358303636670966e-12),
        (-1.2455323383080625e-11, -2.7774973604874834e-11, -1.801663944851727e-12, -5.271358511667348e-13),
        (1.674441794644506e-10, 3.25551973397966e-10, -9.315353658339984e-11, 1.0367980976348671e-10),
        (1.1253091472166715e-09, -1.40192651207816e-09, -3.82750635165957e-10, 5.541113750963044e-10),
        (8.104666295398052e-10, 3.3499169927568475e-08, 1.1031053206589736e-09, -2.970656583398694e-10),
        (-3.278261027287013e-08, -4.01886518387822e-07, 1.7114218111555404e-08, -2.0566033271792813e-08),
        (-8.050080736184852e-08, 3.832259914239079e-06, 3.7882834535172445e-08, -8.340057838793025e-08),
        (-8.659191494672353e-07, -3.783997072042851e-05, -4.437631619338456e-07, 4.1556601355858117e-07),
        (1.8823228850133318e-05, 0.00032556695033802275, -2.9117615271489504e-06, 3.8680065403179496e-06),
        (-0.0001456326588581066, -0.002380795605333028, 1.0700796602737434e-05, -5.628317216226707e-06),
        (0.001497549366650217, 0.015466691573890481, 0.0001414575129574241, -0.0001104599442192993),
        (-0.014164590972002466, -0.08640948971156408, -0.0006103934780026136, 0.00013175059296468924),
        (0.09188675733991904, 0.3887535578023174, -0.007614910510453058, 0.0023346409341245935),
        (-0.4050276369199639, -1.30124678360681, 0.09567863571181232, -0.009051720431367564),
        (2.236319835391958, 3.786191093596195, 1.2264707733376428, 1.0100822548133488),
    )),
    (8.0, 1.7328679513998633, 2.8853900817779268, (
        (9.770046451787332e-13, 1.069142190534086e-12, -9.20877065720111e-14, 2.3441540380561717e-13),
        (-5.946988903074132e-12, -5.333426763768969e-12, 2.8473087548426005e-12, -3.885328691139455e-12),
        (-3.38973734706527e-11, -3.5739634553733837e-11, 5.783502319204989e-12, -1.1420391500289973e-11),
        (1.2621792788376437e-10, 1.044274822321516e-10, -7.267895211488522e-11, 9.338881351095415e-11),
        (9.048500925864507e-10, 9.630683271125655e-10, -2.0572665877977613e-10, 3.704463173987724e-10),
        (-1.8394909996850685e-09, -1.7877328522016455e-09, 1.4661790884270067e-09, -1.7098413342399172e-09),
        (-2.09092648457887e-08, -1.529138366657369e-08, 5.501185545466919e-09, -9.651149456861366e-09),
        (1.9176596571929124e-08, -5.9540721975465546e-08, -2.9115614089514167e-08, 3.00976480058918e-08),
        (4.6426099544874065e-07, 1.1699692157824181e-06, -1.1708082865294353e-07, 2.1318825310475554e-07),
        (-5.861652403724351e-07, -7.143277380591417e-06, 6.670183616734161e-07, -6.300499446081989e-07),
        (-3.9539795368016464e-06, 5.48332949979253e-05, 1.5428650966202448e-06, -3.7943295253663812e-06),
        (-5.0435583859897544e-05, -0.0005004841063994271, -1.877514575816543e-05, 1.6430728878211703e-05),
        (0.000772253002746073, 0.003684056580171269, 5.085355991520571e-05, 3.2938642316712305e-05),
        (-0.005734371208067319, -0.02182214200586105, 0.0003872470784790593, -0.00035858922563570807),
        (0.03487728766093405, 0.10911795082991262, -0.007879830218020963, 0.0010045743845799552),
        (-0.16809728023612314, -0.4299597134350497, 0.06259669334491406, -0.0013143773409731616),
        (1.7008554410128212, 2.2355179234242706, 1.3848663136208947, 1.0006939576055076),
    )),
    (16.0, 2.4260151319598084, 2.8853900817779268, (
        (1.3959635612596674e-12, 1.4579376778517698e-12, -3.2714488077198326e-13, 6.038407610557136e-13),
        (-5.027503904172924e-12, -4.499508336501556e-12, 2.5821066400542827e-12, -3.6027421252797725e-12),
        (-3.058088880967815e-11, -3.297546733199212e-11, 5.2279391019299226e-12, -1.1237549559229882e-11),
        (1.5258781884211795e-10, 1.4181129103395106e-10, -6.531163285180988e-11, 9.579834672218506e-11),
        (3.768930022503147e-10, 4.529855288250452e-10, 2.6842386407483854e-12, 7.220611785326095e-11),
        (-3.4237596844850498e-09, -3.4302963355750795e-09, 1.1301395880567352e-09, -1.822186564259075e-09),
        (2.133309686907196e-10, -3.3110747522621625e-10, -2.4184910694775126e-09, 2.479931330878978e-09),
        (5.572616624529869e-08, 4.6290982146053284e-08, -1.1076501660823603e-08, 2.2870879835126742e-08),
        (-1.4379962153941822e-07, 1.1687848413681612e-08, 6.358037900658353e-08, -9.938100050359446e-08),
        (-5.291143937903793e-07, -1.9875286284939753e-06, -6.831034014792344e-08, -6.473448307712088e-09),
        (5.587713300119284e-06, 1.7517821990856432e-05, -2.3706519817386885e-07, 1.3315314402130993e-06),
        (-3.211437288704694e-05, -0.0001240437558069367, 1.541162810875552e-08, -5.6076998820709575e-06),
        (0.0002236140543379279, 0.0008765294474173754, -1.0675390377440162e-05, 1.3000174383339318e-05),
        (-0.0018905317461784948, -0.0060216741477903445, 0.0004077778622045025, -1.930377706878217e-05),
        (0.014320903945162961, 0.036585417937479534, -0.005279937329229836, 1.8453807529884017e-05),
        (-0.07732909081740065, -0.16918784246938387, 0.03629474967767578, -1.0461720819597907e-05),
        (1.468816640109599, 1.683271393792822, 1.4819978258723463, 1.0000026955846912),
    )),
    (40.0, 3.2307340881768587, 2.182713335874583, (
        (1.2503079605147586e-12, 1.3049676522045798e-12, -3.512272198730545e-13, 5.950001410717621e-13),
        (-3.08221265207802e-12, -3.002653181765226e-12, 1.1835771139904317e-12, -1.7890937026272336e-12),
        (-7.480582354449836e-12, -8.50237455132902e-12, 1.1101906390615721e-12, -2.5462546668853944e-12),
        (4.4352891194813186e-11, 4.595425364181024e-11, -1.3001629569445749e-11, 2.16349876533082e-11),
        (-6.882298282650491e-11, -6.516328111253015e-11, 2.7956568293930264e-11, -4.162688103983236e-11),
        (-8.591068177326833e-11, -1.126023714653606e-10, -2.2158281625699048e-13, -1.507240168026725e-11),
        (7.566378174689214e-10, 8.547119857566423e-10, -1.718496782279345e-10, 3.1375441827078174e-10),
        (-2.3274053420016797e-09, -2.7188060134427764e-09, 6.184519880764242e-10, -1.049713795819789e-09),
        (4.939746459626962e-09, 7.430592142167135e-09, -1.4020772373992076e-09, 2.2686976168838903e-09),
        (-9.186982775959022e-09, -3.00221254069701e-08, 2.07195910285728e-09, -3.684288933298113e-09),
        (2.8643645442443482e-08, 2.0564775330974483e-07, 3.880747106696761e-09, 4.722860393646851e-09),
        (-2.2726242727922277e-07, -1.6390431430828667e-06, -7.611585045979548e-08, -4.867023991781566e-09),
        (2.3397830886940157e-06, 1.2732794981623155e-05, 4.819945267170187e-07, 4.04364160657588e-09),
        (-2.3443313407495945e-05, -9.380028862964616e-05, 4.142820452212942e-07, -2.686502417888576e-09),
        (0.00021455911584936823, 0.0006518547525140114, -4.9014718560891075e-05, 1.4001009376369365e-09),
        (-0.0016853330287007204, -0.004145541924543023, 0.0006448828875552701, -5.532209697177003e-10),
        (0.010402084333170754, 0.022257895460706056, -0.004982825649496637, 1.561996037138791e-10),
        (-0.04399821381295308, -0.08675337019693038, 0.023483463164551577, -2.813243681130075e-11),
        (1.3477881425093226, 1.4314982847415798, 1.5425695448237586, 1.0000000000024327),
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
    All four are smooth in ln x and tend to constants as x grows, d to 1.
    Their Chebyshev fits in ln x over the piece of _SUM_CHEBYSHEV that holds
    x, stored as polynomials in y, are summed by Horner's rule in one loop,
    one multiply-add per column and row: 16 rows on [2, 4), 17 on [4, 16),
    19 on [16, 40).  rows is that count.
    """
    for top, mid, scale, rows in _SUM_CHEBYSHEV:
        if x < top:
            break
    y = (math.log(x) - mid) * scale
    a = b = c = d = 0.0
    for ca, cb, cc, cd in rows:
        a = a * y + ca
        b = b * y + cb
        c = c * y + cc
        d = d * y + cd
    return a, b, c, d, len(rows)


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
    x = _checked(x, "x must be a positive finite number", positive=True)
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

    On no route; kept only for perfbench/tracing.py, which binds it by name.
    From the forms the gas kernels take: below x = 2 the expansions about
    x = 0 (1 to 18 terms), up to x = 40 the Chebyshev tables in ln x (16 to
    19 rows), from 40 on the first term alone (1).  Raises DomainError
    where the sum overflows a double, below x of about 1.2e-154.
    """
    return _view(x, 0, "k2_weighted_sum")


def energy_bessel_sum(x: float) -> WeightedSum:
    """sum_{n>=1} [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], the energy-density sum.

    From the same three forms as k2_weighted_sum, for the tracer only;
    raises DomainError where the sum overflows a double, below x of about 1.4e-77.
    """
    return _view(x, 1, "energy_bessel_sum")
