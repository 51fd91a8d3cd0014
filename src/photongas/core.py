"""Thermodynamic kernels of the massive-photon gas and their SI wrappers.

All physics is computed in the reduced variable x = mc^2/kT.  Every public
kernel takes one route at every x, the closed-form series route (Bessel sums
and polylogarithms), and every band of it yields all four kernels from one
loop: below x = 2 the expansions about x = 0, from 2 up to 40 the Chebyshev
tables in ln x, and from 40 on one K pair beside the radiance's first term.
None of them has a tolerance.  The trapezoid pass over the defining
phase-space integrals, in :mod:`photongas.oracle`, is the cross-check that
``photongas validate`` holds the series route to; no public kernel takes it.
SI prefactors are applied exactly once, at the boundary, so no intermediate
ever carries the ~1e-102 magnitudes of hbar^3.

Reduced forms (per polarization pair, i.e. before the g/2 factor):

    n_hat(x) = (N/V) (hbar c / kT)^3 = (x^2/pi^2) sum_n K2(n x)/n
    u_hat(x) = (U/V) (hbar c)^3 / (kT)^4
             = (x^4/pi^2) sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2]
    v_hat(x) = vbar/c = 2 [Li3(e^-x) + x Li2(e^-x)] / (x^2 sum_n K2(n x)/n)
    r_hat(x) = R hbar^3 c^2 / (kT)^4
             = (3/2pi^2) [Li4(e^-x) + x Li3(e^-x) + (x^2/3) Li2(e^-x)]

The massless limits are exact closed forms (2 zeta(3)/pi^2, pi^2/15, 1,
pi^2/60) and are taken on dedicated branches, never by limiting numerics.
"""

from __future__ import annotations

import math
import sys

from . import specfun
from .errors import DomainError, RegimeError
from .units import _C, _DBL_MAX, _HBAR_C, _K_B, SI, GasParameters, _check_x, _checked, _Frozen
from .units import reduce  # noqa: F401 -- core.reduce, which perfbench/tracing.py wraps
from .units import reduce as _reduced_x  # core's own calls, which a tracer of core.reduce skips

SERIES = "series"
_METHOD_KEYS = ("n", "u", "v", "R", "R_naive")  # RadiometryReport.methods, in order

_PI2 = math.pi**2
_R_SCALE = 1.5 / _PI2  # r_hat = (3/2 pi^2) Q
_R_HAT_MAX = specfun._PI_RATIOS[3]  # pi^2/60
_SLACK = 1e-9  # relative slack for invariants that are exact only in real arithmetic


class ReducedFunctions(_Frozen):
    """One evaluation of all four reduced kernels at x.

    Its method tag, a class constant, is "series": the closed-form route
    with the exact massless limits that every public kernel takes.
    evaluate builds none: it checks its kernels with _check_kernels alone.
    """

    _fields = __match_args__ = ("x", "n_hat", "u_hat", "v_hat", "r_hat")
    method = SERIES

    def __init__(self, x: float, n_hat: float, u_hat: float, v_hat: float, r_hat: float):
        fields = self.__dict__
        fields["x"] = x
        fields["n_hat"] = n_hat
        fields["u_hat"] = u_hat
        fields["v_hat"] = v_hat
        fields["r_hat"] = r_hat
        _check_kernels(n_hat, u_hat, v_hat, r_hat)


class RadiometryReport(_Frozen):
    """One (m, T) evaluation in SI units; its method tag is "series".

    N/V is in m^-3, U/V in J/m^3, vbar in m/s and R in W/m^2.
    ``radiance_naive`` = (c/4) U/V is no field but formed from U/V on each
    read; ``methods`` repeats the tag per quantity: n, u, v, R and R_naive.
    """

    _fields = __match_args__ = ("params", "x", "number_density", "energy_density",
                                "mean_speed", "radiance")
    method = SERIES

    @property
    def methods(self) -> dict[str, str]:
        return dict.fromkeys(_METHOD_KEYS, self.method)

    @property
    def radiance_naive(self) -> float:  # W/m^2
        return 0.25 * _C * self.energy_density

    def __init__(self, params: GasParameters, x: float, number_density: float,
                 energy_density: float, mean_speed: float, radiance: float):
        fields = self.__dict__
        fields["params"] = params
        fields["x"] = x
        fields["number_density"] = number_density
        fields["energy_density"] = energy_density
        fields["mean_speed"] = mean_speed
        fields["radiance"] = radiance
        try:  # a field that is no number goes to the loop, which names it
            if (0.0 <= number_density <= _DBL_MAX and 0.0 <= energy_density <= _DBL_MAX
                    and 0.0 <= mean_speed <= _C * (1.0 + _SLACK) and 0.0 <= radiance <= _DBL_MAX
                    and (naive := 0.25 * _C * energy_density) <= _DBL_MAX
                    and radiance <= naive * (1.0 + _SLACK)):
                return
        except TypeError:
            pass
        for name in ("number_density", "energy_density", "mean_speed", "radiance"):
            _checked(getattr(self, name), f"{name} must be finite and >= 0")
        naive = _checked(0.25 * _C * energy_density, "radiance_naive must be finite and >= 0")
        if mean_speed > _C * (1.0 + _SLACK):
            raise DomainError(f"mean_speed must not exceed c, got {mean_speed!r}")
        if radiance > naive * (1.0 + _SLACK):
            raise DomainError("radiance must not exceed the naive c/4 value")


def _check_kernels(n: float, u: float, v: float, r: float) -> None:
    """Refuse kernels that are not finite and >= 0, a v_hat above 1 or an
    r_hat above pi^2/60, naming the first such kernel in that order."""
    try:  # a kernel that is no number goes to the loop, which names it
        if (0.0 <= n <= _DBL_MAX and 0.0 <= u <= _DBL_MAX and 0.0 <= v <= 1.0 + _SLACK
                and 0.0 <= r <= _R_HAT_MAX * (1.0 + _SLACK)):
            return
    except TypeError:
        pass
    for name, value in (("n_hat", n), ("u_hat", u), ("v_hat", v), ("r_hat", r)):
        _checked(value, f"{name} must be finite and >= 0")
    if v > 1.0 + _SLACK:
        raise DomainError(f"v_hat must not exceed 1, got {v!r}")
    raise DomainError(f"r_hat must not exceed pi^2/60, got {r!r}")


# ---------------------------------------------------------------------------
# Reduced kernels.
# ---------------------------------------------------------------------------

def _series(x: float) -> tuple[float, float, float, float]:
    """(n_hat, u_hat, v_hat, r_hat) at x by the series route: _bands at a
    checked x, its kernels checked."""
    kernels = _bands(_check_x(x))
    _check_kernels(*kernels)
    return kernels


def _bands(x: float) -> tuple[float, float, float, float]:
    """(n_hat, u_hat, v_hat, r_hat) at an x that is finite and >= 0, one loop per band.

    Takes the exact massless limits at x = 0.  Below
    specfun._EXPAND_BELOW = 2 one call of specfun._expansions yields
    n_hat = x^2 S/pi^2, u_hat = x^4 E/pi^2, v_hat = 2 P/(x^2 S) and
    r_hat = (3/2 pi^2) Q.  Up to specfun._ONE_TERM_FROM = 40 one loop over
    the Chebyshev tables, specfun._sum_chebyshev, yields n_hat =
    a x^1.5 e^-x/pi^2, u_hat = b x^2.5 e^-x/pi^2, v_hat = c/sqrt(x) and
    r_hat = (3/2 pi^2) (1 + x + x^2/3) d e^-x.  From 40 on every sum is its
    first term to double precision: n_hat = x^2 e^-x S~/pi^2,
    u_hat = x^4 e^-x E~/pi^2 and v_hat = 2 P~/(x^2 S~) from
    specfun._one_term, and r_hat = (3/2 pi^2) e^-x (1 + x + x^2/3), the
    same polynomial with d = 1, as Li_s(e^-x) = e^-x there.
    e^-x enters as two factors h = e^(-x/2), the first one first: a huge x
    gives an exact 0 rather than inf * 0, and where e^-x alone would be
    subnormal, from x of about 708, a product that is not keeps its
    digits.  In v_hat the e^x factors cancel, so the ratio survives
    arbitrarily deep into the nonrelativistic regime; P~ ~ x there, so
    dividing by x before doubling, and by x once more, keeps 2 P~ and x^2
    from overflowing.
    """
    if x == 0.0:
        return _MASSLESS
    if x < specfun._EXPAND_BELOW:
        s, e, p, q, _ = specfun._expansions(x)
        return s / _PI2, e / _PI2, 2.0 * p / s, _R_SCALE * q
    if x < specfun._ONE_TERM_FROM:
        a, b, c, d, _ = specfun._sum_chebyshev(x)
        root = math.sqrt(x)
        damp = math.exp(-x)
        scale = damp * x * root / _PI2
        return (a * scale, b * scale * x, c / root,
                _R_SCALE * (1.0 + x + x * (x / 3.0)) * d * damp)
    h = math.exp(-0.5 * x)
    s, e, p = specfun._one_term(x)
    return (h * s * x * x / _PI2 * h, h * e * x * x * x * x / _PI2 * h,
            p / x * 2.0 / (x * s), _R_SCALE * (h + x * h + x * (x / 3.0 * h)) * h)


def n_hat_series(x: float) -> float:
    """(x^2/pi^2) sum_n K2(n x)/n, by the series route; for the tracer only."""
    return _series(x)[0]


def v_hat_series(x: float) -> float:
    """2 [Li3(e^-x) + x Li2(e^-x)] / (x^2 sum_n K2(n x)/n), for the tracer only."""
    return _series(x)[2]


def r_hat_closed(x: float) -> float:
    """(3/2pi^2) [Li4(w) + x Li3(w) + (x^2/3) Li2(w)], w = e^-x, for the tracer only."""
    return _series(x)[3]


# Per kernel: the SI quantity it scales to, which the prefactor refusals of
# _si_prefactors name, and its exact massless limit.
_KERNELS = {
    "n": ("number_density", 2.0 * specfun.zeta_value(3) / _PI2),
    "u": ("energy_density", specfun._PI_RATIOS[2]),  # pi^2/15
    "v": ("mean_speed", 1.0),
    "R": ("radiance", _R_HAT_MAX),
}
_MASSLESS = tuple(limit for _, limit in _KERNELS.values())


def reduced_functions(x: float) -> ReducedFunctions:
    """Evaluate all four reduced kernels at x by the series route."""
    return ReducedFunctions(x, *_bands(_check_x(x)))  # the constructor checks the kernels


# ---------------------------------------------------------------------------
# SI wrappers.
# ---------------------------------------------------------------------------

def _si_prefactors(params: GasParameters, keys: str = "") -> tuple[float, float, float, float]:
    """SI value of one unit of each kernel, from one kT, in the order of _series.

    n is (g/2) (kT/hbar c)^3, u that times kT, v is c and R u times c.  Those
    named in keys, over "nuvR", are checked in that order: the first out of
    the double range (for g = 2, R above 4.8e78 K, u above 6.3e80 K and n
    above 1.3e100 K) raises DomainError naming its quantity.  Those not
    named may be inf, or nan where g/2 is 0.
    """
    kt = _K_B * params.temperature
    half_g = 0.5 * params.degeneracy
    try:
        cube = (kt / _HBAR_C) ** 3
    except OverflowError:
        cube = math.inf
    u = half_g * kt * cube
    prefactors = half_g * cube, u, _C, u * _C
    for key in keys:
        if not prefactors["nuvR".index(key)] < math.inf:
            raise DomainError(f"{_KERNELS[key][0]}: SI prefactor overflows at "
                              f"T={params.temperature!r} K, g={params.degeneracy!r}")
    return prefactors


def _si_value(key: str, params: GasParameters) -> float:
    i = "nuvR".index(key)
    kernels = _bands(_reduced_x(params))  # reduce refuses an x that is not finite
    _check_kernels(*kernels)
    return kernels[i] * _si_prefactors(params, key)[i]


def number_density(params: GasParameters) -> float:
    """Photon number per unit volume, m^-3."""
    return _si_value("n", params)


def energy_density(params: GasParameters) -> float:
    """Internal energy per unit volume, J/m^3."""
    return _si_value("u", params)


def mean_speed(params: GasParameters) -> float:
    """Phase-space mean photon speed, m/s; exactly c for m = 0.

    Independent of the degeneracy (it cancels in the ratio).
    """
    return _si_value("v", params)


def photon_speed(energy: float, mass: float) -> float:
    """Speed of a single photon of the given energy: c sqrt(1 - (mc^2/E)^2)."""
    _checked(energy, "energy must be finite and >= 0 J")
    _checked(mass, "mass must be finite and >= 0 kg")
    if mass == 0.0:
        return SI.c
    rest = mass * SI.c * SI.c
    # The square root is ill-conditioned at the threshold; treat energies
    # within a relative 1e-12 of the rest energy as exactly on shell.
    if energy <= rest * (1.0 + 1e-12):
        if energy < rest * (1.0 - 1e-12):
            raise DomainError(
                f"energy {energy!r} J is below the mass shell {rest!r} J"
            )
        return 0.0
    ratio = rest / energy
    return SI.c * math.sqrt(max(0.0, 1.0 - ratio * ratio))


def _occupation(y: float) -> float:
    # 1/(e^y - 1); expm1 keeps small y accurate, the exp(-y) branch avoids
    # overflow and underflows cleanly to 0 for very large y.
    if y < 40.0:
        return 1.0 / math.expm1(y)
    return math.exp(-y)


def spectral_energy_density(omega: float, params: GasParameters) -> float:
    """Energy density per unit angular frequency, J s / m^3.

    Vanishes at and below the threshold omega = mc^2/hbar; for m = 0 this is
    exactly the Planck law (times g/2).
    """
    _checked(omega, "omega must be finite and >= 0 rad/s")
    kt = SI.k_B * params.temperature
    # Where k_B T underflows to 0 every mode is empty.
    if omega == 0.0 or kt == 0.0:
        return 0.0
    threshold = params.mass * SI.c * SI.c / SI.hbar
    if params.mass > 0.0 and omega <= threshold:
        return 0.0
    y = SI.hbar * omega / kt
    # The occupation 1/(e^y - 1); where y is below the normal range it is
    # kT/(hbar omega) to double precision, and 1/y would lose digits,
    # overflow or divide by 0, so kT and hbar omega enter the product
    # instead, hbar and omega apart, as hbar omega may underflow.
    if y >= sys.float_info.min:
        occupation = ((_occupation(y), 1),)
    else:
        occupation = ((kt, 1), (SI.hbar, -1), (omega, -1))
    speed_factor = 1.0
    if params.mass > 0.0:
        ratio = threshold / omega
        speed_factor = math.sqrt(1.0 - ratio * ratio)
    prefactor = 0.5 * params.degeneracy * SI.hbar / (_PI2 * SI.c**3)
    # Taken over the factors' frexp parts: omega^3 alone overflows from omega
    # of about 5.6e102, where the product may not.  An empty mode gives 0.
    mantissa, exponent = 1.0, 0
    for factor, power in ((prefactor, 1), (omega, 3), *occupation, (speed_factor, 1)):
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa * m**power, exponent + e * power
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        raise DomainError(f"spectral_energy_density overflows at omega={omega!r} rad/s, "
                          f"T={params.temperature!r} K") from None


def radiance(params: GasParameters) -> float:
    """Power radiated per unit area of a small opening, W/m^2.

    Uses the flux of u v/4 over one hemisphere, which reduces to the
    Stefan-Boltzmann law exactly at m = 0 and falls below the naive
    (c/4) U/V relation for any m > 0.
    """
    return _si_value("R", params)


def _finite(name: str, value: float, params: GasParameters) -> float:
    """value where it is a finite double, else a DomainError: name overflows at params."""
    if -math.inf < value < math.inf:
        return value
    raise DomainError(f"{name} overflows a double at m={params.mass!r} kg, "
                      f"T={params.temperature!r} K, g={params.degeneracy!r}")


def radiance_naive(params: GasParameters) -> float:
    """The massless-photon relation R = (c/4) U/V, kept as a comparator.

    Correct only at m = 0; for m > 0 it overestimates the radiance because
    massive photons leave the cavity at v < c.  Refused where it overflows.
    """
    return _finite("radiance_naive: (c/4) U/V", 0.25 * SI.c * energy_density(params), params)


def small_mass_radiance(params: GasParameters) -> float:
    """Leading small-x radiance: R_SB [1 - (5/2pi^2) x^2].

    Applicability (x < 1) is the caller's responsibility; the expression is
    evaluated as stated either way, and refused where it overflows.
    """
    x = _reduced_x(params)
    value = _si_prefactors(params, "R")[3] * _R_HAT_MAX * (1.0 - 2.5 / _PI2 * x * x)
    return _finite("small_mass_radiance: R_SB [1 - (5/2pi^2) x^2]", value, params)


def low_temp_radiance(params: GasParameters) -> float:
    """Low-temperature radiance asymptote (g/2)(mc/pi)^2 (kT)^2 e^-x / (2 hbar^3).

    Meaningful for x > 1; the caller checks the regime.
    """
    x = _reduced_x(params)
    # e^-x as two factors h = e^(-x/2), as in _bands: a huge x gives 0, not
    # inf * 0, and where e^-x is subnormal a product that is not keeps its digits.
    # Where the product overflows before the second h, (h x)^2 <= (2/e)^2 does not.
    h = math.exp(-0.5 * x)
    pr = _si_prefactors(params, "R")[3]
    value = pr * h * x * x * h
    return (value if value < math.inf else pr * (h * x) * (x * h)) / (2.0 * _PI2)


def low_temp_mean_speed(params: GasParameters) -> float:
    """Nonrelativistic mean speed sqrt(8 kT / pi m).

    Requires x >= 8/pi; below that boundary the formula would exceed c and
    a RegimeError is raised.
    """
    x = _reduced_x(params)
    if x < 8.0 / math.pi:
        raise RegimeError(
            f"nonrelativistic mean speed needs x >= 8/pi, got x={x!r}"
        )
    return math.sqrt(8.0 * SI.k_B * params.temperature / (math.pi * params.mass))


def evaluate(params: GasParameters) -> RadiometryReport:
    """Full radiometry report for one (m, T) point."""
    return _report(params, _reduced_x(params))  # reduce refuses an x that is not finite


def _report(params: GasParameters, x: float) -> RadiometryReport:
    """The report of params, with its kernels evaluated at x, finite and >= 0.

    x is mc^2/kT of params up to rounding; an x sweep passes its grid x,
    which _grid has checked, so the printed x and the band are the grid's.
    The kernels, checked once, scale by the prefactors of one kT, checked
    in the order u, n, R.
    """
    n, u, v, r = _bands(x)
    _check_kernels(n, u, v, r)
    pn, pu, pv, pr = _si_prefactors(params)
    if not (pn < math.inf and pr < math.inf):  # pr = pu c is finite only where pu is
        _si_prefactors(params, "unR")  # raises, naming the first out of range
    return RadiometryReport(params, x, n * pn, u * pu, v * pv, r * pr)
