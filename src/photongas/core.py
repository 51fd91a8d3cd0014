"""Thermodynamic kernels of the massive-photon gas and their SI wrappers.

All physics is computed in the reduced variable x = mc^2/kT.  Each reduced
kernel has two routes: a closed-form series route (Bessel sums and
polylogarithms), and one trapezoid pass over the defining phase-space
integrals, the cross-check oracle, which also serves [2, x_switch) when a
caller sets x_switch above its default of 2.  The series route serves every
other x: below x = 2 it takes all four kernels from one loop over their
expansions about x = 0; from 2 up to 40 n_hat, u_hat and v_hat from one
loop over Chebyshev tables in ln x, and from 40 on from one K pair; and
from 2 on r_hat from one polylog pass.  None of them has a tolerance.
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
from dataclasses import dataclass

from . import oracle, specfun
from .errors import DomainError, RegimeError
from .units import SI, GasParameters, reduce

SERIES = "series"
QUADRATURE = "quadrature"

_R_HAT_MAX = specfun._PI_POWERS[3]  # pi^2/60
_SLACK = 1e-9  # relative slack for invariants that are exact only in real arithmetic


@dataclass(frozen=True)
class NumericsConfig:
    """The quadrature tolerance and the boundary between routes.

    On [2, ``x_switch``) every kernel is taken from one trapezoid pass over
    its defining integral, to ``quad_tol``, everywhere else from the series
    route: below x = 2 one loop over the expansions of the Bessel sums and
    polylogs about x = 0, whatever ``x_switch`` is, and from 2 on the
    Chebyshev tables up to x = 40, one K pair from there and one polylog
    pass for the radiance.  The series route has no setting and no
    tolerance.  The default 2.0 leaves the trapezoid to callers that ask
    for it: since 0.10.0 the tables cost a fraction of the trapezoid pass
    at every x from 2 up, where the Bessel pass they replace cost about as
    much as the trapezoid below x = 4, the old default.  A switch at or
    below 2 changes nothing.
    """

    quad_tol: float = oracle.QUAD_TOL
    x_switch: float = 2.0

    def __post_init__(self):
        oracle._check_quad_tol(self.quad_tol)
        if not (math.isfinite(self.x_switch) and self.x_switch > 0):
            raise DomainError(f"x_switch must be finite and > 0, got {self.x_switch!r}")


DEFAULT_NUMERICS = NumericsConfig()


@dataclass(frozen=True)
class ReducedFunctions:
    """One evaluation of all four reduced kernels, with their one method tag.

    One rule routes all four at a given x: "series" is the closed-form route
    (including the exact massless limits), "quadrature" the integral route.
    """

    x: float
    n_hat: float
    u_hat: float
    v_hat: float
    r_hat: float
    method: str

    def __post_init__(self):
        for name in ("n_hat", "u_hat", "v_hat", "r_hat"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        if self.v_hat > 1.0 + _SLACK:
            raise DomainError(f"v_hat must not exceed 1, got {self.v_hat!r}")
        if self.r_hat > _R_HAT_MAX * (1.0 + _SLACK):
            raise DomainError(f"r_hat must not exceed pi^2/60, got {self.r_hat!r}")
        if self.method not in (SERIES, QUADRATURE):
            raise DomainError(f"method must be 'series' or 'quadrature', got {self.method!r}")


@dataclass(frozen=True)
class RadiometryReport:
    """One (m, T) evaluation in SI units, with the method tag of its kernels.

    ``methods`` repeats the tag per quantity: n, u, v, R and R_naive.
    """

    params: GasParameters
    x: float
    number_density: float       # m^-3
    energy_density: float       # J/m^3
    mean_speed: float           # m/s
    radiance: float             # W/m^2
    radiance_naive: float       # W/m^2
    method: str

    @property
    def methods(self) -> dict[str, str]:
        return dict.fromkeys(("n", "u", "v", "R", "R_naive"), self.method)

    def __post_init__(self):
        for name in ("number_density", "energy_density", "mean_speed",
                     "radiance", "radiance_naive"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        if self.mean_speed > SI.c * (1.0 + _SLACK):
            raise DomainError(f"mean_speed must not exceed c, got {self.mean_speed!r}")
        if self.radiance > self.radiance_naive * (1.0 + _SLACK):
            raise DomainError("radiance must not exceed the naive c/4 value")


# ---------------------------------------------------------------------------
# Reduced kernels.
# ---------------------------------------------------------------------------

def _series(x: float, keys: str) -> dict[str, float]:
    """The kernels named in keys, a string over "nuvR", by the series route.

    Checks x, and takes the exact massless limits at x = 0.  Below
    specfun._EXPAND_BELOW = 2 one call of specfun._expansions yields all
    four kernels, whatever keys asks for: n_hat = x^2 S/pi^2,
    u_hat = x^4 E/pi^2, v_hat = 2 P/(x^2 S) and r_hat = (3/2 pi^2) Q.  Up
    to specfun._ONE_TERM_FROM = 40, one polylog pass yields r_hat if R is
    asked for, and one loop over the Chebyshev tables n_hat = a x^1.5
    e^-x/pi^2, u_hat = b x^2.5 e^-x/pi^2 and v_hat = c/sqrt(x) if any of
    them is.  From 40 on every sum is its first term to double precision:
    n_hat = x^2 e^-x S~/pi^2, u_hat = x^4 e^-x E~/pi^2 and
    v_hat = 2 P~/(x^2 S~) from specfun._one_term, and
    r_hat = (3/2 pi^2) e^-x (1 + x + x^2/3), as Li_s(e^-x) = e^-x there.
    e^-x enters as two factors h = e^(-x/2), the first one first: a huge x
    gives an exact 0 rather than inf * 0, and where e^-x alone would be
    subnormal, from x of about 708, a product that is not keeps its
    digits.  In v_hat the e^x factors cancel, so the ratio survives
    arbitrarily deep into the nonrelativistic regime; P~ ~ x there, so
    dividing by x before doubling, and by x once more, keeps 2 P~ and x^2
    from overflowing.
    """
    x = oracle._check_x(x)
    if x == 0.0:
        return {key: _KERNELS[key][1] for key in keys}
    if x < specfun._EXPAND_BELOW:
        s, e, p, q, _ = specfun._expansions(x)
        return {"n": s / math.pi**2, "u": e / math.pi**2, "v": 2.0 * p / s,
                "R": 1.5 / math.pi**2 * q}
    values = {}
    if x < specfun._ONE_TERM_FROM:
        if "R" in keys:
            li2, li3, li4 = specfun._polylogs(x)
            values["R"] = 1.5 / math.pi**2 * (li4 + x * li3 + x * (x / 3.0 * li2))
        if keys != "R":
            a, b, c, _ = specfun._sum_chebyshev(x)
            root = math.sqrt(x)
            scale = math.exp(-x) * x * root / math.pi**2
            values.update(n=a * scale, u=b * scale * x, v=c / root)
        return values
    h = math.exp(-0.5 * x)
    if "R" in keys:
        values["R"] = 1.5 / math.pi**2 * (h + x * h + x * (x / 3.0 * h)) * h
    if keys != "R":
        s, e, p = specfun._one_term(x)
        values.update(n=h * s * x * x / math.pi**2 * h,
                      u=h * e * x * x * x * x / math.pi**2 * h,
                      v=p / x * 2.0 / (x * s))
    return values


def n_hat_series(x: float) -> float:
    """(x^2/pi^2) sum_n K2(n x)/n; intended for x >= x_switch."""
    return _series(x, "n")["n"]


def v_hat_series(x: float) -> float:
    """2 [Li3(e^-x) + x Li2(e^-x)] / (x^2 sum_n K2(n x)/n); x >= x_switch."""
    return _series(x, "v")["v"]


def r_hat_closed(x: float) -> float:
    """(3/2pi^2) [Li4(w) + x Li3(w) + (x^2/3) Li2(w)], w = e^-x."""
    return _series(x, "R")["R"]


# Per kernel: the SI quantity it scales to, whose quadrature oracle is
# oracle.quad_<quantity>, and its exact massless limit.
_KERNELS = {
    "n": ("number_density", 2.0 * specfun.zeta_value(3) / math.pi**2),
    "u": ("energy_density", specfun._PI_POWERS[2]),  # pi^2/15
    "v": ("mean_speed", 1.0),
    "R": ("radiance", _R_HAT_MAX),
}


def _route(x: float, cfg: NumericsConfig, keys: str) -> tuple[dict[str, float], str]:
    """The kernels named in keys, a string over "nuvR", and their method tag.

    One rule picks the method for all of them: x in [2, x_switch) takes
    one trapezoid pass over the defining integrals, which yields all four
    kernels whatever keys asks for, and every other x the series route,
    _series, which takes the exact massless limits at x = 0 and, below
    x = 2, every kernel from the expansions about x = 0.  Either route
    refuses an x that is not a finite number >= 0 before any work.
    """
    if specfun._EXPAND_BELOW <= x < cfg.x_switch:
        return dict(zip("nuvR", oracle._moments(x, cfg.quad_tol))), QUADRATURE
    return _series(x, keys), SERIES


def reduced_functions(x: float, cfg: NumericsConfig | None = None) -> ReducedFunctions:
    """Evaluate all four reduced kernels at x with their method tag."""
    values, method = _route(x, cfg or DEFAULT_NUMERICS, "nuvR")
    return ReducedFunctions(x, *(values[k] for k in "nuvR"), method)


# ---------------------------------------------------------------------------
# SI wrappers.
# ---------------------------------------------------------------------------

# Powers (k, j) of the SI prefactor (g/2) (kT)^k (kT/hbar c)^3 c^j per kernel.
_SI_POWERS = {"n": (0, 0), "u": (1, 0), "R": (1, 1)}


def _si_prefactor(params: GasParameters, key: str) -> float:
    """SI value of one unit of a reduced kernel; c for the mean speed.

    Raises DomainError, naming the quantity, when the prefactor leaves the
    double range: above about 4.8e78 K for the radiance, 6.3e80 K for the
    energy density and 1.3e100 K for the number density.
    """
    if key == "v":
        return SI.c
    k, j = _SI_POWERS[key]
    kt = SI.k_B * params.temperature
    try:
        value = 0.5 * params.degeneracy * kt**k * (kt / (SI.hbar * SI.c)) ** 3 * SI.c**j
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{_KERNELS[key][0]}: SI prefactor overflows at "
                          f"T={params.temperature!r} K, g={params.degeneracy!r}")
    return value


def _si_value(key: str, params: GasParameters, cfg: NumericsConfig | None) -> float:
    values, _ = _route(reduce(params).x, cfg or DEFAULT_NUMERICS, key)
    return values[key] * _si_prefactor(params, key)


def number_density(params: GasParameters, cfg: NumericsConfig | None = None) -> float:
    """Photon number per unit volume, m^-3."""
    return _si_value("n", params, cfg)


def energy_density(params: GasParameters, cfg: NumericsConfig | None = None) -> float:
    """Internal energy per unit volume, J/m^3."""
    return _si_value("u", params, cfg)


def mean_speed(params: GasParameters, cfg: NumericsConfig | None = None) -> float:
    """Phase-space mean photon speed, m/s; exactly c for m = 0.

    Independent of the degeneracy (it cancels in the ratio).
    """
    return _si_value("v", params, cfg)


def photon_speed(energy: float, mass: float) -> float:
    """Speed of a single photon of the given energy: c sqrt(1 - (mc^2/E)^2)."""
    if not (math.isfinite(energy) and energy >= 0):
        raise DomainError(f"energy must be finite and >= 0 J, got {energy!r}")
    if not (math.isfinite(mass) and mass >= 0):
        raise DomainError(f"mass must be finite and >= 0 kg, got {mass!r}")
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


def spectral_energy_density(omega: float, params: GasParameters) -> float:
    """Energy density per unit angular frequency, J s / m^3.

    Vanishes at and below the threshold omega = mc^2/hbar; for m = 0 this is
    exactly the Planck law (times g/2).
    """
    if not (math.isfinite(omega) and omega >= 0):
        raise DomainError(f"omega must be finite and >= 0 rad/s, got {omega!r}")
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
        occupation = ((oracle._occupation(y), 1),)
    else:
        occupation = ((kt, 1), (SI.hbar, -1), (omega, -1))
    speed_factor = 1.0
    if params.mass > 0.0:
        ratio = threshold / omega
        speed_factor = math.sqrt(1.0 - ratio * ratio)
    prefactor = 0.5 * params.degeneracy * SI.hbar / (math.pi**2 * SI.c**3)
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


def radiance(params: GasParameters, cfg: NumericsConfig | None = None) -> float:
    """Power radiated per unit area of a small opening, W/m^2.

    Uses the flux of u v/4 over one hemisphere, which reduces to the
    Stefan-Boltzmann law exactly at m = 0 and falls below the naive
    (c/4) U/V relation for any m > 0.
    """
    return _si_value("R", params, cfg)


def radiance_naive(params: GasParameters, cfg: NumericsConfig | None = None) -> float:
    """The massless-photon relation R = (c/4) U/V, kept as a comparator.

    Correct only at m = 0; for m > 0 it overestimates the radiance because
    massive photons leave the cavity at v < c.
    """
    return 0.25 * SI.c * energy_density(params, cfg)


def small_mass_radiance(params: GasParameters) -> float:
    """Leading small-x radiance: R_SB [1 - (5/2pi^2) x^2].

    Applicability (x < 1) is the caller's responsibility; the expression is
    evaluated as stated either way.
    """
    x = reduce(params).x
    stefan = _si_prefactor(params, "R") * _R_HAT_MAX
    return stefan * (1.0 - 2.5 / math.pi**2 * x * x)


def low_temp_radiance(params: GasParameters) -> float:
    """Low-temperature radiance asymptote (g/2)(mc/pi)^2 (kT)^2 e^-x / (2 hbar^3).

    Meaningful for x > 1; the caller checks the regime.
    """
    x = reduce(params).x
    return _si_prefactor(params, "R") * x * x * math.exp(-x) / (2.0 * math.pi**2)


def low_temp_mean_speed(params: GasParameters) -> float:
    """Nonrelativistic mean speed sqrt(8 kT / pi m).

    Requires x >= 8/pi; below that boundary the formula would exceed c and
    a RegimeError is raised.
    """
    x = reduce(params).x
    if x < 8.0 / math.pi:
        raise RegimeError(
            f"nonrelativistic mean speed needs x >= 8/pi, got x={x!r}"
        )
    return math.sqrt(8.0 * SI.k_B * params.temperature / (math.pi * params.mass))


def evaluate(params: GasParameters, cfg: NumericsConfig | None = None) -> RadiometryReport:
    """Full radiometry report for one (m, T) point."""
    return _report(params, reduce(params).x, cfg)


def _report(params: GasParameters, x: float, cfg: NumericsConfig | None) -> RadiometryReport:
    """The report of params, with its kernels evaluated and routed at x.

    x is mc^2/kT of params up to rounding; an x sweep passes its grid value,
    so the printed x and the route are those of the grid.
    """
    red = reduced_functions(x, cfg)
    u_si = red.u_hat * _si_prefactor(params, "u")
    return RadiometryReport(
        params=params,
        x=red.x,
        number_density=red.n_hat * _si_prefactor(params, "n"),
        energy_density=u_si,
        mean_speed=red.v_hat * _si_prefactor(params, "v"),
        radiance=red.r_hat * _si_prefactor(params, "R"),
        radiance_naive=0.25 * SI.c * u_si,
        method=red.method,
    )
