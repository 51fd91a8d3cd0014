"""A trapezoid sum over the spectrum, and the states the spectral identities
are checked at.

``spectral_integral(params)`` is U/V = int u_w dw, and with ``speed=True``
it is the radiance R = int (1/4) u_w v(w) dw, with v(w) from
``photon_speed(hbar w, m)``: the paper's step, mode by mode.  The sum is
taken in t = ln(hbar (w - w0)/kT), w0 = mc^2/hbar the threshold, at step
h = 0.05 over [-60, 7], and summed with math.fsum.  In t the integrand falls
at least as e^(3t/2) below its peak and double-exponentially above it, so
the range leaves out under e^-90 of it, and the sum is at rounding
(Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  Over STATES its worst
distance from U/V is 0.55 of (16 + 2x) 2^-53, and from R 0.41 of it; with
plain += summation the worst for U/V is 0.75 of it.
"""

from __future__ import annotations

import math

from photongas import SI, GasParameters, photon_speed, reduce, spectral_energy_density

import kernel_reference

# t = -60 + j/20 for j = 0, ..., 1340, each one rounding of an exact quotient
_T = [(j - 1200) / 20 for j in range(1341)]

# 22 x over [0, 300], with every band and piece edge of the series route and
# the double below each, at 6 temperatures and 3 degeneracies
XS = [0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 25.0, 100.0, 200.0, 300.0,
      *kernel_reference.EDGES, *(math.nextafter(edge, 0.0) for edge in kernel_reference.EDGES)]
TEMPERATURES = (1e-3, 2.7, 300.0, 5800.0, 1e6, 1e12)
DEGENERACIES = (1.0, 2.0, 3.0)


def spectral_integral(params: GasParameters, speed: bool = False) -> float:
    """int u_w dw of params, or int (1/4) u_w v(w) dw if speed, in SI units."""
    w0 = params.mass * SI.c * SI.c / SI.hbar
    scale = SI.k_B * params.temperature / SI.hbar
    terms = []
    for t in _T:
        dw = scale * math.exp(t)  # w - w0, and dw/dt
        w = w0 + dw
        term = spectral_energy_density(w, params) * dw
        if speed:
            term *= 0.25 * photon_speed(SI.hbar * w, params.mass)
        terms.append(term)
    return 0.05 * math.fsum(terms)


def bound(params: GasParameters) -> float:
    """(16 + 2x) 2^-53, the relative distance the identities are held to."""
    return (16.0 + 2.0 * reduce(params).x) * 2.0**-53


def params_at(x: float, temperature: float, degeneracy: float) -> GasParameters:
    """The state whose x = mc^2/kT lies nearest x on x's side of every edge.

    Not every double x is mc^2/kT of a double m at a given T; of the masses
    within 3 ulps of x kT/c^2 this takes the one whose x is nearest, among
    those in x's band and piece.
    """
    mass = x * SI.k_B * temperature / (SI.c * SI.c)
    masses = [mass]
    for direction in (0.0, math.inf):
        near = mass
        for _ in range(3):
            near = math.nextafter(near, direction)
            masses.append(near)

    def distance(m):
        got = reduce(GasParameters(m, temperature, degeneracy)).x
        return (any((got < edge) != (x < edge) for edge in kernel_reference.EDGES),
                abs(got - x))

    return GasParameters(min(masses, key=distance), temperature, degeneracy)


STATES = [params_at(x, temperature, g)
          for x in XS for temperature in TEMPERATURES for g in DEGENERACIES]
