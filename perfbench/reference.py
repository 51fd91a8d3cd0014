"""High-precision reference values for the four reduced kernels, via mpmath.

The reference integrates the defining phase-space integrals in the momentum
variable s = pc/kT with a composite 16-point Gauss-Legendre rule at 24 decimal
digits:

    n_hat = (1/pi^2)  int s^2 B ds          u_hat = (1/pi^2) int s^2 E B ds
    v_hat = int (s^3/E) B ds / int s^2 B ds  r_hat = (1/4pi^2) int s^3 B ds

with E = sqrt(s^2 + x^2) and B = 1/(e^E - 1).  It shares no code and no
algorithm with either library route (Bessel sums and polylogarithms above
x_switch, adaptive GK15 quadrature in double precision below it).

The panel edges are fixed, not adaptive.  Below s = 1 they double from x/2, so
every panel near s = 0 is narrow compared with its distance to the branch
points s = +-ix.  Above that they follow the energy above threshold,
q = E - x, in steps of at most 4 up to q = 82, where the integrand has fallen
by e^-82.  A fixed split into a few wide panels is not enough: a three-panel
mp.quad is off by 5e-4 at x = 100.  ``selftest.py`` checks this reference
against mp.besselk sums and mp.polylog closed forms to 1e-20.

The common factor e^-x is taken out of every integrand and restored in mpmath,
whose exponent range is unbounded, so the reference also covers x far past
the point where the library's doubles underflow.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 24
DBL_MIN = 2.2250738585072014e-308

# SI constants with the values the library documents (2019 SI).
C = 299_792_458.0
K_B = 1.380_649e-23
HBAR = 1.054_571_817e-34


def _gauss_legendre(n: int):
    with mp.workdps(DPS + 10):
        nodes = []
        for i in range(1, n + 1):
            t = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (n + mp.mpf(0.5)))
            for _ in range(100):
                p0, p1 = mp.mpf(1), t
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
                dp = n * (t * p1 - p0) / (t * t - 1)
                step = p1 / dp
                t -= step
                if abs(step) < mp.mpf(10) ** (-DPS - 8):
                    break
            nodes.append((t, 2 / ((1 - t * t) * dp * dp)))
    return nodes


_NODES = _gauss_legendre(16)


def _panel_edges(x):
    edges = set()
    if x < 1:
        s = x / 2
        while s < 1:
            edges.add(s)
            s *= 2
    qs = [mp.mpf(1) / 8, mp.mpf(1) / 4, mp.mpf(1) / 2, mp.mpf(1), mp.mpf(2)]
    qs += [mp.mpf(q) for q in range(6, 83, 4)]
    for q in qs:
        edges.add(mp.sqrt(q * (q + 2 * x)))
    return [mp.mpf(0)] + sorted(edges)


def reduced(x: float) -> dict:
    """Reference n_hat, u_hat, v_hat, r_hat at x > 0, as mpf values."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"reference needs a finite x > 0, got {x!r}")
    with mp.workdps(DPS):
        xm = mp.mpf(x)
        i_n = i_u = i_v = i_r = mp.mpf(0)
        edges = _panel_edges(xm)
        for a, b in zip(edges, edges[1:]):
            mid = (a + b) / 2
            half = (b - a) / 2
            for t, w in _NODES:
                s = mid + half * t
                s2 = s * s
                e = mp.sqrt(s2 + xm * xm)
                # e^x B = e^-(E - x) / (1 - e^-E), with E - x = s^2 / (E + x)
                f = w * half * mp.exp(-s2 / (e + xm)) / -mp.expm1(-e)
                i_n += s2 * f
                i_u += s2 * e * f
                i_v += s2 * s / e * f
                i_r += s2 * s * f
        damp = mp.exp(-xm) / mp.pi ** 2
        return {"n": +(i_n * damp), "u": +(i_u * damp), "v": +(i_v / i_n),
                "r": +(i_r * damp / 4)}


def si_values(x: float, temperature: float, degeneracy: float = 2.0) -> dict:
    """Reference SI report fields, each as (value, floor) in mpmath.

    ``floor`` is the SI value of a reduced kernel equal to the smallest normal
    double: the library works in reduced form, so a reduced value below the
    normal range carries no relative accuracy and is compared absolutely.
    """
    k = reduced(x)
    with mp.workdps(DPS):
        kt = mp.mpf(K_B) * mp.mpf(temperature)
        scale = (kt / (mp.mpf(HBAR) * mp.mpf(C))) ** 3
        g2 = mp.mpf(degeneracy) / 2
        c = mp.mpf(C)
        factors = {
            "number_density": g2 * scale,
            "energy_density": g2 * kt * scale,
            "mean_speed": c,
            "radiance": g2 * kt * scale * c,
            "radiance_naive": c / 4 * g2 * kt * scale,
        }
        kernel = {"number_density": k["n"], "energy_density": k["u"],
                  "mean_speed": k["v"], "radiance": k["r"],
                  "radiance_naive": k["u"]}
        return {name: (factors[name] * kernel[name], factors[name] * DBL_MIN)
                for name in factors}


def rel_err(value: float, reference) -> float:
    """Relative error of a library double against a (value, floor) pair.

    A reference below the normal double range matches an exact 0 (or any
    subnormal), and then the error counts as 0.
    """
    ref, floor = reference
    if abs(ref) < DBL_MIN and abs(value) < DBL_MIN:
        return 0.0
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - ref) / max(abs(ref), floor))
