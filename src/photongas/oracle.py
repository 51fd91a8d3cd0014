"""Quadrature oracles over the defining phase-space integrals.

These evaluate the reduced number density, mean speed, energy density, and
radiance of the massive-photon gas by adaptive integration of the raw
Bose-Einstein integrals, with no series expansion anywhere.  The closed-form
kernels in :mod:`photongas.core` are required to reproduce them, which makes
this module both the small-x evaluation path and the test oracle.

All four kernels are moments of one Bose integrand,
int_0^inf s^2 w(s, E) / (e^E - 1) ds with s = pc/kT, E = sqrt(s^2 + x^2) and
w = 1 (number), E (energy), s/E (the mean-speed numerator) or s (radiance).
Every moment is integrated in one variable t, s = x sinh t, at every x: no
switch of variable and no regime edge.  The range in t is finite: it ends
where E - x = _TAIL, past which the occupation e^-E is below e^-60 of its
value at threshold, so the driver integrates finite intervals only.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError

_EPS = 2.220446049250313e-16

# 7-point Gauss / 15-point Kronrod pairs: (abscissa, Gauss weight, Kronrod
# weight); Gauss weight 0 marks Kronrod-only nodes.  Nodes are symmetric.
_GK_PAIRS = (
    (0.991455371120813, 0.000000000000000, 0.022935322010529),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.864864423359769, 0.000000000000000, 0.104790010322250),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.586087235467691, 0.000000000000000, 0.169004726639267),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.207784955007898, 0.000000000000000, 0.204432940075298),
)
_GK_CENTER_GAUSS = 0.417959183673469
_GK_CENTER_KRONROD = 0.209482141084728

# Floor on the scale a of the substitution s = a sinh t.
_A_FLOOR = 1e-60
# Every moment's range ends where E - x reaches this.
_TAIL = 60.0
# Default relative tolerance of the adaptive quadrature, and its cap on the
# bisection depth of a panel.
QUAD_TOL = 1e-10
_MAX_DEPTH = 60


def _check_quad_tol(rel_tol: float) -> None:
    if not (1e-14 <= rel_tol <= 1e-6):
        raise DomainError(f"quad_tol must be in [1e-14, 1e-6], got {rel_tol}")


class QuadratureResult(NamedTuple):
    value: float
    error: float


def _gk15(f: Callable[[float], float], a: float, b: float):
    """One Gauss-Kronrod panel: returns (k15, err_estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    k15 = _GK_CENTER_KRONROD * fc
    g7 = _GK_CENTER_GAUSS * fc
    resabs = _GK_CENTER_KRONROD * abs(fc)
    values = [(fc, _GK_CENTER_KRONROD)]
    for node, wg, wk in _GK_PAIRS:
        fp = f(center + half * node)
        fm = f(center - half * node)
        k15 += wk * (fp + fm)
        g7 += wg * (fp + fm)
        resabs += wk * (abs(fp) + abs(fm))
        values.append((fp, wk))
        values.append((fm, wk))
    mean = k15 * 0.5
    resasc = sum(wk * abs(v - mean) for v, wk in values)
    k15 *= half
    g7 *= half
    resabs *= half
    resasc *= half
    raw = abs(k15 - g7)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    # Roundoff floor: the difference of two converged rules is noise.
    err = max(err, 10.0 * _EPS * resabs)
    return k15, err


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float = QUAD_TOL) -> QuadratureResult:
    """int_a^b f over a finite interval a < b, by globally adaptive bisection.

    Each panel carries an embedded-rule error estimate.  Raises
    :class:`DomainError`, naming quad_tol if rel_tol is out of range and
    both bounds unless they are finite with a < b, and
    :class:`ConvergenceError` (carrying the best estimate and its error
    bound) if the subdivision depth is exhausted first.
    """
    _check_quad_tol(rel_tol)
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise DomainError(f"integration bounds must be finite with a < b, got [{a}, {b}]")

    # Four starter panels so a peak between the nodes of a single panel
    # cannot masquerade as convergence.
    heap = []
    counter = 0
    total_val = 0.0
    total_err = 0.0
    width = (b - a) / 4.0
    for i in range(4):
        lo = a + i * width
        hi = b if i == 3 else a + (i + 1) * width
        val, err = _gk15(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, 0))
        counter += 1
        total_val += val
        total_err += err

    for _ in range(20000):
        if total_err <= rel_tol * abs(total_val) or total_err == 0.0:
            return QuadratureResult(total_val, total_err)
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            raise ConvergenceError(
                f"adaptive quadrature exhausted depth {_MAX_DEPTH} "
                f"(estimate {total_val!r}, error bound {total_err!r})",
                value=total_val,
                error=total_err,
            )
        mid = 0.5 * (lo + hi)
        val_l, err_l = _gk15(f, lo, mid)
        val_r, err_r = _gk15(f, mid, hi)
        total_val += val_l + val_r - val
        total_err += err_l + err_r + neg_err  # neg_err = -err of the split panel
        heapq.heappush(heap, (-err_l, counter, lo, mid, val_l, depth + 1))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, mid, hi, val_r, depth + 1))
        counter += 1

    raise ConvergenceError(
        f"adaptive quadrature exceeded the panel budget "
        f"(estimate {total_val!r}, error bound {total_err!r})",
        value=total_val,
        error=total_err,
    )


def _occupation(y: float) -> float:
    # 1/(e^y - 1); expm1 keeps small y accurate, the exp(-y) branch avoids
    # overflow and underflows cleanly to 0 for very large y.
    if y < 40.0:
        return 1.0 / math.expm1(y)
    return math.exp(-y)


def _check_x(x: float) -> float:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise DomainError(f"reduced x must be finite and >= 0, got {x!r}")
    return float(x)


def _moment(x: float, p: int, q: int, rel_tol: float) -> float:
    """int_0^inf s^(2+p) E^q / (e^E - 1) ds with E = sqrt(s^2 + x^2).

    Integrated in t with s = a sinh t, E = a hypot(sinh t, x/a), so the
    thermal bulk, the turn at s ~ x and the thin layer above threshold at
    large x all sit on an O(1) range of t.  a = x, floored where sinh t or
    the powers of 1/a would overflow; below the floor the mass moves the
    integral by O(x^2), under a double's precision.  The range ends where
    E - x = _TAIL, at sinh t = sqrt(d (d + 2x/a)) with d = _TAIL/a; unlike
    acosh(1 + d), its asinh does not round to 0 when d is tiny.
    """
    x = _check_x(x)
    a = max(x, _A_FLOOR)
    r = x / a

    def f(t: float) -> float:
        sh = math.sinh(t)
        h = math.hypot(sh, r)
        return sh ** (2 + p) * h**q * math.cosh(t) * _occupation(a * h)

    d = _TAIL / a
    t_upper = math.asinh(math.sqrt(d * (d + 2.0 * r)))
    value = integrate_adaptive(f, 0.0, t_upper, rel_tol).value
    # a^(3+p+q) multiplied in from the left: an integral that underflowed
    # stays 0 where a power of a huge x would overflow.
    for _ in range(3 + p + q):
        value *= a
    return value


def quad_number_density(x: float, rel_tol: float = QUAD_TOL) -> float:
    """Reduced number density (1/pi^2) int_0^inf s^2/(e^sqrt(s^2+x^2) - 1) ds."""
    return _moment(x, 0, 0, rel_tol) / math.pi**2


def quad_mean_speed(x: float, rel_tol: float = QUAD_TOL) -> float:
    """Reduced mean speed: the phase-space average of v/c = pc/E.

    Ratio of int s^3/(sqrt(s^2+x^2)(e^sqrt(s^2+x^2)-1)) ds over
    int s^2/(e^sqrt(s^2+x^2)-1) ds.  At x = 0 both integrands coincide, so
    the ratio is returned as exactly 1.
    """
    if _check_x(x) == 0.0:
        return 1.0
    den = _moment(x, 0, 0, rel_tol)
    if den <= 0.0:
        raise ConvergenceError(
            f"occupation underflowed at x={x!r}; the mean-speed ratio is undefined",
            value=math.nan,
        )
    # v = pc/E <= c at every s, but two separately adapted quadratures can
    # round their ratio past 1 where the mass is negligible.
    return min(_moment(x, 1, -1, rel_tol) / den, 1.0)


def quad_energy_density(x: float, rel_tol: float = QUAD_TOL) -> float:
    """Reduced energy density (1/pi^2) int s^2 sqrt(s^2+x^2)/(e^sqrt(..)-1) ds."""
    return _moment(x, 0, 1, rel_tol) / math.pi**2


def quad_radiance(x: float, rel_tol: float = QUAD_TOL) -> float:
    """Reduced radiance (1/4pi^2) int_x^inf eps (eps^2 - x^2)/(e^eps - 1) deps.

    The integrand is the spectral energy density times the speed factor and
    the one-hemisphere flux factor 1/4.  With eps d eps = s ds it is the
    moment (1/4pi^2) int s^3/(e^E - 1) ds, on the same substitution as the
    other kernels.
    """
    return _moment(x, 1, 0, rel_tol) / (4.0 * math.pi**2)
