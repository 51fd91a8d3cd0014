"""Quadrature oracles over the defining phase-space integrals.

These evaluate the reduced number density, mean speed, energy density, and
radiance of the massive-photon gas by adaptive integration of the raw
Bose-Einstein integrals, with no series expansion anywhere.  The closed-form
kernels in :mod:`photongas.core` are required to reproduce them, which makes
this module both the small-x evaluation path and the test oracle.

Reduced variables: s = pc/kT for the momentum-space integrals, eps = E/kT for
the radiance integral.  For x > 30 the integration variable is switched to
t with eps = x cosh t so that the exponentially thin layer above threshold is
sampled on an O(1) interval.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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

# Switch to the eps = x cosh t parametrization beyond this x.
_COSH_SWITCH = 30.0


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_depth: int = 60
    tail_cutoff: float = 50.0

    def __post_init__(self):
        if not (1e-14 <= self.rel_tol <= 1e-6):
            raise DomainError(f"rel_tol must be in [1e-14, 1e-6], got {self.rel_tol}")
        if self.max_depth < 20:
            raise DomainError(f"max_depth must be >= 20, got {self.max_depth}")
        if not (math.isfinite(self.tail_cutoff) and self.tail_cutoff >= 40):
            raise DomainError(f"tail_cutoff must be >= 40, got {self.tail_cutoff}")


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


def _truncate_upper(f: Callable[[float], float], a: float, tail_cutoff: float) -> float:
    """Find b with |f(b)| below e^-tail_cutoff of the sampled peak."""
    cut = math.exp(-tail_cutoff)
    peak = abs(f(a))
    step = 0.25
    for _ in range(80):
        u = a + step
        v = abs(f(u))
        if v > peak:
            peak = v
        elif peak > 0.0 and v <= peak * cut:
            return u
        step *= 2.0
    if peak == 0.0:
        return a + 1.0
    raise ConvergenceError(
        "integrand does not decay below the tail cutoff on the searched range"
    )


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Globally adaptive bisection with an embedded-rule error estimate.

    ``b`` may be ``math.inf``; the domain is then truncated where the
    integrand has fallen by e^-tail_cutoff relative to its sampled peak.
    Raises :class:`ConvergenceError` (carrying the best estimate and its
    error bound) if the subdivision depth is exhausted first.
    """
    cfg = cfg or QuadratureConfig()
    if math.isinf(b):
        b = _truncate_upper(f, a, cfg.tail_cutoff)
    if not (b > a):
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")

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
        if total_err <= cfg.rel_tol * abs(total_val) or total_err == 0.0:
            return QuadratureResult(total_val, total_err)
        neg_err, _, lo, hi, val, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth:
            raise ConvergenceError(
                f"adaptive quadrature exhausted depth {cfg.max_depth} "
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


def _energy_peak(x: float) -> float:
    # Upper bound for the reduced energy at which the s^2..s^3 family of
    # integrands peaks; used to anchor the tail truncation.
    return 0.5 * (3.0 + math.sqrt(9.0 + 4.0 * x * x))


def _s_upper(x: float, cfg: QuadratureConfig) -> float:
    e_max = _energy_peak(x) + cfg.tail_cutoff
    return math.sqrt(e_max * e_max - x * x)


def _t_upper(x: float, cfg: QuadratureConfig) -> float:
    # acosh(1 + d) written as log1p(d + sqrt(d(d + 2))): the acosh form loses
    # d to rounding once d falls under the spacing of doubles near 1 and
    # returns 0 for x beyond ~5.4e17.
    d = (cfg.tail_cutoff + 10.0) / x
    return math.log1p(d + math.sqrt(d * (d + 2.0)))


def quad_number_density(x: float, cfg: QuadratureConfig | None = None) -> float:
    """Reduced number density (1/pi^2) int_0^inf s^2/(e^sqrt(s^2+x^2) - 1) ds."""
    x = _check_x(x)
    cfg = cfg or QuadratureConfig()
    if x > _COSH_SWITCH:
        def f(t: float) -> float:
            sh = math.sinh(t)
            ch = math.cosh(t)
            return sh * sh * ch * _occupation(x * ch)

        res = integrate_adaptive(f, 0.0, _t_upper(x, cfg), cfg)
        return res.value * x**3 / math.pi**2

    def f(s: float) -> float:
        if s == 0.0:
            return 0.0
        return s * s * _occupation(math.hypot(s, x))

    res = integrate_adaptive(f, 0.0, _s_upper(x, cfg), cfg)
    return res.value / math.pi**2


def quad_mean_speed(x: float, cfg: QuadratureConfig | None = None) -> float:
    """Reduced mean speed: the phase-space average of v/c = pc/E.

    Ratio of int s^3/(sqrt(s^2+x^2)(e^sqrt(s^2+x^2)-1)) ds over
    int s^2/(e^sqrt(s^2+x^2)-1) ds.  At x = 0 both integrands coincide, so
    the ratio is returned as exactly 1.
    """
    x = _check_x(x)
    cfg = cfg or QuadratureConfig()
    if x == 0.0:
        return 1.0
    if x > _COSH_SWITCH:
        def f_num(t: float) -> float:
            sh = math.sinh(t)
            return sh**3 * _occupation(x * math.cosh(t))

        def f_den(t: float) -> float:
            sh = math.sinh(t)
            ch = math.cosh(t)
            return sh * sh * ch * _occupation(x * ch)

        t_up = _t_upper(x, cfg)
        num = integrate_adaptive(f_num, 0.0, t_up, cfg)
        den = integrate_adaptive(f_den, 0.0, t_up, cfg)
    else:
        def f_num(s: float) -> float:
            if s == 0.0:
                return 0.0
            e = math.hypot(s, x)
            return s**3 * _occupation(e) / e

        def f_den(s: float) -> float:
            if s == 0.0:
                return 0.0
            return s * s * _occupation(math.hypot(s, x))

        s_up = _s_upper(x, cfg)
        num = integrate_adaptive(f_num, 0.0, s_up, cfg)
        den = integrate_adaptive(f_den, 0.0, s_up, cfg)
    if den.value <= 0.0:
        raise ConvergenceError(
            f"occupation underflowed at x={x!r}; the mean-speed ratio is undefined",
            value=math.nan,
        )
    return num.value / den.value


def quad_energy_density(x: float, cfg: QuadratureConfig | None = None) -> float:
    """Reduced energy density (1/pi^2) int s^2 sqrt(s^2+x^2)/(e^sqrt(..)-1) ds."""
    x = _check_x(x)
    cfg = cfg or QuadratureConfig()
    if x > _COSH_SWITCH:
        def f(t: float) -> float:
            sh = math.sinh(t)
            ch = math.cosh(t)
            return (sh * ch) ** 2 * _occupation(x * ch)

        res = integrate_adaptive(f, 0.0, _t_upper(x, cfg), cfg)
        # Multiplied in from the left, so an integral that underflowed to 0
        # stays 0 where x**4 would overflow (x > 1.3e77).
        return res.value * x * x * x * x / math.pi**2

    def f(s: float) -> float:
        if s == 0.0:
            return 0.0
        e = math.hypot(s, x)
        return s * s * e * _occupation(e)

    res = integrate_adaptive(f, 0.0, _s_upper(x, cfg), cfg)
    return res.value / math.pi**2


def quad_radiance(x: float, cfg: QuadratureConfig | None = None) -> float:
    """Reduced radiance (1/4pi^2) int_x^inf eps (eps^2 - x^2)/(e^eps - 1) deps.

    The integrand is the spectral energy density times the speed factor and
    the one-hemisphere flux factor 1/4, written in reduced energy, so no
    square root survives at the threshold.
    """
    x = _check_x(x)
    cfg = cfg or QuadratureConfig()
    if x > _COSH_SWITCH:
        def f(t: float) -> float:
            sh = math.sinh(t)
            ch = math.cosh(t)
            return ch * sh**3 * _occupation(x * ch)

        res = integrate_adaptive(f, 0.0, _t_upper(x, cfg), cfg)
        return res.value * x**4 / (4.0 * math.pi**2)

    def f(e: float) -> float:
        if e == 0.0:
            return 0.0
        return e * (e * e - x * x) * _occupation(e)

    upper = x + cfg.tail_cutoff + 15.0
    res = integrate_adaptive(f, x, upper, cfg)
    return res.value / (4.0 * math.pi**2)
