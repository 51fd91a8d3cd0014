"""Quadrature oracles over the defining phase-space integrals.

These evaluate the reduced number density, mean speed, energy density, and
radiance of the massive-photon gas by quadrature of the raw Bose-Einstein
integrals, with no series expansion anywhere.  The closed-form kernels in
:mod:`photongas.core` are required to reproduce them: this module is the
oracle of the tests and of ``photongas validate``, and no public kernel
takes it.

All four kernels are moments of one Bose integrand,
int_0^inf s^2 w(s, E) / (e^E - 1) ds with s = pc/kT, E = sqrt(s^2 + x^2) and
w = 1 (number), E (energy), s/E (the mean-speed numerator) or s (radiance).
In u = ln(s/a), a = max(1, sqrt(x)), each moment is analytic in a strip about
the real axis and decays exponentially at the bottom and double-exponentially
at the top, so a trapezoid sum converges geometrically in 1/h (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014)).  The sum is taken in tau, where
u = tau - e^(-5 - tau).  Above u = -3 a step in tau is the same step in u to
within e^-2; below it the bottom tail falls double-exponentially too
(Takahasi & Mori, Publ. RIMS 9, 721 (1974)), so it takes a few nodes where
u itself took dozens.  One set of nodes serves all four moments, with one
exp per node for the occupation; abscissae and weights come from one
constant table.  The step is fixed, h = 0.12 in tau, where the sum is
already at rounding: halving it moves no moment by more than 9e-16.  The
sum over every other node, at step 2h, is the pass's own check, at no extra
node: if it and the sum at h differ by more than 1e-6 in any moment, the
pass raises a ConvergenceError.  The range is finite.  It starts at tau = -7.5
(u = -19.68) for every x, where the lower tail it leaves out is under about
1e-17 of the bulk, and ends where E - x = _TAIL, past which the occupation
is below e^-60 of its value at threshold.

``integrate_adaptive`` and the ``quad_*`` views are on no route and not in
the package root; they stay only for perfbench/tracing.py, which binds them
by name, until ROADMAP items 1 and 4 retire them.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import ConvergenceError, DomainError
from .units import _DBL_MAX, _NUMBERS, _check_x, _shown

_EPS = 2.220446049250313e-16
# The relative error integrate_adaptive stops at.
_REL_TOL = 1e-10

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

# Every moment's range ends where E - x reaches this.
_TAIL = 60.0
# Cap on the bisection depth of a panel of integrate_adaptive.
_MAX_DEPTH = 60
# The trapezoid's step in tau: halving it moves no moment by more than
# 8.9e-16, and on log-spaced x over [1e-8, 5.6e16] the sum is within
# 8.3e-16 of the mpmath reference.
_H = 0.12
# The most a moment may change from the sum at 2h to the sum at h.  That
# change is the 2h sum's error, at most 1.45e-7 over all x (reached from
# about x = 1e6 on, where the scaled integrand stops moving with x); 1e-6
# leaves room above it and still refuses a broken step or node table.
_MAX_CHANGE = 1e-6
# The map u = phi(tau) = tau - e^(_TAU0 - tau): phi' = 1 + e^(_TAU0 - tau)
# is 1 to within e^-2 above u = _TAU0 + 2 and grows double-exponentially
# below.  A higher _TAU0 saves nodes but lets the bend into the bulk:
# -4.5 saves 4 a pass and lifts v's worst error from 4.4e-16 to 8.9e-16.
_TAU0 = -5.0
# The range starts at the largest grid tau with phi(tau) <= -19.5:
# phi(-7.5) = -19.68, so the lost lower tail, under t^2/2, is about 1e-17
# of the bulk at every x.
_START = -7.5
# What each of the four moments measures, in the order _moments returns them.
_QUANTITIES = ("number_density", "energy_density", "mean_speed", "radiance")


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


def integrate_adaptive(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(value, error) of int_a^b f over a finite interval a < b, by globally
    adaptive bisection, to a relative error of _REL_TOL.

    On no route; kept only for perfbench/tracing.py, which binds it by name.
    Each panel carries an embedded-rule error estimate.  Raises
    :class:`DomainError`, naming both bounds unless they are finite with
    a < b, and :class:`ConvergenceError` (carrying the best estimate and its
    error bound) if the subdivision depth is exhausted first.
    """
    if not (isinstance(a, _NUMBERS) and isinstance(b, _NUMBERS) and -_DBL_MAX <= a < b <= _DBL_MAX):
        raise DomainError("integration bounds must be finite with a < b, "
                          f"got [{_shown(a)}, {_shown(b)}]")

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
        if total_err <= _REL_TOL * abs(total_val) or total_err == 0.0:
            return total_val, total_err
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


def _node_table(start: float, size: int) -> tuple[tuple[float, float], ...]:
    """(t_j, t_j^3 phi'(tau_j)) at tau_j = start + j _H, j < size.

    t_j = e^phi(tau_j) is the abscissa s/a and the second entry its weight.
    start + j _H is summed in integers and rounded once, so a node near
    tau = 0, where the bulk lies, is off by an ulp of tau and not of start.
    """
    (n0, d0), (n, d) = start.as_integer_ratio(), _H.as_integer_ratio()
    table = []
    for j in range(size):
        tau = (n0 * d + j * n * d0) / (d0 * d)
        bend = math.exp(_TAU0 - tau)
        t = math.exp(tau - bend)
        table.append((t, t * t * t * (1.0 + bend)))
    return tuple(table)


# Every pass sums a leading slice of this one table.  It runs up to tau = 6,
# above the top node, 0.5 ln(_TAIL (_TAIL + 2)) + e^-10 + 2 _H at most, for
# every x while _TAIL <= 240.
_NODES = _node_table(_START, math.ceil((6.0 - _START) / _H) + 1)


def _node_sums(nodes: tuple[tuple[float, float], ...], a: float, r: float, w: float):
    """Sums over the (t, t^3 phi') pairs in nodes of the four scaled integrands.

    With t = s/a and e = E/a: t^3 phi' e^x B(E) times 1, e, t/e and t.  The
    occupation takes one exp per node, e^x B(E) = p / (1 - w p) with
    w = e^-x and p = e^-(E-x), where E - x = s^2/(E + x) = a t^2/(e + r),
    so no node overflows or loses E - x to cancellation.  1 - w p = 1 - e^-E
    is off by a relative eps/E, which matters only where the node's weight
    is proportional to s^2; t >= e^-19.7 keeps it far from 0.  t/e <= 1 in
    floating point, so the mean-speed sum never exceeds the number sum.
    """
    exp, hypot = math.exp, math.hypot  # local names: the hot loop
    sn = su = sv = sr = 0.0
    for t, g in nodes:
        e = hypot(t, r)
        p = exp(-a * (t * t) / (e + r))
        f = g * p / (1.0 - w * p)
        sn += f
        su += f * e
        sv += f * (t / e)
        sr += f * t
    return sn, su, sv, sr


def _moments(x: float) -> tuple[float, float, float, float]:
    """(n_hat, u_hat, v_hat, r_hat) from one trapezoid pass over four moments.

    The moments are int s^(3+p) E^q B(E) du, (p, q) = (0, 0), (0, 1),
    (1, -1) and (1, 0), with B = 1/(e^E - 1) and s = a e^u, summed in tau,
    u = phi(tau) = tau - e^(_TAU0 - tau), at the fixed step _H.  They are
    summed e^x-scaled and in units of a^(3+p+q); e^-x and the powers of a
    are applied after the sum, so x stays finite up to the largest double
    and a density whose e^-x underflows is an exact 0.  The range starts at
    tau = _START for every x, u = -19.68, where the lost lower tail is under
    about 1e-17 of the bulk, and ends on an even node past E - x = _TAIL,
    so the even nodes alone are the same range at step 2 _H.  Raises
    :class:`ConvergenceError`, naming the quantity that changed most, if a
    moment changes from the sum at 2 _H to the sum at _H by more than
    _MAX_CHANGE; it carries the value at _H and its distance from the value
    at 2 _H.
    """
    x = _check_x(x)
    a = max(1.0, math.sqrt(x))
    r = x / a
    d = _TAIL / a
    w = math.exp(-x)
    # E - x = _TAIL at u = top, (s/a)^2 = d (d + 2x/a) with d = _TAIL/a;
    # phi(tau) < tau, and phi(top + e^(_TAU0 - top)) >= top.
    top = 0.5 * math.log(d * (d + 2.0 * r))
    top += math.exp(_TAU0 - top)
    stop = 2 * math.ceil((top - _START) / (2.0 * _H)) + 1
    even = _node_sums(_NODES[:stop:2], a, r, w)
    odd = _node_sums(_NODES[1:stop:2], a, r, w)
    coarse = [2.0 * _H * s for s in even]
    sums = [_H * (s + m) for s, m in zip(even, odd)]
    changes = [abs(s / old - 1.0) for s, old in zip(sums, coarse)]
    if max(changes) <= _MAX_CHANGE:
        return _kernels(w, a, *sums)
    worst = changes.index(max(changes))
    value, previous = _kernels(w, a, *sums)[worst], _kernels(w, a, *coarse)[worst]
    raise ConvergenceError(
        f"{_QUANTITIES[worst]}: trapezoid sums at steps {2.0 * _H!r} and {_H!r} "
        f"differ by {changes[worst]:.3e}, above {_MAX_CHANGE!r}, at x={x!r}",
        value=value,
        error=abs(value - previous),
    )


def _kernels(w: float, a: float, sn: float, su: float, sv: float, sr: float):
    # e^-x = w last: in the band where it is subnormal it rounds only once.
    # Where it underflows, a^4 may overflow; the densities are an exact 0.
    v = sv / sn
    if w == 0.0:
        return 0.0, 0.0, v, 0.0
    a3 = a * a * a / math.pi**2
    return sn * a3 * w, su * a3 * a * w, v, sr * a3 * a / 4.0 * w


def quad_number_density(x: float) -> float:
    """Reduced number density (1/pi^2) int_0^inf s^2/(e^sqrt(s^2+x^2) - 1) ds."""
    return _moments(x)[0]


def quad_mean_speed(x: float) -> float:
    """Reduced mean speed: the phase-space average of v/c = pc/E.

    Ratio of int s^3/(sqrt(s^2+x^2)(e^sqrt(s^2+x^2)-1)) ds over
    int s^2/(e^sqrt(s^2+x^2)-1) ds, both from the same nodes, so it never
    exceeds 1 and is exactly 1 at x = 0.
    """
    return _moments(x)[2]


def quad_energy_density(x: float) -> float:
    """Reduced energy density (1/pi^2) int s^2 sqrt(s^2+x^2)/(e^sqrt(..)-1) ds."""
    return _moments(x)[1]


def quad_radiance(x: float) -> float:
    """Reduced radiance (1/4pi^2) int_x^inf eps (eps^2 - x^2)/(e^eps - 1) deps.

    The integrand is the spectral energy density times the speed factor and
    the one-hemisphere flux factor 1/4.  With eps d eps = s ds it is the
    moment (1/4pi^2) int s^3/(e^E - 1) ds, on the same nodes as the other
    kernels.
    """
    return _moments(x)[3]
