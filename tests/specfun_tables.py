"""Generator of the literal tables in photongas.specfun.

    python tests/specfun_tables.py

prints the five literal tables as Python source, ready to paste into
specfun.py (its sixth, _HANKEL, is built from its definition at import):

* _K01_CHEBYSHEV, the Chebyshev coefficients of sqrt(z) e^z K0(z) and
  sqrt(z) e^z K1(z) in y = 4/z - 1 on z > 2 (the form of Cephes'
  k0e/k1e; Moshier, Methods and Programs for Mathematical Functions, 1989).
  They are the discrete cosine transform of mpmath's besselk at
  CHEBYSHEV_NODES Chebyshev points, at 40 digits.  Each is halved, so the
  Clenshaw sum ends in b0 - b2, and they run from the highest order down.
* _PI_RATIOS, pi^4/15, pi^2/15 and pi^2/60 correctly rounded: the
  massless limits of the gas kernels and their sums.
* _ZETA, zeta(2), zeta(3) and zeta(4) correctly rounded, mpmath's zeta at
  40 digits.
* _EXPANSION, one row (a_j, b_j, c_j, p_j, q_j) per order j of the
  expansions about x = 0: (a_j, b_j) of x^2 sum_n K2(n x)/n and c_j of
  x^4 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], from the residues of their
  Mellin transforms at EXPANSION_DPS digits (see small_x_expansions), and
  p_j and q_j of Li3 + x Li2 and Li4 + x Li3 + (x^2/3) Li2 of e^-x: the
  correctly rounded doubles of rationals from the Bernoulli numbers, with
  no mpmath (see polylog_expansions).
* _SUM_CHEBYSHEV, per piece [2, 4), [4, 8), [8, 16) and [16, 40) of the
  band between the expansions and the one-term form, the Chebyshev fit in
  ln x of a = e^x sqrt(x) sum_n K2(n x)/n,
  b = e^x x^1.5 sum_n [K1(n x)/(n x) + 3 K2(n x)/(n x)^2], c = sqrt(x) v_hat
  and d = e^x Q/(1 + x + x^2/3), Q = Li4 + x Li3 + (x^2/3) Li2 of e^-x,
  as monomial coefficients for Horner's rule (see sum_chebyshev).  The
  values at the nodes come from perfbench/reference.py, whose quadrature
  of the defining integrals takes about 50 ms per x.

tests/test_specfun.py runs the same functions and compares with the module.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

CHEBYSHEV_TERMS = 24
CHEBYSHEV_NODES = 64
CHEBYSHEV_DPS = 40
EXPANSION_TERMS = 20
EXPANSION_DPS = 40
SUM_EDGES = (2, 4, 8, 16, 40)
SUM_NODES = 32
SUM_CUTOFF = 2e-18


def chebyshev_k01() -> tuple[tuple[float, float], ...]:
    """Halved Chebyshev coefficients (K0, K1), highest order first."""
    import mpmath as mp

    with mp.workdps(CHEBYSHEV_DPS):
        nodes = [mp.pi * (j + mp.mpf(0.5)) / CHEBYSHEV_NODES for j in range(CHEBYSHEV_NODES)]
        coefficients = []
        for nu in (0, 1):
            values = []
            for theta in nodes:
                z = 4 / (1 + mp.cos(theta))
                values.append(mp.sqrt(z) * mp.exp(z) * mp.besselk(nu, z))
            coefficients.append([
                float(mp.fsum(v * mp.cos(k * t) for v, t in zip(values, nodes)) / CHEBYSHEV_NODES)
                for k in range(CHEBYSHEV_TERMS)])
    return tuple(zip(reversed(coefficients[0]), reversed(coefficients[1])))


def pi_ratios() -> tuple[float, ...]:
    """pi^4/15, pi^2/15 and pi^2/60, each correctly rounded."""
    import mpmath as mp

    with mp.workdps(40):
        return tuple(float(mp.pi**k / d) for k, d in ((4, 15), (2, 15), (2, 60)))


def zeta_values() -> tuple[float, ...]:
    """zeta(2), zeta(3) and zeta(4), each correctly rounded."""
    import mpmath as mp

    with mp.workdps(40):
        return tuple(float(mp.zeta(s)) for s in (2, 3, 4))


def bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n, with B_1 = -1/2, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def polylog_expansions() -> tuple[tuple[Fraction, Fraction], ...]:
    """Rows (p_j, q_j), j = 1..EXPANSION_TERMS, exactly, of the expansions

        Li3(w) + x Li2(w) = zeta(3) + x^2 (ln(x)/2 - 1/4) - x^3/6
                            + sum_j p_j x^(2j+2)
        Li4(w) + x Li3(w) + (x^2/3) Li2(w)
            = zeta(4) - zeta(2) x^2/6 + x^3/9 - x^4/48 + sum_j q_j x^(2j+3)

    with w = e^-x, convergent for x < 2 pi.  Each follows from the log
    expansion Li_s(e^-x) = sum_(k != s-1) zeta(s-k) (-x)^k/k!
    + (-x)^(s-1) (H_(s-1) - ln x)/(s-1)! (Wood, Kent TR 15-92, 1992), in
    which zeta(s-k) vanishes past k = s but at the odd k - s, and
    zeta(1 - 2j) = -B_2j/(2j):

        p_j = -(2j+1) zeta(1-2j)/(2j+2)!
        q_j = -4j(j+1) zeta(1-2j)/(3 (2j+3)!)

    The ln x terms cancel in the second.
    """
    b = bernoulli(2 * EXPANSION_TERMS)
    rows = []
    for j in range(1, EXPANSION_TERMS + 1):
        zeta = -b[2 * j] / (2 * j)
        rows.append((-(2 * j + 1) * zeta / factorial(2 * j + 2),
                     -4 * j * (j + 1) * zeta / (3 * factorial(2 * j + 3))))
    return tuple(rows)


def small_x_expansions() -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Rows (a_j, b_j) and c_j, j = 1..EXPANSION_TERMS, of the expansions

        x^2 sum_n K2(n x)/n = 2 zeta(3) + sum_j x^2j (a_j + b_j ln x)
        x^4 sum_n h(n x)    = pi^4/15 - x^4 ln(x)/16 + sum_j c_j x^2j

    with h(t) = K1(t)/t + 3 K2(t)/t^2, convergent for x < 2 pi (Flajolet,
    Gourdon & Dumas, Theor. Comput. Sci. 144, 3 (1995)).  From
    int_0^inf t^(s-1) K_nu(t) dt = 2^(s-2) Gamma((s-nu)/2) Gamma((s+nu)/2)
    (DLMF 10.43.19) the two sums have the Mellin transforms

        2^(s-2) Gamma(s/2 - 1) Gamma(s/2 + 1) zeta(s + 1)
        2^(s-4) (s - 1) Gamma(s/2) Gamma(s/2 - 2) zeta(s)

    and each term is a residue at a pole s = 2 - 2j, or s = 4 - 2j, of the
    transform times x^-s.  The first has double poles from s = 0 down, so a
    log at every order; in the second zeta(s) vanishes at s = -2, -4, ...,
    which leaves the double pole at s = 0 the only log term, and its pole at
    s = 1 cancels against s - 1.  With psi the digamma and k = j - 1 or
    k = j - 2:

        a_1 = -ln(2)/2 - 1/4, b_1 = 1/2
        a_j = C_k [zeta(1-2k) ((psi(k) + psi(k+2))/2 + ln 2) + zeta'(1-2k)]
        b_j = -C_k zeta(1-2k), C_k = 4^-k/((k+1)! (k-1)!)
        c_1 = -pi^2/12, c_2 = (ln(4 pi) - 1/4 - gamma)/16
        c_j = -(2k+1) 4^-(k+1) zeta'(-2k)/(k! (k+2)!)
    """
    import mpmath as mp

    with mp.workdps(EXPANSION_DPS):
        ab = [(-mp.log(2) / 2 - mp.mpf(1) / 4, mp.mpf(1) / 2)]
        c = [-mp.pi**2 / 12, (mp.log(4 * mp.pi) - mp.mpf(1) / 4 - mp.euler) / 16]
        for k in range(1, EXPANSION_TERMS):
            scale = mp.mpf(4)**-k / (mp.factorial(k + 1) * mp.factorial(k - 1))
            zeta = mp.zeta(1 - 2 * k)
            ab.append((scale * (zeta * ((mp.digamma(k) + mp.digamma(k + 2)) / 2 + mp.log(2))
                                + mp.zeta(1 - 2 * k, 1, 1)),
                       -scale * zeta))
        for k in range(1, EXPANSION_TERMS - 1):
            c.append(-(2 * k + 1) * mp.mpf(4)**-(k + 1) * mp.zeta(-2 * k, 1, 1)
                     / (mp.factorial(k) * mp.factorial(k + 2)))
        return (tuple((float(a), float(b)) for a, b in ab), tuple(float(value) for value in c))


def chebyshev_to_monomial(halved: list) -> list:
    """m_0..m_n, lowest order first, with sum_k m_k y^k = c_0 + 2 sum_(k>0)
    c_k T_k(y) for the halved Chebyshev coefficients c_0..c_n.  T_k comes
    from T_(k+1) = 2 y T_k - T_(k-1) with integer coefficients, and the sums
    are taken in the precision of the c_k."""
    monomial = [halved[0]] + [0] * (len(halved) - 1)
    t_prev, t = [1], [0, 1]
    for c in halved[1:]:
        for j, tj in enumerate(t):
            monomial[j] += 2 * c * tj
        t_prev, t = t, [2 * a - b for a, b in zip([0] + t, t_prev + [0, 0])]
    return monomial


def sum_chebyshev() -> tuple[tuple[float, float, float, tuple], ...]:
    """Per piece [x0, x1) of SUM_EDGES: (x1, mid, scale, rows).

    mid = ln(x0 x1)/2 and scale = 2/ln(x1/x0), so that y = (ln x - mid)
    scale maps the piece onto [-1, 1), and rows are the coefficients
    (a_k, b_k, c_k, d_k) of y^k, highest power first, of the Chebyshev fits
    in y of

        a = e^x sqrt(x) S = pi^2 e^x n_hat/x^1.5
        b = e^x x^1.5 E   = pi^2 e^x u_hat/x^2.5
        c = sqrt(x) v_hat
        d = e^x Q/(1 + x + x^2/3) = (2 pi^2/3) e^x r_hat/(1 + x + x^2/3)

    with S, E and Q the Bessel sums and the polylog combination of
    specfun._expansions.  Each is smooth in ln x and tends to a constant as
    x grows, d to 1.  The Chebyshev coefficients are the discrete cosine
    transform of the four at SUM_NODES Chebyshev points, from
    perfbench/reference.py at its 24 digits, d from its r_hat; they fall
    off like those of a function analytic in an ellipse about the piece
    (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
    ch. 8).  A piece keeps its rows up to the last with a Chebyshev
    coefficient above SUM_CUTOFF of its leading one: 16, 17, 17 and 19 rows.
    The kept series are turned into powers of y at the same 24 digits (see
    chebyshev_to_monomial), and each coefficient is rounded once.
    """
    import mpmath as mp

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import reference

    pieces = []
    with mp.workdps(reference.DPS):
        nodes = [mp.pi * (j + mp.mpf(0.5)) / SUM_NODES for j in range(SUM_NODES)]
        for x0, x1 in zip(SUM_EDGES, SUM_EDGES[1:]):
            mid = (mp.log(x0) + mp.log(x1)) / 2
            half = (mp.log(x1) - mp.log(x0)) / 2
            values = []
            for theta in nodes:
                x = mp.exp(mid + half * mp.cos(theta))
                kernels = reference.reduced(x)
                scale = mp.pi**2 * mp.exp(x) / mp.sqrt(x)
                values.append((kernels["n"] * scale / x, kernels["u"] * scale / x**2,
                               kernels["v"] * mp.sqrt(x),
                               kernels["r"] * 2 * mp.pi**2 / 3 * mp.exp(x) / (1 + x + x * x / 3)))
            rows = [[mp.fsum(v[i] * mp.cos(k * t) for v, t in zip(values, nodes)) / SUM_NODES
                     for i in range(4)] for k in range(SUM_NODES)]
            kept = 1 + max(k for k, row in enumerate(rows)
                           if any(abs(c / c0) > SUM_CUTOFF for c, c0 in zip(row, rows[0])))
            columns = [chebyshev_to_monomial([row[i] for row in rows[:kept]]) for i in range(4)]
            pieces.append((float(x1), float(mid), float(1 / half),
                           tuple(tuple(float(m[k]) for m in columns) for k in reversed(range(kept)))))
    return tuple(pieces)


def main() -> None:
    print("_K01_CHEBYSHEV = (")
    for c0, c1 in chebyshev_k01():
        print(f"    ({c0!r}, {c1!r}),")
    print(")")
    print("_PI_RATIOS = (")
    for value in pi_ratios():
        print(f"    {value!r},")
    print(")")
    print("_ZETA = (")
    for value in zeta_values():
        print(f"    {value!r},")
    print(")")
    k2_sum, energy_sum = small_x_expansions()
    print("_EXPANSION = (")
    for (a, b), c, (p, q) in zip(k2_sum, energy_sum, polylog_expansions()):
        print(f"    ({a!r}, {b!r}, {c!r}, {float(p)!r}, {float(q)!r}),")
    print(")")
    print("_SUM_CHEBYSHEV = (")
    for top, mid, scale, rows in sum_chebyshev():
        print(f"    ({top!r}, {mid!r}, {scale!r}, (")
        for a, b, c, d in rows:
            print(f"        ({a!r}, {b!r}, {c!r}, {d!r}),")
        print("    )),")
    print(")")


if __name__ == "__main__":
    main()
