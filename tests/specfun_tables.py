"""Generator of the literal tables in photongas.specfun.

    python tests/specfun_tables.py

prints the three tables as Python source, ready to paste into specfun.py:

* _K01_CHEBYSHEV, the Chebyshev coefficients of sqrt(z) e^z K0(z) and
  sqrt(z) e^z K1(z) in y = 4/z - 1 on z > 2 (the form of Cephes'
  k0e/k1e; Moshier, Methods and Programs for Mathematical Functions, 1989).
  They are the discrete cosine transform of mpmath's besselk at
  CHEBYSHEV_NODES Chebyshev points, at 40 digits.  Each is halved, so the
  Clenshaw sum ends in b0 - b2, and they run from the highest order down.
* _HANKEL, the ratios a_k(nu)/a_(k-1)(nu) = (4 nu^2 - (2k - 1)^2)/(8k) of
  the Hankel expansion e^z K_nu(z) ~ sqrt(pi/2z) sum_k a_k(nu)/z^k
  (DLMF 10.40.2), for nu = 0 and 1.
* _ZETA_NEG_ODD, zeta(1 - 2j) = -B_2j/(2j) for j = 1..20, from the
  Bernoulli numbers B_2..B_40 in exact rational arithmetic, written as
  integer ratios.

tests/test_specfun.py runs the same functions and compares with the module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

CHEBYSHEV_TERMS = 24
CHEBYSHEV_NODES = 64
CHEBYSHEV_DPS = 40
HANKEL_TERMS = 20
ZETA_TERMS = 20


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


def hankel_ratios() -> tuple[tuple[float, float], ...]:
    """(4 nu^2 - (2k - 1)^2)/(8k) for nu = 0 and 1, k = 1..HANKEL_TERMS."""
    return tuple((float(Fraction(-(2 * k - 1) ** 2, 8 * k)),
                  float(Fraction(4 - (2 * k - 1) ** 2, 8 * k)))
                 for k in range(1, HANKEL_TERMS + 1))


def bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n, with B_1 = -1/2, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def zeta_negative_odd() -> tuple[Fraction, ...]:
    """zeta(1 - 2j) = -B_2j/(2j) for j = 1..ZETA_TERMS, exactly."""
    b = bernoulli(2 * ZETA_TERMS)
    return tuple(-b[2 * j] / (2 * j) for j in range(1, ZETA_TERMS + 1))


def main() -> None:
    print("_K01_CHEBYSHEV = (")
    for c0, c1 in chebyshev_k01():
        print(f"    ({c0!r}, {c1!r}),")
    print(")")
    print("_HANKEL = (")
    for a0, a1 in hankel_ratios():
        print(f"    ({a0!r}, {a1!r}),")
    print(")")
    print("_ZETA_NEG_ODD = (")
    for value in zeta_negative_odd():
        print(f"    {value.numerator} / {value.denominator},")
    print(")")


if __name__ == "__main__":
    main()
