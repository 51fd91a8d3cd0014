"""Special-function tests against independent oracles.

A committed table of mpmath's besselk (tests/kernel_reference.py) checks
K0, K1 and K2, and an in-test trapezoid sum of the integral representation
int_0^inf exp(-z cosh t) cosh(2 t) dt checks K2 once more; the polylog and
zeta oracles are long brute-force sums with explicit tail bounds.  None of
them share code with the implementations under test.
"""

import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photongas import DomainError, core, specfun, zeta_value
from photongas.specfun import bessel_k2, energy_bessel_sum, k2_weighted_sum

import kernel_reference
import specfun_tables
from mpmath_reference import mpmath_kernels


def k2_oracle(z: float) -> float:
    """The trapezoid sum of K2(z) = int_0^inf exp(-z cosh t) cosh(2 t) dt.

    The integrand is even and analytic in a strip about the real axis, so
    the sum over t = j h converges geometrically in 1/h (Trefethen &
    Weideman, SIAM Rev. 56, 385 (2014)); its peak narrows as 1/sqrt(z), and
    the step with it.  The sum stops where z cosh t reaches 800, past which
    the integrand is below e^-800 of its peak, after 60 to 230 nodes.
    Against mp.besselk it is within 1.1e-14 at the z of the tests below.
    """
    h = 0.125 / max(1.0, math.sqrt(z))
    terms = [0.5 * math.exp(-z)]
    while z * math.cosh(len(terms) * h) < 800.0:
        t = len(terms) * h
        terms.append(math.exp(-z * math.cosh(t)) * math.cosh(2.0 * t))
    return h * math.fsum(terms)


def polylog_oracle(s: int, z: float) -> float:
    """Plain term-by-term summation down to a relative term cutoff of 1e-14,
    or to the first term that underflows to 0."""
    total = 0.0
    zn = 1.0
    for n in range(1, 2_000_000):
        zn *= z
        term = zn / n**s
        total += term
        if term == 0.0 or (term < 1e-14 * total and n > 10):
            return total
    raise AssertionError("oracle did not converge")


def zeta3_oracle() -> tuple[float, float]:
    """Brute sum of n^-3 with the integral tail bound Sum_{n>N} < 1/(2N^2)."""
    big_n = 10_000_000
    total = 0.0
    for n in range(big_n, 0, -1):
        total += 1.0 / n**3
    return total, 0.5 / big_n**2


# ---------------------------------------------------------------------------
# bessel_k2
# ---------------------------------------------------------------------------

def test_k2_small_argument_follows_two_over_z_squared():
    z = 0.01
    assert bessel_k2(z) == pytest.approx(2.0 / (z * z), rel=3e-5)


def test_k2_at_one_matches_integral_representation():
    oracle = k2_oracle(1.0)
    assert oracle == pytest.approx(1.62483889, rel=1e-8)  # anchor for the oracle itself
    assert bessel_k2(1.0) == pytest.approx(oracle, rel=1e-12)


def test_k2_large_argument_asymptote():
    z = 50.0
    leading = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
    value = bessel_k2(z)
    assert value == pytest.approx(leading, rel=0.04)
    # the deviation from the leading asymptote is 15/(8z) to first order
    assert value / leading - 1.0 == pytest.approx(15.0 / (8 * z), abs=5e-4)


@pytest.mark.parametrize("z", [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.999, 2.0,
                               2.001, 3.0, 5.0, 10.0, 16.0, 24.9, 25.1, 40.0,
                               100.0, 300.0, 600.0])
def test_k2_matches_quadrature_oracle_across_regimes(z):
    assert bessel_k2(z) == pytest.approx(k2_oracle(z), rel=2e-12)


def test_k2_underflows_safely_beyond_700():
    for z in (701.0, 710.0, 800.0, 1e4):
        value = bessel_k2(z)
        assert 0.0 <= value < 1e-300


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_k2_rejects_nonpositive_or_nonfinite(bad):
    with pytest.raises(DomainError):
        bessel_k2(bad)


def test_k2_names_itself_where_it_overflows_a_double():
    # K2(z) > 2/z^2 - 1/2, above the largest double at every z under
    # sqrt(2/DBL_MAX); from that z on the value is finite.  5e-324 halves to
    # 0, whose log the ascending series would take.
    smallest = 1.0547686614863e-154
    largest_overflowing = math.nextafter(smallest, 0.0)
    for z in (5e-324, 1e-310, 1e-200, largest_overflowing):
        assert Fraction(2) / Fraction(z) ** 2 - Fraction(1, 2) > sys.float_info.max
        with pytest.raises(DomainError) as info:
            bessel_k2(z)
        assert str(info.value) == f"bessel_k2: K2 overflows a double at z={z!r}"
    assert bessel_k2(smallest) == sys.float_info.max
    assert bessel_k2(1.055e-154) == 1.7969048314278653e308


def test_k2_positive_and_strictly_decreasing():
    grid = [10 ** (-2 + 4 * i / 60) for i in range(61)]
    values = [bessel_k2(z) for z in grid]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def k012(z: float, scaled: bool = False) -> tuple[float, float, float]:
    """(K0, K1, K2) from the library's pair, or e^z times each when scaled."""
    k0, k1 = specfun._k01_scaled(z) if scaled else specfun._k01(z)
    return k0, k1, k0 + 2.0 * k1 / z


def test_k01_pair_satisfies_its_derivative_identities():
    # K0' = -K1 and (z K1)' = -z K0 (DLMF 10.29.3), both sides from the
    # library's pair, the derivatives by a 4th-order central difference.  The
    # grid crosses both branch edges, z = 2 and z = 25.
    def derivative(f, z):
        h = 1e-3 * z
        return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)

    worst = 0.0
    for i in range(40):
        z = 0.1 * (30.0 / 0.1) ** (i / 39)
        k0, k1 = specfun._k01(z)
        dk0 = derivative(lambda t: specfun._k01(t)[0], z)
        dzk1 = derivative(lambda t: t * specfun._k01(t)[1], z)
        worst = max(worst, abs(dk0 / -k1 - 1), abs(dzk1 / (-z * k0) - 1))
    assert worst <= 1e-7


def k012_reference(z: float, scaled: bool = False) -> tuple[Decimal, Decimal, Decimal]:
    """(K0, K1, K2) from the committed K table, or e^z times each when
    scaled: K_nu = e^-z (e^z K_nu) and K2 = K0 + 2 K1/z, in decimal."""
    context = kernel_reference.CONTEXT
    k0, k1 = kernel_reference.load_k01()[z][:2]
    if not scaled:
        damp = context.exp(Decimal(-z))
        k0, k1 = context.multiply(damp, k0), context.multiply(damp, k1)
    return k0, k1, context.add(k0, context.divide(context.multiply(2, k1), Decimal(z)))


@pytest.mark.parametrize("z", kernel_reference.zs("k012"))
def test_k0_k1_k2_match_mpmath(z):
    for scaled in (False, True):
        if scaled or z < 700.0:  # K_nu itself is a normal double
            for value, reference in zip(k012(z, scaled), k012_reference(z, scaled)):
                assert kernel_reference.rel_err(value, reference) <= 1e-14, (scaled, value)


@pytest.mark.parametrize("z", kernel_reference.zs("far_past"))
def test_scaled_k2_matches_mpmath_far_past_underflow(z):
    value = k012(z, scaled=True)[2]
    assert kernel_reference.rel_err(value, k012_reference(z, scaled=True)[2]) <= 1e-14


def test_scaled_k01_matches_mpmath_to_a_few_ulps():
    # 5999 z log-spaced over [2, 1e6] and two far past underflow; prints the
    # worst z of each order
    rows = kernel_reference.load_k01()
    worst = [(0.0, None), (0.0, None)]
    for z in kernel_reference.zs("pair"):
        for nu, (value, reference) in enumerate(zip(specfun._k01_scaled(z), rows[z][:2])):
            worst[nu] = max(worst[nu], (kernel_reference.rel_err(value, reference), z),
                            key=lambda e: e[0])
    for nu, (err, z) in enumerate(worst):
        print(f"e^z K{nu}: worst relative error {err:.3e} at z = {z!r}")
    assert all(err <= 8e-16 for err, _ in worst), worst


def test_k01_table_matches_its_generator():
    # tests/kernel_reference.py's K rows from mp.besselk to 1e-20: every
    # 50th row, both sides of each of specfun's edges, and 1e17 and 1e308
    assert kernel_reference.K_EDGES == (specfun._K_SERIES_MAX, specfun._K_HANKEL_MIN)
    mp = pytest.importorskip("mpmath")
    rows = kernel_reference.load_k01()
    recompute = set(list(rows)[::50]) | {1e17, 1e308} | {
        z for z in kernel_reference.zs("k012")
        if any(abs(z / edge - 1) < 1e-14 for edge in kernel_reference.K_EDGES)}
    with mp.workdps(30):
        for z in sorted(recompute):
            for nu, (table, value) in enumerate(zip(rows[z][:2], kernel_reference.scaled_k01(z))):
                assert abs(mp.mpf(str(table)) / value - 1) <= 1e-20, (z, nu)


@pytest.mark.parametrize("edge", ["series", "hankel"])
def test_scaled_k01_is_continuous_across_its_edges(edge):
    # The two branches agree at the edge itself, and so do the pairs one
    # double apart on either side of it, to within 4 ulps.
    if edge == "series":
        z = specfun._K_SERIES_MAX
        below = tuple(math.exp(z) * k for k in specfun._k01_series(z))
        above = specfun._k01_chebyshev(z)
    else:
        z = specfun._K_HANKEL_MIN
        below = specfun._k01_chebyshev(z)
        above = specfun._k01_hankel(z)
    left = specfun._k01_scaled(math.nextafter(z, 0.0))
    right = specfun._k01_scaled(math.nextafter(z, math.inf))
    for a, b in (*zip(below, above), *zip(left, right)):
        assert abs(a - b) <= 4 * math.ulp(b)


def test_k01_work_per_pair_above_two(monkeypatch):
    # Chebyshev or Hankel terms per pair, a count that does not depend on the
    # host: 24 below the Hankel edge, 17 at it, and fewer as z grows.  Each
    # table is swapped for one that counts the entries read from it.
    reads = []

    class Counted(tuple):
        def __iter__(self):
            for entry in super().__iter__():
                reads.append(entry)
                yield entry

    for name in ("_K01_CHEBYSHEV", "_HANKEL"):
        monkeypatch.setattr(specfun, name, Counted(getattr(specfun, name)))

    def terms(z):
        before = len(reads)
        specfun._k01_scaled(z)
        return len(reads) - before

    grid = [math.nextafter(2.0, 3.0)] + [2.0 * 1e300 ** (i / 999) for i in range(1, 1000)]
    spots = (1e3, 1e6, 1e12, 1e17)
    counts = {z: terms(z) for z in grid + [specfun._K_HANKEL_MIN, *spots]}
    assert max(counts.values()) <= 25
    # The Hankel sum stops on its own terms, before its table runs out.
    assert counts[specfun._K_HANKEL_MIN] < len(specfun._HANKEL)
    assert [counts[z] for z in spots] == [6, 3, 2, 1]


def test_tables_match_their_generator():
    # tests/specfun_tables.py prints the literal tables of specfun; each
    # must appear in the module source exactly as printed.
    pytest.importorskip("mpmath")
    here = Path(__file__).resolve().parent
    printed = subprocess.run([sys.executable, str(here / "specfun_tables.py")],
                             check=True, capture_output=True, text=True).stdout
    source = Path(specfun.__file__).read_text()
    blocks = printed.split("\n)\n")
    assert [block.split(" = ")[0] for block in blocks[:-1]] == [
        "_K01_CHEBYSHEV", "_PI_RATIOS", "_ZETA", "_EXPANSION", "_SUM_CHEBYSHEV"]
    for block in blocks[:-1]:
        assert block + "\n)\n" in source, block.split(" = ")[0]


def test_kernel_table_matches_its_generator():
    # tests/kernel_reference.py's rows at every edge, the double below it and
    # every 50th x from perfbench/reference.py, and its "mpmath" rows from
    # mpmath_kernels, which shares no algorithm with it, to 1e-20.
    mp = pytest.importorskip("mpmath")
    reference = kernel_reference.generator()
    rows = kernel_reference.load()
    recompute = set(list(rows)[::50]) | {
        x for edge in kernel_reference.EDGES for x in (edge, math.nextafter(edge, 0.0))}
    with mp.workdps(30):
        checks = [(x, reference.reduced(x).values()) for x in sorted(recompute)]
        checks += [(x, mpmath_kernels(mp, mp.mpf(x))) for x in kernel_reference.xs("mpmath")]
        for x, kernels in checks:
            for key, table, value in zip("nuvr", rows[x][:4], kernels):
                assert abs(mp.mpf(str(table)) / value - 1) <= 1e-20, (x, key)


_PIECE_EDGES = kernel_reference.EDGES


@pytest.mark.parametrize("x", [math.nextafter(edge, 0.0) for edge in _PIECE_EDGES[1:]]
                         + list(_PIECE_EDGES[:-1]) + [3.0, 5.7, 11.0, 25.0])
def test_sum_tables_match_mpmath(x):
    # a = pi^2 e^x n_hat/x^1.5, b = pi^2 e^x u_hat/x^2.5 and c = sqrt(x) v_hat
    # at every piece edge, its left neighbour and inside each piece, against
    # mpmath's tanh-sinh quadrature of the defining integrals at 30 digits
    # (tests/mpmath_reference.py), and d = e^x Q/(1 + x + x^2/3) against
    # the closed form Q = Li4 + x Li3 + (x^2/3) Li2 of e^-x by mp.polylog;
    # neither shares an algorithm with the tables' generator.  The worst of
    # the four there is 1.6e-16.
    mp = pytest.importorskip("mpmath")
    values = specfun._sum_chebyshev(x)
    with mp.workdps(30):
        xm = mp.mpf(x)
        n_hat, u_hat, v_hat, _ = mpmath_kernels(mp, xm)
        scale = mp.pi**2 * mp.exp(xm) / mp.sqrt(xm)
        w = mp.exp(-xm)
        q = mp.polylog(4, w) + xm * mp.polylog(3, w) + xm * xm / 3 * mp.polylog(2, w)
        reference = (scale * n_hat / xm, scale * u_hat / xm**2, mp.sqrt(xm) * v_hat,
                     q / (w * (1 + xm + xm * xm / 3)))
    assert len(values) == 5
    for value, expected in zip(values, reference):
        assert value == pytest.approx(float(expected), rel=2.5e-16, abs=0.0)


def test_sum_tables_take_their_rows_by_piece():
    # 16 rows on [2, 4), 17 on [4, 16), 19 on [16, 40); the public views
    # report them as their terms, and 1 from x = 40 on.
    counts = [specfun._sum_chebyshev(x)[-1] for x in _PIECE_EDGES[:-1]]
    assert counts == [16, 17, 17, 19] == [len(rows) for *_, rows in specfun._SUM_CHEBYSHEV]
    assert [top for top, *_ in specfun._SUM_CHEBYSHEV] == list(_PIECE_EDGES[1:])
    assert [k2_weighted_sum(x).terms for x in (2.0, 39.9, 40.0, 1e300)] == [16, 19, 1, 1]


def test_chebyshev_rows_become_powers_of_y_exactly():
    # c_0 + 2 sum_k c_k T_k(y) with the halved c_k = 1/2: 1 + y + (2y^2 - 1)
    # + (4y^3 - 3y), in exact rationals.  Needs no mpmath.
    half = Fraction(1, 2)
    assert specfun_tables.chebyshev_to_monomial([Fraction(1), half, half, half]) == [0, -2, 2, 4]


def test_polylog_expansion_columns_are_exact_rationals():
    # p_j and q_j, regenerated from the Bernoulli numbers in exact rational
    # arithmetic; each literal is the correctly rounded double of its
    # fraction.  Needs no mpmath.
    exact = specfun_tables.polylog_expansions()
    assert exact[:2] == ((Fraction(1, 96), Fraction(1, 540)),
                         (Fraction(-1, 17280), Fraction(-1, 75600)))
    assert [(p, q) for *_, p, q in specfun._EXPANSION] == [
        (float(p), float(q)) for p, q in exact]


# ---------------------------------------------------------------------------
# polylogs: the combinations P = Li3 + x Li2 and Q = Li4 + x Li3 + (x^2/3) Li2
# of w = e^-x, which the kernels take from the expansions below x = 2, from
# the tables' fourth column up to 40 and from the first terms from there on
# ---------------------------------------------------------------------------

LN_2 = math.log(2.0)


def li1(z: float) -> float:
    """Li_1(z) = -ln(1 - z)."""
    return -math.log1p(-z)


def li(s: int, z: float) -> float:
    """Li_s(z) for s in {1, 2, 3, 4} and z in (0, 1/2]: the closed form of
    Li_1, or the brute-force sum."""
    return li1(z) if s == 1 else polylog_oracle(s, z)


def polylog_combinations(x: float) -> tuple[float, float]:
    """The library's (P, Q) at x: P = pi^2 n_hat v_hat/2, Q = (2 pi^2/3) r_hat."""
    n_hat, _, v_hat, r_hat = core._series(x)
    return math.pi**2 * n_hat * v_hat / 2, 2 * math.pi**2 / 3 * r_hat


@pytest.mark.parametrize("low, high", zip(_PIECE_EDGES, _PIECE_EDGES[1:]))
def test_radiance_from_two_matches_the_polylog_closed_form(low, high):
    # Of 3000 x log-spaced over [2, 40), those on the piece, and both ends
    # and the double below each: r_hat against (3/2 pi^2) Q by mp.polylog,
    # which shares nothing with the tables' generator.
    mp = pytest.importorskip("mpmath")
    grid = [x for x in (2.0 * 20 ** (k / 3000) for k in range(3000)) if low <= x < high]
    grid += [math.nextafter(low, 0.0), low, math.nextafter(high, 0.0), high]
    with mp.workdps(30):
        for x in grid:
            xm = mp.mpf(x)
            w = mp.exp(-xm)
            ref = 3 / (2 * mp.pi**2) * (mp.polylog(4, w) + xm * mp.polylog(3, w)
                                        + xm * xm / 3 * mp.polylog(2, w))
            assert abs(core._series(x)[3] / ref - 1) <= 1e-15, x


@pytest.mark.parametrize("s", [2, 3, 4])
def test_polylog_vanishes_at_zero(s):
    # From x = 40 on the radiance takes every Li_s(e^-x) as e^-x, its first
    # term: the second is 2^-s e^-x < 1.1e-18 of it, so the sum rounds to
    # e^-x.  e^-x underflows to 0 from x of about 745.13 on; at 745 it is
    # the smallest subnormal, whose square is an exact 0.  The radiance, its
    # polynomial times e^-x, is 0 from x of about 755 on.
    for x in (40.0, 100.0, 700.0, 745.0):
        w = math.exp(-x)
        assert li(s, w) == w
    assert math.exp(-745.0) == 5e-324
    for x in (760.0, 800.0, 1e300):
        assert core._series(x)[3] == 0.0


def test_polylog_half_matches_direct_series():
    # At w = 1/2, x = ln 2, the expansions' P and Q against direct sums of
    # the power series.
    oracle = polylog_oracle(2, 0.5)
    assert oracle == pytest.approx(0.58224052, abs=1e-8)
    p, q = polylog_combinations(LN_2)
    assert p == pytest.approx(li(3, 0.5) + LN_2 * oracle, rel=1e-12)
    assert q == pytest.approx(li(4, 0.5) + LN_2 * li(3, 0.5) + LN_2**2 / 3 * oracle,
                              rel=1e-12)


@given(z=st.floats(min_value=1e-6, max_value=0.5))
def test_polylog_decreases_with_order(z):
    # Li4 <= Li3 <= Li2 of w = e^-x bound the library's combinations:
    # (1 + x) Li3 <= P <= (1 + x) Li2 and
    # (1 + x + x^2/3) Li4 <= Q <= (1 + x + x^2/3) Li2.
    x = -math.log(z)
    p, q = polylog_combinations(x)
    assert (1 + x) * li(3, z) <= p * (1 + 1e-14)
    assert p <= (1 + x) * li(2, z) * (1 + 1e-14)
    poly = 1 + x + x * x / 3
    assert poly * li(4, z) <= q * (1 + 1e-14)
    assert q <= poly * li(2, z) * (1 + 1e-14)


@pytest.mark.parametrize("x", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_polylog_derivative_identity(s, x):
    # d/dx Li_s(e^-x) = -Li_(s-1)(e^-x) gives P' = -x Li1 and
    # Q' = -(x/3) (Li2 + x Li1), so the library's P and Q yield
    # Li1 = -P'/x, Li2 = P' - 3 Q'/x and Li3 = P - x Li2; checked by
    # central differences against -ln(1 - w) and the brute-force sums.
    h = 1e-5
    (p_hi, q_hi), (p_lo, q_lo) = polylog_combinations(x + h), polylog_combinations(x - h)
    dp, dq = (p_hi - p_lo) / (2 * h), (q_hi - q_lo) / (2 * h)
    li2 = dp - 3 * dq / x
    recovered = {2: -dp / x, 3: li2, 4: polylog_combinations(x)[0] - x * li2}
    assert recovered[s] == pytest.approx(li(s - 1, math.exp(-x)), rel=1e-6)


# ---------------------------------------------------------------------------
# zeta_value
# ---------------------------------------------------------------------------

def test_zeta_closed_forms():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert zeta_value(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)


def test_zeta3_matches_brute_force_sum():
    brute, bound = zeta3_oracle()
    assert abs(zeta_value(3) - brute) <= bound + 1e-13 * brute
    assert zeta_value(3) == pytest.approx(1.2020569032, abs=1e-9)


def test_zeta_rejects_unsupported_order():
    with pytest.raises(DomainError):
        zeta_value(5)
    with pytest.raises(DomainError):
        zeta_value(1)
    # an int too long for repr shows its bit length
    with pytest.raises(DomainError, match=r"^zeta_value supports s in \{2, 3, 4\}, got <int of 16610 bits>$"):
        zeta_value(10**5000)


# ---------------------------------------------------------------------------
# the Bessel sums' expansions about x = 0, from specfun._expansions
# ---------------------------------------------------------------------------

def test_expansion_tables_start_with_their_closed_forms():
    # test_tables_match_their_generator checks every row against the
    # residues at 40 digits; the first rows also have closed forms.
    rows = specfun._EXPANSION
    assert rows[0][:2] == pytest.approx((-0.5 * math.log(2.0) - 0.25, 0.5), rel=2e-16)
    assert [b for _, b, *_ in rows[1:3]] == [1 / 96, -1 / 11520]
    euler_gamma = 0.5772156649015329
    assert [c for _, _, c, _, _ in rows[:2]] == pytest.approx(
        (-math.pi**2 / 12, (math.log(4.0 * math.pi) - 0.25 - euler_gamma) / 16), rel=2e-16)
    # p_1 = -3 zeta(-1)/4! and q_1 = -8 zeta(-1)/(3 5!), zeta(-1) = -1/12
    assert rows[0][3:] == (1 / 96, 1 / 540)


def expansion_terms(x: float, monkeypatch) -> int:
    """Rows of the expansion table that _expansions(x) reads: the fewest
    leading rows that leave its sums finite when every later row is nan."""
    table = specfun._EXPANSION
    nan = (math.nan,) * len(table[0])
    for rows in range(len(table) + 1):
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_EXPANSION", table[:rows] + (nan,) * (len(table) - rows))
            if all(map(math.isfinite, specfun._expansions(x))):
                return rows
    raise AssertionError(f"no row count leaves _expansions({x!r}) finite")


def test_expansions_take_their_terms_within_the_tables(monkeypatch):
    # A count that does not depend on the host; up to the edge at x = 2 the
    # loop needs fewer rows than the tables hold.  It is the count that the
    # expansions report as their terms.
    edge = math.nextafter(specfun._EXPAND_BELOW, 0.0)
    grid = (5e-324, 1e-8, 0.1, 1.0, edge)
    counts = [expansion_terms(x, monkeypatch) for x in grid]
    assert counts == [1, 1, 5, 11, 18]
    assert [specfun._expansions(x)[-1] for x in grid] == counts
    assert counts[-1] < len(specfun._EXPANSION)


@pytest.mark.parametrize("x", [5e-324, 1e-300, 2.2e-163, 1e-160])
def test_expansions_are_the_massless_sums_where_x_squared_underflows(x):
    # 2 zeta(3), pi^4/15 correctly rounded, zeta(3) and zeta(4), from the
    # first row alone
    assert specfun._expansions(x) == (2.0 * zeta_value(3), 6.493939402266829,
                                      zeta_value(3), zeta_value(4), 1)


@pytest.mark.parametrize("x", kernel_reference.xs("expansions"))
def test_expansions_match_mpmath(x):
    # pi^2 n_hat, pi^2 u_hat, P = Li3 + x Li2 = pi^2 n_hat v_hat/2 and
    # Q = Li4 + x Li3 + (x^2/3) Li2 = (2 pi^2/3) r_hat of e^-x, from the
    # committed table (tests/kernel_reference.py).
    row = kernel_reference.load()[x]
    pi2 = kernel_reference.PI ** 2
    reference = (pi2 * row.n, pi2 * row.u, pi2 * row.n * row.v / 2, 2 * pi2 / 3 * row.r)
    values = specfun._expansions(x)
    assert len(values) == len(reference) + 1
    for value, expected in zip(values, reference):
        assert kernel_reference.rel_err(value, expected) <= 1e-15


# ---------------------------------------------------------------------------
# weighted Bessel sums
# ---------------------------------------------------------------------------

def test_k2_weighted_sum_large_x_single_term():
    # From x = 40 on the sum is its first term to double precision.
    result = k2_weighted_sum(40.0)
    assert result.value == pytest.approx(bessel_k2(40.0), rel=1e-15)
    assert result.terms == 1


def test_k2_weighted_sum_matches_brute_force():
    x = 1.0
    brute = sum(bessel_k2(n * x) / n for n in range(1, 200))
    result = k2_weighted_sum(x)
    # the truncation rule guarantees 1e-12 relative against the full sum
    assert result.value == pytest.approx(brute, rel=2e-12, abs=0.0)


def test_k2_weighted_sum_small_x_bracketed_by_massless_limit():
    x = 0.5
    scaled = x * x * k2_weighted_sum(x).value
    limit = 2.0 * zeta_value(3)
    assert 0.8 * limit < scaled < limit


@pytest.mark.parametrize("view, x", [
    (k2_weighted_sum, 1.1e-154), (k2_weighted_sum, 5e-324),
    (energy_bessel_sum, 1.3e-77), (energy_bessel_sum, 1e-160)])
def test_weighted_sums_name_themselves_where_they_overflow(view, x):
    # x^2 S and x^4 E are about 2 zeta(3) and pi^4/15 there, so S and E
    # leave the double range: below x of about 1.2e-154 and 1.4e-77.
    with pytest.raises(DomainError, match=f"^{view.__name__}: the sum overflows"):
        view(x)


def test_energy_bessel_sum_matches_brute_force():
    x = 1.0
    brute = sum(specfun._k01(n * x)[1] / (n * x) + 3 * bessel_k2(n * x) / (n * x) ** 2
                for n in range(1, 200))
    assert energy_bessel_sum(x).value == pytest.approx(brute, rel=2e-12, abs=0.0)


@pytest.mark.parametrize("x", kernel_reference.xs("sums"))
def test_weighted_sums_match_mpmath(x):
    # Below x = 2 the views divide the expansions by x^2 and x^4, up to 40
    # they take the tables' a/sqrt(x) and b/x^1.5 times e^-x, from there on
    # the first term times e^-x.  The reference is pi^2 n_hat/x^2 and
    # pi^2 u_hat/x^4 from the committed table (tests/kernel_reference.py).
    row = kernel_reference.load()[x]
    pi2, xd = kernel_reference.PI ** 2, Decimal(x)
    expected = (pi2 * row.n / xd**2, pi2 * row.u / xd**4)
    for view, reference in zip((k2_weighted_sum, energy_bessel_sum), expected):
        assert kernel_reference.rel_err(view(x).value, reference) <= 1e-14


@settings(max_examples=30)
@given(x=st.floats(min_value=0.1, max_value=50.0))
def test_k2_weighted_sum_positive_and_dominated_by_first_term(x):
    result = k2_weighted_sum(x)
    first = bessel_k2(x)
    assert first * (1 - 1e-12) <= result.value
    assert result.value <= first / (1 - math.exp(-x)) * (1 + 1e-12)
