"""The four reduced kernels from mpmath alone, for the reference tests."""


def mpmath_kernels(mp, x: float) -> tuple:
    """n_hat, u_hat, v_hat and r_hat from mpmath alone, at 30 digits.

    For x <= 31, tanh-sinh quadrature of the defining integrals
    int s^2 w/(e^E - 1) ds, E = sqrt(s^2 + x^2), w = 1, E, s/E, s, with a
    breakpoint at s = x, where the integrand turns; above, the mp.besselk
    sums and the mp.polylog closed forms.
    """
    if x > 31:
        w = mp.exp(-x)
        n = mp.fsum(mp.besselk(2, j * x) / j for j in range(1, 4))
        u = mp.fsum(mp.besselk(1, j * x) / (j * x) + 3 * mp.besselk(2, j * x) / (j * x)**2
                    for j in range(1, 4))
        n_hat = x * x / mp.pi**2 * n
        v_hat = 2 * (mp.polylog(3, w) + x * mp.polylog(2, w)) / (mp.pi**2 * n_hat)
        r_hat = 3 / (2 * mp.pi**2) * (mp.polylog(4, w) + x * mp.polylog(3, w)
                                      + x * x / 3 * mp.polylog(2, w))
        return n_hat, x**4 / mp.pi**2 * u, v_hat, r_hat

    def integral(weight):
        def integrand(s):
            energy = mp.sqrt(s * s + x * x)
            return s * s * weight(s, energy) / mp.expm1(energy)

        return mp.quad(integrand, sorted([0, x, 1, 10, 40]) + [mp.inf])

    n = integral(lambda s, e: 1)
    return (n / mp.pi**2, integral(lambda s, e: e) / mp.pi**2,
            integral(lambda s, e: s / e) / n, integral(lambda s, e: s) / (4 * mp.pi**2))
