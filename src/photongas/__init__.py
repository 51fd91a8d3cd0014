"""Thermodynamics and radiometry of a blackbody gas of photons with rest mass.

Closed-form kernels (expansions, Chebyshev tables, one Bessel K pair); the independent
quadrature oracle over the defining Bose-Einstein integrals, which
``photongas validate`` holds them to, is :mod:`photongas.oracle`.
"""

from .core import (RadiometryReport, ReducedFunctions, energy_density,
                   evaluate, low_temp_mean_speed, low_temp_radiance,
                   mean_speed, number_density, photon_speed, radiance,
                   radiance_naive, reduced_functions, small_mass_radiance,
                   spectral_energy_density)
from .errors import (ConvergenceError, DomainError, MassParseError,
                     RegimeError)
from .specfun import zeta_value
from .units import (SI, GasParameters, PhysicalConstants, format_mass,
                    parse_mass, reduce)

__all__ = [
    "RadiometryReport", "ReducedFunctions", "energy_density", "evaluate",
    "low_temp_mean_speed", "low_temp_radiance", "mean_speed",
    "number_density", "photon_speed", "radiance", "radiance_naive",
    "reduced_functions", "small_mass_radiance", "spectral_energy_density",
    "ConvergenceError", "DomainError", "MassParseError", "RegimeError",
    "zeta_value",
    "SI", "GasParameters", "PhysicalConstants", "format_mass", "parse_mass",
    "reduce",
]

__version__ = "0.17.4"
