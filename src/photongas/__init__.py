"""Thermodynamics and radiometry of a blackbody gas of photons with rest mass.

Closed-form kernels (expansions, Chebyshev tables, one Bessel K pair); the independent
quadrature oracle over the defining Bose-Einstein integrals, which
``photongas validate`` holds them to, is :mod:`photongas.oracle`.
"""

from .core import (RadiometryReport, ReducedFunctions, energy_density,
                   evaluate, mean_speed, number_density, photon_speed,
                   radiance, radiance_naive, reduced_functions,
                   spectral_energy_density)
from .errors import ConvergenceError, DomainError, MassParseError
from .specfun import zeta_value
from .units import (SI, GasParameters, PhysicalConstants, format_mass,
                    parse_mass, reduce)

__all__ = [
    "RadiometryReport", "ReducedFunctions", "energy_density", "evaluate",
    "mean_speed", "number_density", "photon_speed", "radiance",
    "radiance_naive", "reduced_functions", "spectral_energy_density",
    "ConvergenceError", "DomainError", "MassParseError", "zeta_value",
    "SI", "GasParameters", "PhysicalConstants", "format_mass", "parse_mass",
    "reduce",
]

__version__ = "0.19.3"
