"""Thermodynamics and radiometry of a blackbody gas of photons with rest mass.

Closed-form kernels (Bessel-K2 sums and polylogarithms) paired with
independent quadrature oracles over the defining Bose-Einstein integrals.
"""

from .core import (RadiometryReport, ReducedFunctions, energy_density,
                   evaluate, low_temp_mean_speed, low_temp_radiance,
                   mean_speed, number_density, photon_speed, radiance,
                   radiance_naive, reduced_functions, small_mass_radiance,
                   spectral_energy_density)
from .errors import (ConvergenceError, DomainError, MassParseError,
                     RegimeError)
from .oracle import (QuadratureResult, integrate_adaptive,
                     quad_energy_density, quad_mean_speed,
                     quad_number_density, quad_radiance)
from .specfun import (WeightedSum, bessel_k2, energy_bessel_sum,
                      k2_weighted_sum, zeta_value)
from .units import (SI, GasParameters, PhysicalConstants, ReducedState,
                    format_mass, parse_mass, reduce)

__all__ = [
    "RadiometryReport", "ReducedFunctions", "energy_density", "evaluate",
    "low_temp_mean_speed", "low_temp_radiance", "mean_speed",
    "number_density", "photon_speed", "radiance", "radiance_naive",
    "reduced_functions", "small_mass_radiance", "spectral_energy_density",
    "ConvergenceError", "DomainError", "MassParseError", "RegimeError",
    "QuadratureResult", "integrate_adaptive",
    "quad_energy_density", "quad_mean_speed", "quad_number_density",
    "quad_radiance",
    "WeightedSum", "bessel_k2", "energy_bessel_sum",
    "k2_weighted_sum", "zeta_value",
    "SI", "GasParameters", "PhysicalConstants", "ReducedState",
    "format_mass", "parse_mass", "reduce",
]

__version__ = "0.14.0"
