"""Physical constants, gas parameters, and the reduced state x = mc^2/kT."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DomainError, MassParseError


@dataclass(frozen=True)
class PhysicalConstants:
    """2019 SI defined values."""

    c: float = 299_792_458.0            # speed of light, m/s
    hbar: float = 1.054_571_817e-34     # reduced Planck constant, J s
    k_B: float = 1.380_649e-23          # Boltzmann constant, J/K
    eV: float = 1.602_176_634e-19       # electron volt, J


SI = PhysicalConstants()

# Mass unit -> kilograms per unit.  The eV family follows the particle-physics
# convention that a mass quoted in eV means eV/c^2.
MASS_UNITS = {
    "kg": 1.0,
    "g": 1e-3,
    "eV": SI.eV / SI.c**2,
    "meV": 1e-3 * SI.eV / SI.c**2,
    "keV": 1e3 * SI.eV / SI.c**2,
}

_MASS_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]+)\s*$"
)


@dataclass(frozen=True)
class GasParameters:
    """Physical input of one evaluation: photon mass, temperature, degeneracy.

    ``degeneracy`` counts thermalized polarization states; the default 2
    treats the longitudinal state of a massive photon as decoupled.
    """

    mass: float
    temperature: float
    degeneracy: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.mass, (int, float)) and math.isfinite(self.mass) and self.mass >= 0):
            raise DomainError(f"mass must be finite and >= 0 kg, got {self.mass!r}")
        if not (isinstance(self.temperature, (int, float)) and math.isfinite(self.temperature) and self.temperature > 0):
            raise DomainError(f"temperature must be finite and > 0 K, got {self.temperature!r}")
        if not (isinstance(self.degeneracy, (int, float)) and math.isfinite(self.degeneracy) and self.degeneracy > 0):
            raise DomainError(f"degeneracy must be finite and > 0, got {self.degeneracy!r}")


@dataclass(frozen=True)
class ReducedState:
    """The single dimensionless control parameter x = mc^2/kT."""

    x: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x >= 0):
            raise DomainError(f"reduced state x must be finite and >= 0, got {self.x!r}")


def _check_x(x: float) -> float:
    if isinstance(x, (int, float)) and 0.0 <= x < math.inf:
        return float(x)
    raise DomainError(f"reduced x must be finite and >= 0, got {x!r}")


def reduce(params: GasParameters) -> ReducedState:
    """Map (m, T) to the reduced state x = m c^2 / (k_B T).

    Where k_B T underflows to 0, x is 0 for m = 0 and overflows otherwise.
    """
    mc2 = params.mass * SI.c * SI.c
    kt = SI.k_B * params.temperature
    return ReducedState(mc2 / kt if kt else math.inf if mc2 else 0.0)


def parse_mass(text: str) -> float:
    """Parse '<number><unit>' into kilograms; units: kg, g, eV, meV, keV."""
    match = _MASS_RE.match(text)
    if match is None:
        raise MassParseError(f"malformed mass {text!r}; expected '<number><unit>'")
    number, unit = match.groups()
    if unit not in MASS_UNITS:
        raise MassParseError(
            f"unknown mass unit {unit!r}; supported: {', '.join(MASS_UNITS)}"
        )
    value = float(number)
    if value < 0:
        raise MassParseError(f"negative mass {number!r}")
    # "-0" parses to -0.0, which passes the check above; the mass is +0.0.
    return abs(value) * MASS_UNITS[unit]


def format_mass(mass: float, unit: str) -> str:
    """Render a mass in kg as '<number><unit>'; parse_mass round-trips it."""
    if unit not in MASS_UNITS:
        raise MassParseError(
            f"unknown mass unit {unit!r}; supported: {', '.join(MASS_UNITS)}"
        )
    return f"{mass / MASS_UNITS[unit]:.17g}{unit}"
