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
_DBL_MAX = 1.7976931348623157e308  # the largest double; an int above it is refused

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


def _shown(value) -> str:
    """repr of a refused value, or the bit length of an int too long for repr."""
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"


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
        m, t, g = self.mass, self.temperature, self.degeneracy
        if not (isinstance(m, (int, float)) and 0.0 <= m <= _DBL_MAX):
            raise DomainError(f"mass must be finite and >= 0 kg, got {_shown(m)}")
        if not (isinstance(t, (int, float)) and 0.0 < t <= _DBL_MAX):
            raise DomainError(f"temperature must be finite and > 0 K, got {_shown(t)}")
        if not (isinstance(g, (int, float)) and 0.0 < g <= _DBL_MAX):
            raise DomainError(f"degeneracy must be finite and > 0, got {_shown(g)}")


@dataclass(frozen=True)
class ReducedState:
    """The single dimensionless control parameter x = mc^2/kT."""

    x: float

    def __post_init__(self):
        if not 0.0 <= self.x <= _DBL_MAX:
            raise DomainError(f"reduced state x must be finite and >= 0, got {_shown(self.x)}")


def _check_x(x: float) -> float:
    if isinstance(x, (int, float)) and 0.0 <= x <= _DBL_MAX:
        return float(x)
    raise DomainError(f"reduced x must be finite and >= 0, got {_shown(x)}")


def _reduced_x(params: GasParameters) -> float:
    """x = m c^2 / (k_B T) of params, 0 at m = 0; ReducedState refuses it unless finite."""
    mc2 = params.mass * SI.c * SI.c
    kt = SI.k_B * params.temperature
    x = mc2 / kt if kt else math.inf if mc2 else 0.0
    return x if x <= _DBL_MAX else ReducedState(x).x  # ReducedState raises


def reduce(params: GasParameters) -> ReducedState:
    """Map (m, T) to the reduced state x = m c^2 / (k_B T)."""
    return ReducedState(_reduced_x(params))


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
