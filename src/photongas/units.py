"""Physical constants, gas parameters, and the reduced state x = mc^2/kT."""

from __future__ import annotations

import math
import re

from .errors import DomainError, MassParseError


class _Frozen:
    """A value of the fields named in _fields: shown, compared and hashed as
    the tuple of them, and refusing assignment and deletion.  Each __init__
    stores its fields directly, in _fields order: fields = self.__dict__ once,
    then fields["name"] = value per field, which passes by the refusing
    __setattr__ and builds no keyword dict."""

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({shown})"

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PhysicalConstants(_Frozen):
    """2019 SI defined values."""

    _fields = __match_args__ = ("c", "hbar", "k_B", "eV")

    def __init__(self, c: float = 299_792_458.0,       # speed of light, m/s
                 hbar: float = 1.054_571_817e-34,      # reduced Planck constant, J s
                 k_B: float = 1.380_649e-23,           # Boltzmann constant, J/K
                 eV: float = 1.602_176_634e-19):       # electron volt, J
        fields = self.__dict__
        fields["c"] = c
        fields["hbar"] = hbar
        fields["k_B"] = k_B
        fields["eV"] = eV


SI = PhysicalConstants()
_C, _K_B, _HBAR_C = SI.c, SI.k_B, SI.hbar * SI.c  # bound once for the evaluate path
_DBL_MAX = 1.7976931348623157e308  # the largest double; an int above it is refused
_NUMBERS = (int, float)  # the types of an accepted input number, one tuple built once

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


def _checked(value, refusal: str, positive: bool = False) -> float:
    """value as a float if an int or float in [0, _DBL_MAX], or (0, _DBL_MAX] if positive."""
    if isinstance(value, _NUMBERS) and 0.0 <= value <= _DBL_MAX and (value or not positive):
        return float(value)
    raise DomainError(f"{refusal}, got {_shown(value)}")


class GasParameters(_Frozen):
    """Physical input of one evaluation: photon mass, temperature, degeneracy.

    ``degeneracy`` counts thermalized polarization states; the default 2
    treats the longitudinal state of a massive photon as decoupled.  Each is
    kept as given, an int too, once checked.
    """

    _fields = __match_args__ = ("mass", "temperature", "degeneracy")

    def __init__(self, mass: float, temperature: float, degeneracy: float = 2.0):
        fields = self.__dict__
        fields["mass"] = mass
        fields["temperature"] = temperature
        fields["degeneracy"] = degeneracy
        if not (isinstance(mass, _NUMBERS) and 0.0 <= mass <= _DBL_MAX  # _checked's tests, chained
                and isinstance(temperature, _NUMBERS) and 0.0 < temperature <= _DBL_MAX
                and isinstance(degeneracy, _NUMBERS) and 0.0 < degeneracy <= _DBL_MAX):
            _checked(mass, "mass must be finite and >= 0 kg")  # only a refusal gets here, named
            _checked(temperature, "temperature must be finite and > 0 K", positive=True)
            _checked(degeneracy, "degeneracy must be finite and > 0", positive=True)


def _check_x(x: float) -> float:
    return _checked(x, "reduced x must be finite and >= 0")


def reduce(params: GasParameters) -> float:
    """The reduced state x = m c^2 / (k_B T) of params, 0 at m = 0; refused where it overflows."""
    mc2 = params.mass * _C * _C
    kt = _K_B * params.temperature
    x = mc2 / kt if kt else math.inf if mc2 else 0.0
    if x <= _DBL_MAX:
        return x
    raise DomainError(f"x = mc^2/kT overflows a double at m={params.mass!r} kg, "
                      f"T={params.temperature!r} K")


def _kg_per(unit: str) -> float:
    """Kilograms per one of MASS_UNITS, else a MassParseError naming them."""
    if unit in MASS_UNITS:
        return MASS_UNITS[unit]
    raise MassParseError(f"unknown mass unit {unit!r}; supported: {', '.join(MASS_UNITS)}")


def parse_mass(text: str) -> float:
    """Parse '<number><unit>' into kilograms; units: kg, g, eV, meV, keV."""
    match = _MASS_RE.match(text)
    if match is None:
        raise MassParseError(f"malformed mass {text!r}; expected '<number><unit>'")
    number, unit = match.groups()
    kg = _kg_per(unit)
    value = float(number)
    if value < 0:
        raise MassParseError(f"negative mass {number!r}")
    # "-0" parses to -0.0, which passes the check above; the mass is +0.0.
    return abs(value) * kg


def format_mass(mass: float, unit: str) -> str:
    """Render a mass in kg as '<number><unit>'; parse_mass round-trips it."""
    kg = _kg_per(unit)
    value = _checked(mass, "mass must be finite and >= 0 kg") / kg
    return f"{_checked(value, f'mass in {unit} must be finite'):.17g}{unit}"
