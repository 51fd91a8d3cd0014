"""Constants, parameter validation, mass parsing, and the reduced state."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photongas import (SI, DomainError, GasParameters, MassParseError,
                       ReducedState, format_mass, parse_mass, reduce)
from photongas.units import MASS_UNITS


def test_constants_are_the_si_defined_values():
    assert SI.c == 299_792_458.0
    assert SI.k_B == 1.380_649e-23
    assert SI.eV == 1.602_176_634e-19
    assert SI.hbar == 1.054_571_817e-34


def test_gas_parameters_validation():
    GasParameters(mass=0.0, temperature=1.0)  # boundary mass is fine
    with pytest.raises(DomainError):
        GasParameters(mass=-1e-40, temperature=300.0)
    with pytest.raises(DomainError):
        GasParameters(mass=1e-40, temperature=0.0)
    with pytest.raises(DomainError):
        GasParameters(mass=1e-40, temperature=300.0, degeneracy=0.0)
    with pytest.raises(DomainError):
        GasParameters(mass=math.inf, temperature=300.0)


def test_reduced_state_validation():
    with pytest.raises(DomainError):
        ReducedState(-0.5)
    with pytest.raises(DomainError):
        ReducedState(math.nan)


def test_reduce_massless_is_zero():
    assert reduce(GasParameters(mass=0.0, temperature=123.0)).x == 0.0


def test_reduce_where_k_b_t_underflows():
    # k_B T underflows to 0 at T = 5e-324 K: x is 0 without mass and
    # overflows, a DomainError, with it.
    assert reduce(GasParameters(mass=0.0, temperature=5e-324)).x == 0.0
    with pytest.raises(DomainError, match="inf"):
        reduce(GasParameters(mass=1e-36, temperature=5e-324))


def test_reduce_unit_mass_gives_x_of_one():
    temperature = 300.0
    mass = SI.k_B * temperature / (SI.c * SI.c)
    x = reduce(GasParameters(mass=mass, temperature=temperature)).x
    assert abs(x - 1.0) <= 5e-16


def test_reduce_one_ev_at_room_temperature():
    x = reduce(GasParameters(mass=parse_mass("1eV"), temperature=300.0)).x
    assert x == pytest.approx(SI.eV / (SI.k_B * 300.0), rel=1e-15)


@pytest.mark.parametrize("text,expected", [
    ("0kg", 0.0),
    ("2.5g", 2.5e-3),
    ("1eV", SI.eV / SI.c**2),
    ("1meV", 1e-3 * SI.eV / SI.c**2),
    ("1keV", 1e3 * SI.eV / SI.c**2),
    ("1e-3kg", 1e-3),
    (" 4.2 kg ", 4.2),
])
def test_parse_mass_accepts_the_grammar(text, expected):
    assert parse_mass(text) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_parse_mass_names_the_offending_token():
    with pytest.raises(MassParseError, match="lbs"):
        parse_mass("5lbs")
    with pytest.raises(MassParseError, match="-1"):
        parse_mass("-1kg")
    with pytest.raises(MassParseError):
        parse_mass("kg")
    with pytest.raises(MassParseError):
        parse_mass("1.2.3kg")
    with pytest.raises(MassParseError):
        parse_mass("12")


@given(mass=st.floats(min_value=1e-60, max_value=1e-10),
       unit=st.sampled_from(sorted(MASS_UNITS)))
def test_mass_round_trips_within_one_ulp(mass, unit):
    recovered = parse_mass(format_mass(mass, unit))
    assert abs(recovered - mass) <= math.ulp(mass)


@given(mass=st.floats(min_value=1e-45, max_value=1e-30),
       temperature=st.floats(min_value=1.0, max_value=1e6),
       power=st.integers(min_value=-20, max_value=20))
def test_reduce_is_homogeneous_under_common_scaling(mass, temperature, power):
    lam = 2.0**power  # power-of-two scaling keeps the float arithmetic exact
    x = reduce(GasParameters(mass=mass, temperature=temperature)).x
    x_scaled = reduce(GasParameters(mass=lam * mass, temperature=lam * temperature)).x
    assert x_scaled == x
