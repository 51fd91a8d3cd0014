"""Constants, parameter validation, mass parsing, and the reduced state."""

import copy
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from photongas import (SI, DomainError, GasParameters, MassParseError,
                       RadiometryReport, ReducedFunctions, evaluate, format_mass,
                       parse_mass, photon_speed, reduce, reduced_functions,
                       spectral_energy_density)
from photongas.cli import _grid
from photongas.specfun import bessel_k2, energy_bessel_sum, k2_weighted_sum
from photongas.units import _DBL_MAX, MASS_UNITS, _checked


def test_constants_are_the_si_defined_values():
    assert SI.c == 299_792_458.0
    assert SI.k_B == 1.380_649e-23
    assert SI.eV == 1.602_176_634e-19
    assert SI.hbar == 1.054_571_817e-34


# The four value types, with the repr each has always had; ints are kept as given.
_VALUES = [
    (SI, "PhysicalConstants(c=299792458.0, hbar=1.054571817e-34, k_B=1.380649e-23, "
         "eV=1.602176634e-19)"),
    (GasParameters(1e-36, 300.0), "GasParameters(mass=1e-36, temperature=300.0, degeneracy=2.0)"),
    (GasParameters(1, 300), "GasParameters(mass=1, temperature=300, degeneracy=2.0)"),
    (reduced_functions(0.0), "ReducedFunctions(x=0.0, n_hat=0.24358765646714617, "
     "u_hat=0.6579736267392906, v_hat=1.0, r_hat=0.16449340668482265)"),
    (evaluate(GasParameters(1e-36, 300.0)),
     "RadiometryReport(params=GasParameters(mass=1e-36, temperature=300.0, degeneracy=2.0), "
     "x=21.698857535763196, number_density=11839207.403677646, "
     "energy_density=1.1416583035267203e-12, mean_speed=98732754.46097997, "
     "radiance=2.873838920544836e-05)"),
]


@pytest.mark.parametrize("value, text", _VALUES,
                         ids=["SI", "params", "int_params", "reduced", "report"])
def test_value_types_keep_their_repr_equality_and_copies(value, text):
    # Each is shown as its type and fields in order, matched by position in
    # that order, equals only a value of its own type with equal fields,
    # with an equal hash, and refuses assignment and deletion naming the
    # field.  A pickle, copy or deep copy is equal, with the same hash and repr.
    assert repr(value) == text
    fields = vars(value)
    assert type(value).__match_args__ == tuple(fields)
    assert type(value)(**fields) == value and hash(type(value)(**fields)) == hash(value)
    assert value != tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


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


# Odd inputs for each field: bools, ints in and past the double range, signed
# zeros, the smallest subnormal and the largest double, nan, infinities, a
# negative, and values of no accepted type.
_ODD = [True, False, 0, 1, 300, 2**1024, 10**400, -0.0, 0.0, 5e-324, 2.0, _DBL_MAX, math.nan,
        math.inf, -math.inf, -1, "1", None, Decimal("1"), Fraction(1, 3), 1j]


def test_gas_parameters_accept_and_refuse_what_the_three_checks_do():
    # GasParameters tests its fields in one chain and hands a refused one to
    # units._checked.  At every triple of odd inputs it accepts what the three
    # _checked calls, in field order, accept, storing each field as given,
    # and otherwise raises the first of their refusals, word for word.
    for mass, temperature, degeneracy in itertools.product(_ODD, repeat=3):
        try:
            _checked(mass, "mass must be finite and >= 0 kg")
            _checked(temperature, "temperature must be finite and > 0 K", positive=True)
            _checked(degeneracy, "degeneracy must be finite and > 0", positive=True)
        except DomainError as refusal:
            with pytest.raises(DomainError) as info:
                GasParameters(mass, temperature, degeneracy)
            assert str(info.value) == str(refusal)
        else:
            fields = vars(GasParameters(mass, temperature, degeneracy)).values()
            assert all(got is given for got, given in zip(fields, (mass, temperature, degeneracy)))


@pytest.mark.parametrize("field, message", [
    ("mass", "mass must be finite and >= 0 kg"),
    ("temperature", "temperature must be finite and > 0 K"),
    ("degeneracy", "degeneracy must be finite and > 0")])
def test_gas_parameters_refuse_an_int_beyond_the_double_range(field, message):
    # An int is compared exactly, not converted: one beyond the double range
    # is a DomainError naming its field, one within it is accepted.  One too
    # long for repr (Python's int-to-str limit is 4300 digits) shows its bit length.
    fields = {"mass": 1, "temperature": 300, "degeneracy": 2}
    assert GasParameters(**fields) == GasParameters(1.0, 300.0, 2.0)
    for huge, shown in ((10**400, str(10**400)), (2**1024, str(2**1024)),
                        (10**5000, "<int of 16610 bits>"),
                        (-10**5000, "<negative int of 16610 bits>")):
        with pytest.raises(DomainError, match=f"^{message}, got {shown}$"):
            GasParameters(**dict(fields, **{field: huge}))


def test_an_x_beyond_the_double_range_is_refused_not_overflowed():
    for huge, shown in ((10**400, str(10**400)), (10**5000, "<int of 16610 bits>")):
        with pytest.raises(DomainError, match=f"^reduced x must be finite and >= 0, got {shown}$"):
            reduced_functions(huge)


_REPORT = evaluate(GasParameters(1e-36, 300.0))
_KERNELS = dict(x=1.0, n_hat=0.1, u_hat=0.5, v_hat=0.9, r_hat=0.1)


def _field(cls, base, name):
    return lambda value: cls(**dict(base, **{name: value}))


# Every entry point that refuses one number: (id, call, refusal, positive,
# whether a str or None is refused by type, an in-range int).  The fast
# chains of ReducedFunctions and RadiometryReport compare before any type
# check, so those take numbers only.
_REFUSERS = [
    ("GasParameters.mass", lambda v: GasParameters(v, 300.0),
     "mass must be finite and >= 0 kg", False, True, 1),
    ("GasParameters.temperature", lambda v: GasParameters(0.0, v),
     "temperature must be finite and > 0 K", True, True, 300),
    ("GasParameters.degeneracy", lambda v: GasParameters(0.0, 300.0, v),
     "degeneracy must be finite and > 0", True, True, 2),
    ("reduced_functions", reduced_functions, "reduced x must be finite and >= 0", False, True, 3),
    ("bessel_k2", bessel_k2, "z must be a positive finite number", True, True, 3),
    ("k2_weighted_sum", k2_weighted_sum, "x must be a positive finite number", True, True, 3),
    ("energy_bessel_sum", energy_bessel_sum, "x must be a positive finite number", True, True, 3),
    ("photon_speed.energy", lambda v: photon_speed(v, 1e-35),
     "energy must be finite and >= 0 J", False, True, 3),
    ("photon_speed.mass", lambda v: photon_speed(1e17, v),
     "mass must be finite and >= 0 kg", False, True, 1),
    ("spectral_energy_density", lambda v: spectral_energy_density(v, _REPORT.params),
     "omega must be finite and >= 0 rad/s", False, True, 10**14),
    ("format_mass", lambda v: format_mass(v, "eV"),
     "mass must be finite and >= 0 kg", False, True, 3),
    ("cli._grid.minimum", lambda v: _grid(v, 10.0, 5, "log"),
     "sweep minimum must be finite and > 0", True, True, 3),
    *((f"ReducedFunctions.{name}", _field(ReducedFunctions, _KERNELS, name),
       f"{name} must be finite and >= 0", False, False, 0)
      for name in ("n_hat", "u_hat", "v_hat", "r_hat")),
    *((f"RadiometryReport.{name}", _field(RadiometryReport, vars(_REPORT), name),
       f"{name} must be finite and >= 0", False, False, 10**6 if name == "energy_density" else 0)
      for name in ("number_density", "energy_density", "mean_speed", "radiance")),
]


@pytest.mark.parametrize("call, refusal, positive, typed, good",
                         [case[1:] for case in _REFUSERS], ids=[case[0] for case in _REFUSERS])
def test_every_refused_number_is_a_domain_error_naming_it(call, refusal, positive, typed, good):
    # One rule, units._checked: an int or float in [0, the largest double],
    # or (0, ...] where the argument must be positive; anything else is a
    # DomainError "<refusal>, got <value>", never an OverflowError,
    # TypeError or ValueError.  An in-range int gives the result of its float.
    refused = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1.0, "-1.0"),
               (10**400, str(10**400)), (-10**400, str(-10**400)),
               (10**5000, "<int of 16610 bits>")]
    if positive:
        refused += [(0, "0"), (0.0, "0.0")]
    if typed:
        refused += [("1", "'1'"), (None, "None")]
    for value, shown in refused:
        with pytest.raises(DomainError) as info:
            call(value)
        assert str(info.value) == f"{refusal}, got {shown}"
    assert call(good) == call(float(good))


def test_format_mass_refuses_a_mass_whose_value_in_the_unit_overflows():
    # parse_mass refuses "infeV"; the refusals of a mass itself are in the test above
    with pytest.raises(DomainError, match="^mass in eV must be finite, got inf$"):
        format_mass(1e300, "eV")
    assert parse_mass(format_mass(1e300, "kg")) == 1e300


def test_format_mass_refuses_an_unknown_unit_as_parse_mass_does():
    for call in (lambda: format_mass(1.0, "lb"), lambda: parse_mass("1lb")):
        with pytest.raises(MassParseError) as info:
            call()
        assert str(info.value) == "unknown mass unit 'lb'; supported: kg, g, eV, meV, keV"


def test_reduce_massless_is_zero():
    assert reduce(GasParameters(mass=0.0, temperature=123.0)) == 0.0


def test_reduce_where_k_b_t_underflows():
    # k_B T underflows to 0 at T = 5e-324 K: x is 0 without mass and
    # overflows, a DomainError naming x, m and T, with it.
    assert reduce(GasParameters(mass=0.0, temperature=5e-324)) == 0.0
    with pytest.raises(DomainError,
                       match=r"^x = mc\^2/kT overflows a double at m=1e-36 kg, T=5e-324 K$"):
        reduce(GasParameters(mass=1e-36, temperature=5e-324))


def test_reduce_unit_mass_gives_x_of_one():
    temperature = 300.0
    mass = SI.k_B * temperature / (SI.c * SI.c)
    x = reduce(GasParameters(mass=mass, temperature=temperature))
    assert abs(x - 1.0) <= 5e-16


def test_reduce_one_ev_at_room_temperature():
    x = reduce(GasParameters(mass=parse_mass("1eV"), temperature=300.0))
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
    x = reduce(GasParameters(mass=mass, temperature=temperature))
    x_scaled = reduce(GasParameters(mass=lam * mass, temperature=lam * temperature))
    assert x_scaled == x
