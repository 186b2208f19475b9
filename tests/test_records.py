"""The frozen records of the package: one table of cases, one set of checks.

Every record class is built by keyword and, where it allows, by
position, with and without its defaults; each must refuse a missing, an
unknown or a doubled argument, stay frozen, compare and hash by its
fields, and hold every field, derived ones included, in ``vars()`` in
declaration order.  Classes with ``__post_init__`` checks must raise
their ``ParameterError``.
"""

import math

import pytest

from chargelimit import (
    GAAS_LIKE,
    VACUUM,
    EffectiveScales,
    Material,
    NoiseBreakdown,
    OperatingPoint,
    ParameterError,
    PhysicalConstants,
    QpcDevice,
    SetDevice,
    SetElectrostatics,
    SnrResult,
    TransportState,
    WireDevice,
)
from chargelimit.montecarlo import Ci95, SimConfig, SimOutcome

_TRANSPORT = TransportState(n_modes=2.0, kinetic_energy=1e-22)
_CI95 = Ci95(snr=0.1, err_open=1e-3, err_blocked=2e-3)

#: class -> (every init field by keyword, fields that may be omitted with
#: their default, a kwargs update that its ``__post_init__`` refuses or
#: None, the derived fields set in ``__post_init__``)
CASES = {
    PhysicalConstants: (
        dict(e=1.602176634e-19, h=6.62607015e-34, c=299792458.0, k_B=1.380649e-23,
             m_e=9.1093837015e-31, eps0=8.8541878128e-12, alpha=7.2973525693e-3),
        dict(e=1.602176634e-19, h=6.62607015e-34, c=299792458.0, k_B=1.380649e-23,
             m_e=9.1093837015e-31, eps0=8.8541878128e-12, alpha=7.2973525693e-3),
        None,
        ("hbar", "e_sq_gauss", "bohr_radius", "rydberg_energy", "rydberg_frequency",
         "conductance_quantum"),
    ),
    Material: (dict(name="x", mass_ratio=0.2, epsilon_r=5.0), {}, dict(mass_ratio=0.0), ()),
    EffectiveScales: (
        dict(rydberg_energy=1e-21, rydberg_frequency=1e12, bohr_radius=1e-8, scale_factor=0.5),
        {}, None, ()),
    OperatingPoint: (
        dict(current=1e-9, bandwidth=1e6, conductance=1e-6, temperature=4.2),
        dict(conductance=0.0, temperature=0.0),
        dict(bandwidth=0.0), ()),
    WireDevice: (dict(radius=20e-9, material=GAAS_LIKE), {}, dict(radius=-1.0), ()),
    QpcDevice: (dict(width=20e-9, material=GAAS_LIKE), {}, dict(width=math.nan), ()),
    SetDevice: (dict(island_radius=50e-9, epsilon_r=12.9), {}, dict(epsilon_r=0.5), ()),
    TransportState: (
        dict(n_modes=2.0, kinetic_energy=1e-22), {}, None, ()),
    NoiseBreakdown: (dict(shot_sq=1e-20, thermal_sq=4e-21, total_rms=1.2e-10), {}, None, ()),
    SetElectrostatics: (
        dict(capacitance=1e-17, charging_energy=1e-21, blockade_voltage=8e-3), {}, None, ()),
    SnrResult: (
        dict(snr=3.0, f_unity=9e6, sensitivity=3e-4,
             breakdown=NoiseBreakdown(shot_sq=1e-20, thermal_sq=0.0, total_rms=1e-10),
             transport=_TRANSPORT, bias=1e-3, conductance=7.7e-5, current=7.7e-8,
             flags=("bias-above-optimal",)),
        dict(flags=()), None, ()),
    SimConfig: (
        dict(on_current=1.6e-13, bandwidth=5e4, temperature=4.2, conductance=1e-6,
             trials=1000, seed=7, threshold=0.5, fano=1.0),
        dict(temperature=0.0, conductance=None, threshold=0.5, fano=1.0),
        dict(trials=0), ()),
    Ci95: (dict(snr=0.1, err_open=1e-3, err_blocked=2e-3), {}, None, ()),
    SimOutcome: (
        dict(empirical_snr=3.1, analytic_snr=3.0, err_open=1e-3, err_blocked=2e-3,
             balanced_err=1.5e-3, snr_stderr=0.05, ci95=_CI95, mean_charge=10.0,
             std_charge=3.2, expected_count=10.0, trials=1000, threshold=0.5,
             gaussian_fallback=False, seed_used=7, generator="philox4x32-10"),
        {}, None, ()),
}
KW_ONLY = {OperatingPoint, SimConfig}

#: label -> (class, then a case as in CASES).  The device records once
#: more, in the other host and refusing their size, each under the name
#: of the size-only record (``WireGeometry``, ``QpcGeometry``,
#: ``SetGeometry``) it absorbed.
SIZE_CASES = {
    "WireGeometry": (WireDevice, dict(radius=1e-6, material=VACUUM), {}, dict(radius=math.inf),
                     ()),
    "QpcGeometry": (QpcDevice, dict(width=1e-6, material=VACUUM), {}, dict(width=0.0), ()),
    "SetGeometry": (SetDevice, dict(island_radius=20e-9, epsilon_r=1.0), {},
                    dict(island_radius=0.0), ()),
}
ALL_CASES = [pytest.param(cls, *case, id=cls.__name__) for cls, case in CASES.items()] + [
    pytest.param(*case, id=label) for label, case in SIZE_CASES.items()]

records = pytest.mark.parametrize("cls, kwargs, defaults, bad, derived", ALL_CASES)


@records
def test_construction_by_keyword_position_and_default(cls, kwargs, defaults, bad, derived):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) == value
    if cls not in KW_ONLY:
        assert cls(*kwargs.values()) == record
    given = {name: value for name, value in kwargs.items() if name not in defaults}
    defaulted = cls(**given)
    for name, value in defaults.items():
        assert getattr(defaulted, name) == value


@records
def test_bad_arguments_are_type_errors(cls, kwargs, defaults, bad, derived):
    required = [name for name in kwargs if name not in defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in kwargs.items() if name != required[0]})
    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1.0)
    for name in derived:
        with pytest.raises(TypeError):
            cls(**kwargs, **{name: 1.0})
    values = list(kwargs.values())
    first = next(iter(kwargs))
    if cls in KW_ONLY:
        with pytest.raises(TypeError):
            cls(*values)
        with pytest.raises(TypeError):
            cls(values[0], **{name: v for name, v in kwargs.items() if name != first})
    else:
        with pytest.raises(TypeError):
            cls(*values, 1.0)
        with pytest.raises(TypeError):
            cls(values[0], **kwargs)


@pytest.mark.parametrize("cls, kwargs, defaults, bad, derived",
                         [case for case in ALL_CASES if case.values[3] is not None])
def test_post_init_checks_raise_parameter_errors(cls, kwargs, defaults, bad, derived):
    with pytest.raises(ParameterError):
        cls(**{**kwargs, **bad})


@records
def test_records_are_frozen(cls, kwargs, defaults, bad, derived):
    record = cls(**kwargs)
    for name in (*kwargs, *derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    for name in (*kwargs, *derived):
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert name in vars(record)


@records
def test_equal_fields_give_equal_records_and_hashes(cls, kwargs, defaults, bad, derived):
    one, two = cls(**kwargs), cls(**dict(kwargs))
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert one != tuple(kwargs.values())
    floats = [name for name, value in kwargs.items() if isinstance(value, float)]
    if floats:  # the last float field; any other may be tied to its neighbours
        assert cls(**{**kwargs, floats[-1]: kwargs[floats[-1]] * 2.0 or 1.0}) != one


@records
def test_vars_holds_every_field_in_order(cls, kwargs, defaults, bad, derived):
    record = cls(**kwargs)
    assert list(vars(record)) == [*kwargs, *derived]
    assert all(vars(record)[name] == getattr(record, name) for name in (*kwargs, *derived))
    text = repr(record)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}=" in text for name in (*kwargs, *derived))


def test_derived_constants_are_set_from_the_inputs():
    pinned = PhysicalConstants()
    heavier = PhysicalConstants(m_e=2 * pinned.m_e)
    assert heavier.hbar == pinned.hbar
    assert heavier.bohr_radius == pytest.approx(pinned.bohr_radius / 2, rel=1e-15)
    assert heavier != pinned


def test_sim_outcome_as_dict_nests_ci95_in_field_order():
    kwargs = CASES[SimOutcome][0]
    view = SimOutcome(**kwargs).as_dict()
    assert list(view) == [*kwargs, "n_sigma", "within_3_sigma"]
    assert view["ci95"] == {"snr": 0.1, "err_open": 1e-3, "err_blocked": 2e-3}
    assert type(view["ci95"]) is dict
    assert view["n_sigma"] == pytest.approx(2.0)
    assert view["within_3_sigma"] is True
