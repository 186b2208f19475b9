"""Device models: closed forms, pipelines, identities, and scaling laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh_tridiagonal

from chargelimit import (
    CONSTANTS,
    GAAS_LIKE,
    VACUUM,
    Material,
    ParameterError,
    QpcDevice,
    SetDevice,
    WireDevice,
    device_snr,
    effective_scales,
    pipeline_snr,
    qpc_subband_spacing,
    set_blockade,
    set_island_capacitance,
    wire_mode_count,
    wire_optimal_bias,
    wire_sense_current,
    wire_snr,
)
from chargelimit.devices import QPC_SPIN_DEGENERACY, SET_SPIN_DEGENERACY
from chargelimit.montecarlo import validate_device

C = CONSTANTS


def rel(a, b):
    return abs(a - b) / abs(b)


# --------------------------------------------------------- device records


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan, math.inf])
def test_geometries_reject_nonpositive(bad):
    # Each record checks its size; the SET checks it before its epsilon_r.
    for make, name in ((lambda: WireDevice(bad, GAAS_LIKE), "radius"),
                       (lambda: QpcDevice(bad, GAAS_LIKE), "width"),
                       (lambda: SetDevice(bad, 0.5), "island_radius")):
        with pytest.raises(ParameterError, match=f"^{name} must be > 0 and finite, got {bad!r}$"):
            make()


def test_set_device_rejects_sub_vacuum_dielectric():
    with pytest.raises(ParameterError):
        SetDevice(50e-9, 0.9)


def test_conductance_quantum():
    assert rel(C.conductance_quantum, 3.874045864931824e-5) < 1e-12
    assert C.conductance_quantum == C.e * C.e / C.h
    assert QPC_SPIN_DEGENERACY == 2.0
    assert SET_SPIN_DEGENERACY == 2.0


# ----------------------------------------------------------- wire: pieces


def test_wire_optimal_bias_at_bohr_radius():
    # R = a0 in vacuum puts the full atomic voltage scale 2*Ry/e across
    # the channel; CODATA 2018 value of that scale in volts:
    bias = wire_optimal_bias(WireDevice(C.bohr_radius, VACUUM))
    assert rel(bias, 27.211386245988) < 1e-9
    assert rel(bias, 2.0 * C.rydberg_energy / C.e) < 1e-12


def test_wire_optimal_bias_scaling():
    base = wire_optimal_bias(WireDevice(10e-9, VACUUM))
    assert rel(wire_optimal_bias(WireDevice(20e-9, VACUUM)), base / 2.0) < 1e-15
    screened = Material("m", 1.0, 4.0)
    assert rel(wire_optimal_bias(WireDevice(10e-9, screened)), base / 4.0) < 1e-15


def test_wire_optimal_bias_gaas_magnitude():
    # At the effective orbit radius the bias collapses to 2*Ry*/e ~ 11 mV.
    a_star = effective_scales(GAAS_LIKE).bohr_radius
    bias = wire_optimal_bias(WireDevice(a_star, GAAS_LIKE))
    assert rel(bias, 2.0 * effective_scales(GAAS_LIKE).rydberg_energy / C.e) < 1e-12
    assert rel(bias, 1.0956e-2) < 1e-3


def test_wire_mode_count_reference_radius():
    # One mode at R = a*, optimal bias — the geometric collapse behind
    # the radius-free SNR.
    for material in (VACUUM, GAAS_LIKE):
        radius = effective_scales(material).bohr_radius
        device = WireDevice(radius, material)
        bias = wire_optimal_bias(device)
        assert rel(wire_mode_count(device, bias), 1.0) < 1e-12


def test_wire_mode_count_scales_with_radius():
    material = GAAS_LIKE
    a_star = effective_scales(material).bohr_radius
    device = WireDevice(10.0 * a_star, material)
    bias = wire_optimal_bias(device)
    assert rel(wire_mode_count(device, bias), 10.0) < 1e-12


def test_wire_mode_count_linear_in_bias():
    device = WireDevice(5e-9, GAAS_LIKE)
    bias = 0.5 * wire_optimal_bias(device)
    n1 = wire_mode_count(device, bias)
    n2 = wire_mode_count(device, 2.0 * bias)
    assert rel(n2, 2.0 * n1) < 1e-15
    assert wire_mode_count(device, 0.0) == 0.0


def test_wire_mode_count_rejects_negative_bias():
    with pytest.raises(ParameterError):
        wire_mode_count(WireDevice(5e-9, VACUUM), -1.0)


def test_wire_sense_current_values():
    assert rel(wire_sense_current(VACUUM), 1.0541815836449444e-3) < 1e-12
    assert rel(wire_sense_current(GAAS_LIKE), 4.244346259492296e-7) < 1e-12
    assert rel(
        wire_sense_current(VACUUM),
        2.0 * C.e * C.rydberg_frequency,
    ) < 1e-15


# ------------------------------------------------------- wire: SNR forms


def test_wire_snr_unity_bandwidth_is_rydberg_frequency():
    result = wire_snr(VACUUM, 1.0)
    # Bitwise, not approximate: unity modulation must not perturb it.
    assert result.f_unity == C.rydberg_frequency


def test_wire_snr_at_rydberg_bandwidth_is_one():
    result = wire_snr(VACUUM, C.rydberg_frequency)
    assert rel(result.snr, 1.0) < 1e-15


def test_wire_vacuum_sensitivity():
    result = wire_snr(VACUUM, 1.0)
    assert rel(result.sensitivity, 1.744e-8) < 1e-3
    assert rel(result.sensitivity, 1.0 / math.sqrt(C.rydberg_frequency)) < 1e-15


def test_wire_gaas_headline_band():
    result = wire_snr(GAAS_LIKE, 1.0)
    assert 0.5e12 <= result.f_unity <= 2.0e12
    assert 5.0e-7 <= result.sensitivity <= 2.0e-6
    assert rel(result.sensitivity, 8.688899844214734e-7) < 1e-12


def test_wire_snr_transport_state():
    result = wire_snr(VACUUM, 1.0)
    t = result.transport
    assert rel(t.n_modes, 1.0) < 1e-12
    assert rel(result.bias, 2.0 * C.rydberg_energy / C.e) < 1e-12
    assert rel(result.current, wire_sense_current(VACUUM)) < 1e-15
    assert rel(result.conductance * result.bias, result.current) < 1e-12
    assert rel(t.kinetic_energy, C.e * result.bias) < 1e-15
    assert result.flags == ()


def test_wire_closed_form_publishes_one_current_and_takes_its_noise_at_another():
    # At 20 nm in GaAs, G * V is one ulp off the radius-free 2*e*f_Ry_star.
    device, df = WireDevice(20e-9, GAAS_LIKE), 1e6
    result = device_snr(device, df)
    noise_current = result.conductance * result.bias
    assert noise_current != result.current
    assert result.current == wire_sense_current(GAAS_LIKE)
    assert result.breakdown.shot_sq == 2.0 * C.e * noise_current * df
    outcome = validate_device(device, df, trials=10, seed=1)
    assert outcome.expected_count == noise_current * (1.0 / (2.0 * df)) / C.e


def test_wire_pipeline_matches_closed_form():
    for radius in (1e-9, 17e-9, 1e-6):
        for material in (VACUUM, GAAS_LIKE):
            closed = wire_snr(material, 1e6)
            piped = pipeline_snr(WireDevice(radius, material), 1e6)
            assert rel(piped.snr, closed.snr) < 1e-12
            assert rel(piped.f_unity, closed.f_unity) < 1e-12


def test_wire_pipeline_radius_independence():
    radii = np.geomspace(1e-9, 1e-6, 31)
    snrs = [
        pipeline_snr(WireDevice(float(r), GAAS_LIKE), 1e6).snr
        for r in radii
    ]
    spread = (max(snrs) - min(snrs)) / min(snrs)
    assert spread < 1e-12


def test_wire_pipeline_underbias_quadratic():
    # I = G(V) * V with G linear in V, so SNR drops linearly with bias.
    device = WireDevice(20e-9, GAAS_LIKE)
    full = pipeline_snr(device, 1e6)
    optimal = wire_optimal_bias(device)
    half = pipeline_snr(device, 1e6, bias=0.5 * optimal)
    assert rel(half.snr, 0.5 * full.snr) < 1e-12
    assert half.flags == ()


def test_wire_pipeline_overbias_flags():
    device = WireDevice(20e-9, GAAS_LIKE)
    optimal = wire_optimal_bias(device)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pipeline_snr(device, 1e6, bias=2.0 * optimal)
    assert "bias-above-optimal" in result.flags


def test_wire_pipeline_temperature_degrades_snr():
    device = WireDevice(20e-9, GAAS_LIKE)
    cold = pipeline_snr(device, 1e6)
    warm = pipeline_snr(device, 1e6, temperature=300.0)
    assert warm.snr < cold.snr
    assert warm.breakdown.thermal_sq > 0.0


# ------------------------------------------------------------------- qpc


def test_qpc_spacing_vacuum_bohr_width():
    # Hard-wall well of width a0: spacing is 3*pi^2 Rydbergs.
    spacing = qpc_subband_spacing(QpcDevice(C.bohr_radius, VACUUM))
    assert rel(spacing, 3.0 * math.pi**2 * C.rydberg_energy) < 1e-12


def test_qpc_spacing_oracle_20nm_gaas():
    spacing = qpc_subband_spacing(QpcDevice(20e-9, GAAS_LIKE))
    expected = (
        3.0 * math.pi**2 * C.hbar**2 / (2.0 * 0.067 * C.m_e * (20e-9) ** 2)
    )
    assert rel(spacing, expected) < 1e-15
    assert rel(spacing / C.e, 4.2090e-2) < 1e-3  # ~42 meV


def test_qpc_spacing_width_scaling():
    narrow = qpc_subband_spacing(QpcDevice(10e-9, GAAS_LIKE))
    wide = qpc_subband_spacing(QpcDevice(20e-9, GAAS_LIKE))
    assert rel(narrow, 4.0 * wide) < 1e-15


def test_qpc_spacing_against_numerical_well_levels():
    # Independent oracle: diagonalize the hard-wall well on a grid and
    # take the gap between the two lowest levels.  The finite-difference
    # discretization error for the gap is ~4.1/n^2.
    width = 20e-9
    mass = 0.067 * C.m_e
    n = 3000
    h = width / n
    coeff = C.hbar**2 / (2.0 * mass * h * h)
    levels = eigh_tridiagonal(
        np.full(n - 1, 2.0 * coeff),
        np.full(n - 2, -coeff),
        select="i",
        select_range=(0, 1),
    )[0]
    gap = levels[1] - levels[0]
    spacing = qpc_subband_spacing(QpcDevice(width, GAAS_LIKE))
    assert rel(gap, spacing) < 1e-5


def test_qpc_snr_form():
    result = device_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6)
    spacing = qpc_subband_spacing(QpcDevice(20e-9, GAAS_LIKE))
    assert rel(result.f_unity, spacing / C.h) < 1e-15
    assert rel(result.snr, math.sqrt(result.f_unity / 1e6)) < 1e-15
    assert rel(result.f_unity, 1.017802486462739e13) < 1e-12


def test_qpc_transport_state():
    result = device_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6)
    t = result.transport
    assert t.n_modes == 2.0
    assert rel(result.conductance, 2.0 * C.e**2 / C.h) < 1e-15
    assert rel(result.bias, t.kinetic_energy / C.e) < 1e-15
    assert rel(result.current, result.conductance * result.bias) < 1e-15


def test_qpc_hydrogenic_identity():
    # The spacing form and the atomic-units form are the same algebra:
    # snr^2 * df = 3*pi^2 * f_Ry * (m_e/m*) * (a0/W)^2.
    for width in (2e-9, 20e-9, 200e-9):
        result = device_snr(QpcDevice(width, GAAS_LIKE), 1e4)
        lhs = result.snr**2 * 1e4
        rhs = (
            3.0
            * math.pi**2
            * C.rydberg_frequency
            * (1.0 / 0.067)
            * (C.bohr_radius / width) ** 2
        )
        assert rel(lhs, rhs) < 1e-12


def test_qpc_pipeline_matches_closed_form():
    closed = device_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6)
    piped = pipeline_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6)
    assert rel(piped.snr, closed.snr) < 1e-12
    assert rel(piped.f_unity, closed.f_unity) < 1e-12


def test_qpc_pipeline_temperature_degrades_snr():
    cold = pipeline_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6)
    warm = pipeline_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6, temperature=77.0)
    assert warm.snr < cold.snr


# ------------------------------------------------------------------- set


def test_set_capacitance_oracle():
    assert rel(set_island_capacitance(SetDevice(1.0, 1.0)), 7.08335025024e-11) < 1e-11
    assert rel(set_island_capacitance(SetDevice(50e-9, 12.9)), 4.568761e-17) < 1e-6


def test_set_capacitance_rejects_sub_vacuum_dielectric():
    # The record refuses it before set_island_capacitance is reached.
    with pytest.raises(ParameterError, match=r"^epsilon_r must be >= 1 \(vacuum\), got 0\.5$"):
        set_island_capacitance(SetDevice(50e-9, 0.5))


def test_set_blockade_oracle():
    e = set_blockade(SetDevice(50e-9, 12.9))
    assert rel(e.blockade_voltage, 1.7534e-3) < 1e-3
    # The charging energy is defined as exactly e * V_blockade.
    assert e.charging_energy == C.e * e.blockade_voltage
    assert rel(e.charging_energy, C.e**2 / (2.0 * e.capacitance)) < 1e-15


def test_set_charging_energy_reduces_to_rydberg():
    # A disk of radius pi*a0/2 in vacuum has C = 4*pi*eps0*a0, so the
    # charging energy is exactly one Rydberg.
    radius = math.pi * C.bohr_radius / 2.0
    e = set_blockade(SetDevice(radius, 1.0))
    assert rel(e.charging_energy, C.rydberg_energy) < 1e-12
    result = device_snr(SetDevice(radius, 1.0), 1.0)
    assert rel(result.f_unity, C.rydberg_frequency) < 1e-12


def test_set_snr_form():
    result = device_snr(SetDevice(50e-9, 12.9), 1.0)
    assert rel(result.f_unity, 423971175123.34814) < 1e-12
    assert rel(result.sensitivity, 1.5357899969311475e-6) < 1e-12
    assert rel(result.snr, math.sqrt(result.f_unity)) < 1e-15
    assert isinstance(result.transport.capacitance, float)


def test_set_hydrogenic_identity():
    # snr^2 * df = f_Ry * pi * a0 / (2 * eps_r * R) for any island.
    for radius, epsr in ((5e-9, 1.0), (50e-9, 12.9), (5e-7, 3.9)):
        result = device_snr(SetDevice(radius, epsr), 1e3)
        lhs = result.snr**2 * 1e3
        rhs = C.rydberg_frequency * math.pi * C.bohr_radius / (2.0 * epsr * radius)
        assert rel(lhs, rhs) < 1e-12


def test_set_sensitivity_scaling():
    base = device_snr(SetDevice(50e-9, 12.9), 1.0).sensitivity
    bigger = device_snr(SetDevice(200e-9, 12.9), 1.0).sensitivity
    assert rel(bigger, 2.0 * base) < 1e-12  # sqrt(4x radius)
    screened = device_snr(SetDevice(50e-9, 4.0 * 12.9), 1.0).sensitivity
    assert rel(screened, 2.0 * base) < 1e-12


def test_set_pipeline_matches_closed_form():
    closed = device_snr(SetDevice(50e-9, 12.9), 1e6)
    piped = pipeline_snr(SetDevice(50e-9, 12.9), 1e6)
    assert rel(piped.snr, closed.snr) < 1e-12
    assert rel(piped.f_unity, closed.f_unity) < 1e-12


def test_set_pipeline_temperature_degrades_snr():
    cold = pipeline_snr(SetDevice(50e-9, 12.9), 1e6)
    warm = pipeline_snr(SetDevice(50e-9, 12.9), 1e6, temperature=1.0)
    assert warm.snr < cold.snr


# -------------------------------------------------------------- modulation


@pytest.mark.parametrize(
    "factory",
    [
        lambda m: device_snr(WireDevice(20e-9, GAAS_LIKE), 1e6, modulation=m),
        lambda m: device_snr(QpcDevice(20e-9, GAAS_LIKE), 1e6, modulation=m),
        lambda m: device_snr(SetDevice(50e-9, 12.9), 1e6, modulation=m),
        lambda m: pipeline_snr(WireDevice(20e-9, GAAS_LIKE), 1e6, modulation=m),
    ],
)
def test_modulation_scaling(factory):
    full = factory(1.0)
    half = factory(0.5)
    assert rel(half.snr, 0.5 * full.snr) < 1e-12
    assert rel(half.f_unity, 0.25 * full.f_unity) < 1e-12
    assert rel(half.sensitivity, 2.0 * full.sensitivity) < 1e-12


@pytest.mark.parametrize("modulation", [0.42533730676875514, 0.5874183784430576, 0.3])
def test_modulation_is_squared_by_one_ieee_multiply(modulation):
    # Python's ** goes through the C library's pow, which misses the
    # correctly rounded square of the first two depths on some builds.
    device = WireDevice(20e-9, GAAS_LIKE)
    result = device_snr(device, 1e6, modulation=modulation)
    assert result.f_unity == modulation * modulation * device_snr(device, 1e6).f_unity


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
def test_modulation_range(bad):
    with pytest.raises(ParameterError):
        device_snr(WireDevice(20e-9, GAAS_LIKE), 1e6, modulation=bad)
    with pytest.raises(ParameterError):
        pipeline_snr(SetDevice(50e-9, 12.9), 1e6, modulation=bad)


# --------------------------------------------------------------- dispatch


def test_device_snr_dispatch():
    wire = WireDevice(20e-9, GAAS_LIKE)
    qpc = QpcDevice(20e-9, GAAS_LIKE)
    sett = SetDevice(50e-9, 12.9)
    assert device_snr(wire, 1e6).snr == wire_snr(GAAS_LIKE, 1e6).snr
    spacing = qpc_subband_spacing(QpcDevice(20e-9, GAAS_LIKE))
    assert device_snr(qpc, 1e6).f_unity == spacing / C.h
    charging = set_blockade(SetDevice(50e-9, 12.9)).charging_energy
    assert device_snr(sett, 1e6).f_unity == charging / C.h


def test_device_operating_point_dispatch():
    wire = WireDevice(20e-9, GAAS_LIKE)
    result = device_snr(wire, 1e6)
    assert rel(result.conductance * result.bias, wire_sense_current(GAAS_LIKE)) < 1e-12
    qpc = QpcDevice(20e-9, GAAS_LIKE)
    result = device_snr(qpc, 1e6)
    spacing = qpc_subband_spacing(QpcDevice(20e-9, GAAS_LIKE))
    assert rel(result.bias, spacing / C.e) < 1e-15
    assert rel(result.conductance, 2.0 * C.e**2 / C.h) < 1e-15
    sett = SetDevice(50e-9, 12.9)
    result = device_snr(sett, 1e6)
    assert rel(result.bias, set_blockade(SetDevice(50e-9, 12.9)).blockade_voltage) < 1e-15
    assert result.current == result.conductance * result.bias


def test_dispatch_rejects_unknown_kind():
    for route in (device_snr, pipeline_snr):
        with pytest.raises(TypeError, match="unknown device kind"):
            route(object(), 1e6)
        with pytest.raises(TypeError, match="unknown device kind"):
            route(3.14, 1e6)


# --------------------------------------------------- property invariants


@given(
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1.0, max_value=1e12),
)
def test_snr_result_internal_consistency_qpc(width, bandwidth):
    result = device_snr(QpcDevice(width, GAAS_LIKE), bandwidth)
    assert rel(result.snr, math.sqrt(result.f_unity / bandwidth)) < 1e-12
    assert rel(result.sensitivity, 1.0 / math.sqrt(result.f_unity)) < 1e-12


@given(
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1.0, max_value=60.0),
    st.floats(min_value=1.0, max_value=1e12),
)
def test_snr_result_internal_consistency_set(radius, epsr, bandwidth):
    result = device_snr(SetDevice(radius, epsr), bandwidth)
    assert rel(result.snr, math.sqrt(result.f_unity / bandwidth)) < 1e-12
    assert rel(result.sensitivity, 1.0 / math.sqrt(result.f_unity)) < 1e-12


@given(
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=1.0, max_value=30.0),
)
def test_wire_snr_material_scaling(mass_ratio, epsilon_r):
    # f_unity tracks the effective Rydberg frequency: up with mass, down
    # with the square of the dielectric constant.
    material = Material("m", mass_ratio, epsilon_r)
    result = wire_snr(material, 1.0)
    expected = C.rydberg_frequency * mass_ratio / epsilon_r**2
    assert rel(result.f_unity, expected) < 1e-12


@given(
    st.floats(min_value=1e-9, max_value=1e-6),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_wire_pipeline_radius_free_property(radius, mass_ratio):
    material = Material("m", mass_ratio, 5.0)
    piped = pipeline_snr(WireDevice(radius, material), 1e6)
    closed = wire_snr(material, 1e6)
    assert rel(piped.snr, closed.snr) < 1e-12


# ------------------------------------------------- array calls, point by point

_RNG = np.random.default_rng(20201005)


def _log_uniform(low, high, n):
    return np.exp(_RNG.uniform(np.log(low), np.log(high), n))


def _square_traps(candidates):
    """The values whose numpy square rounds differently from ``v ** 2``."""
    python = np.array([v ** 2 for v in candidates.tolist()])
    return candidates[candidates * candidates != python]


#: Includes radii on which x*x and Python's x**2 (C pow) disagree.
_RADII = np.concatenate(
    (_log_uniform(1e-10, 1e-5, 250), _square_traps(_log_uniform(1e-10, 1e-5, 200_000))[:50])
)
_BANDWIDTHS = _log_uniform(1.0, 1e12, 300)
_TEMPERATURES = np.concatenate(([0.0], _RNG.uniform(0.0, 300.0, 299)))
#: Passes exactly through 1.0, the vacuum point of the effective scales.
_RATIOS = np.linspace(0.5, 1.5, 301)


def _fields(result) -> dict:
    """Every per-point number an SnrResult carries, by name."""
    return {
        "snr": result.snr, "f_unity": result.f_unity, "sensitivity": result.sensitivity,
        **vars(result.breakdown), **vars(result.transport),
        "bias": result.bias, "conductance": result.conductance, "current": result.current,
    }


_ARRAY_CASES = {
    "wire R": (lambda v: pipeline_snr(WireDevice(v, GAAS_LIKE), 1e6), _RADII),
    "wire R thermal": (
        lambda v: pipeline_snr(WireDevice(v, GAAS_LIKE), 1e3, temperature=4.2), _RADII),
    "wire df": (lambda v: pipeline_snr(
        WireDevice(20e-9, GAAS_LIKE), v, temperature=1.0), _BANDWIDTHS),
    "wire T": (lambda v: pipeline_snr(
        WireDevice(20e-9, GAAS_LIKE), 1e3, temperature=v), _TEMPERATURES),
    "wire m*": (lambda v: pipeline_snr(
        WireDevice(20e-9, Material("custom", v, 1.0)), 1e6), _RATIOS),
    "wire m* bohr radius": (lambda v: pipeline_snr(
        WireDevice(effective_scales(Material("custom", v, 1.0)).bohr_radius, Material("custom", v, 1.0)), 1e6), _RATIOS),
    "wire eps": (lambda v: pipeline_snr(
        WireDevice(20e-9, Material("custom", 1.0, v)), 1e6), _RATIOS + 0.5),
    "qpc W": (lambda v: pipeline_snr(QpcDevice(v, GAAS_LIKE), 1e9), _RADII),
    "qpc T": (lambda v: pipeline_snr(
        QpcDevice(20e-9, GAAS_LIKE), 1e9, temperature=v), _TEMPERATURES),
    "qpc m*": (lambda v: pipeline_snr(
        QpcDevice(20e-9, Material("custom", v, 1.0)), 1e9), _RATIOS),
    "set R": (lambda v: pipeline_snr(SetDevice(v, 12.9), 1e6), _RADII),
    "set df": (lambda v: pipeline_snr(
        SetDevice(50e-9, 12.9), v, temperature=0.1), _BANDWIDTHS),
    "set eps": (lambda v: pipeline_snr(SetDevice(50e-9, v), 1e6), _RATIOS + 0.5),
}


@pytest.mark.parametrize("case", sorted(_ARRAY_CASES))
def test_array_call_equals_point_calls_bit_for_bit(case):
    call, values = _ARRAY_CASES[case]
    whole = _fields(call(values))
    points = [_fields(call(v)) for v in values.tolist()]
    for name, column in whole.items():
        column = np.broadcast_to(column, values.shape).tolist()
        got = [repr(v) for v in column]
        want = [repr(point[name]) for point in points]
        assert got == want, name


#: Dielectric constants on which x*x and Python's x**2 (C pow) disagree.
_EPSILONS = _square_traps(_RNG.uniform(1.0, 30.0, 200_000))[:50]
_MASS = GAAS_LIKE.mass_ratio * C.m_e

#: Each swept square's quantity, the same quantity written with ``x * x``
#: in the order the package multiplies, and the values to square.
_SQUARES = {
    "wire_mode_count": (
        lambda r: wire_mode_count(WireDevice(r, GAAS_LIKE), 1e-6),
        lambda r: _MASS * (r * r) * C.e * 1e-6 / C.hbar**2, _RADII),
    "qpc_subband_spacing": (
        lambda w: qpc_subband_spacing(QpcDevice(w, GAAS_LIKE)),
        lambda w: 3.0 * math.pi**2 * C.hbar**2 / (2.0 * _MASS * (w * w)), _RADII),
    "scale_factor": (
        lambda eps: effective_scales(Material("custom", 0.067, eps)).scale_factor,
        lambda eps: 0.067 / (eps * eps), _EPSILONS),
}


@pytest.mark.parametrize("name", sorted(_SQUARES))
def test_each_square_is_one_ieee_multiply(name):
    call, formula, values = _SQUARES[name]
    want = [formula(v).hex() for v in values.tolist()]
    assert [call(v).hex() for v in values.tolist()] == want
    assert [v.hex() for v in call(values).tolist()] == want


@pytest.mark.parametrize("name, call, first", [
    ("radius", lambda v: wire_mode_count(WireDevice(v, GAAS_LIKE), 0.0), 20e-9),
    ("width", lambda v: qpc_subband_spacing(QpcDevice(v, GAAS_LIKE)), 20e-9),
    ("epsilon_r", lambda v: effective_scales(Material("custom", 0.067, v)), 12.9),
], ids=["radius", "width", "epsilon_r"])
def test_an_overflowing_square_names_its_element(name, call, first):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=rf"^{name}\*\*2 is outside the float range, "
                                                 r"got 1e\+200$") as info:
            call(np.array([first, 1e200]))
    assert info.value.index == 1


def test_scalar_call_returns_python_floats():
    result = pipeline_snr(WireDevice(20e-9, GAAS_LIKE), 1e6, temperature=4.2)
    for name, value in _fields(result).items():
        assert type(value) is float, name


@pytest.mark.parametrize(
    "call, parameter",
    [
        (lambda: pipeline_snr(WireDevice(np.array([1e-9, 1e200]), VACUUM), 1.0),
         "radius"),
        (lambda: pipeline_snr(WireDevice(np.array([1e-9, 1e-200]), VACUUM), 1.0),
         "radius"),
        (lambda: pipeline_snr(QpcDevice(np.array([1e-8, 1e-300]), GAAS_LIKE), 1.0),
         "width"),
        (lambda: pipeline_snr(SetDevice(np.array([5e-8, 1e-320]), 1.0), 1.0),
         "island_radius"),
    ],
)
def test_array_out_of_float_range_names_first_bad_point(call, parameter):
    with pytest.raises(ParameterError, match=parameter) as err:
        call()
    assert err.value.index == 1
