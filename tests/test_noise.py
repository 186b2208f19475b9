"""Shot/thermal noise budget, amplitude SNR, and bias-regime classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chargelimit import (
    CONSTANTS,
    OperatingPoint,
    ParameterError,
    noise_breakdown,
    shot_dominated,
    snr,
)

E = CONSTANTS.e
KB = CONSTANTS.k_B


def rel(a, b):
    return abs(a - b) / abs(b)


def op_current(current, bandwidth, temperature=0.0, conductance=None, bias=None):
    return OperatingPoint(
        current=current,
        bandwidth=bandwidth,
        temperature=temperature,
        conductance=conductance,
        bias=bias,
    )


# ------------------------------------------------------------ construction


def test_operating_point_requires_bandwidth_positive():
    with pytest.raises(ParameterError):
        OperatingPoint(current=1e-9, bandwidth=0.0)
    with pytest.raises(ParameterError):
        OperatingPoint(current=1e-9, bandwidth=-1.0)


def test_operating_point_requires_a_current_route():
    with pytest.raises(ParameterError):
        OperatingPoint(bandwidth=1e6)
    with pytest.raises(ParameterError):
        OperatingPoint(bandwidth=1e6, conductance=1e-5)  # bias missing
    with pytest.raises(ParameterError):
        OperatingPoint(bandwidth=1e6, bias=1e-3)  # conductance missing


def test_operating_point_conductance_bias_route():
    op = OperatingPoint(conductance=1e-5, bias=1e-3, bandwidth=1e6)
    assert rel(op.sense_current(), 1e-8) < 1e-15
    assert op.channel_conductance() == 1e-5


def test_operating_point_current_only_route():
    op = op_current(1e-9, 1e6)
    assert op.sense_current() == 1e-9
    assert op.channel_conductance() == 0.0


def test_operating_point_infers_conductance_from_bias():
    op = OperatingPoint(current=1e-8, bias=1e-3, bandwidth=1e6)
    assert rel(op.channel_conductance(), 1e-5) < 1e-15


def test_operating_point_rejects_inconsistent_triple():
    with pytest.raises(ParameterError):
        OperatingPoint(current=2e-8, conductance=1e-5, bias=1e-3, bandwidth=1e6)


def test_operating_point_accepts_consistent_triple():
    op = OperatingPoint(current=1e-8, conductance=1e-5, bias=1e-3, bandwidth=1e6)
    assert op.sense_current() == 1e-8


@pytest.mark.parametrize("field", ["current", "conductance", "bias"])
def test_operating_point_rejects_negative_values(field):
    kwargs = {"current": 1e-9, "bandwidth": 1e6}
    kwargs[field] = -1e-9
    if field != "current":
        kwargs["current"] = None
        kwargs.setdefault("conductance", 1e-5)
        kwargs.setdefault("bias", 1e-3)
    with pytest.raises(ParameterError):
        OperatingPoint(**kwargs)


def test_operating_point_rejects_negative_temperature():
    with pytest.raises(ParameterError):
        OperatingPoint(current=1e-9, bandwidth=1e6, temperature=-0.1)


# ------------------------------------------------------------ noise budget


def test_shot_noise_oracle():
    # 1 uA in a 1 MHz window: rms = sqrt(2 e I df).
    b = noise_breakdown(op_current(1e-6, 1e6))
    assert rel(b.total_rms, 5.660700723408719e-10) < 1e-15
    assert b.thermal_sq == 0.0
    assert rel(b.shot_sq, (5.660700723408719e-10) ** 2) < 1e-14


def test_thermal_noise_oracle():
    # Conductance 2e^2/h at 300 K, 1 Hz: rms = sqrt(4 kT G df).
    g = 2.0 * E**2 / CONSTANTS.h
    assert rel(g, 7.748091729863649e-5) < 1e-15
    op = OperatingPoint(conductance=g, bias=0.0, bandwidth=1.0, temperature=300.0)
    b = noise_breakdown(op)
    assert b.shot_sq == 0.0
    assert rel(b.total_rms, 1.1329992991389457e-12) < 1e-15


def test_combined_budget_is_sum_of_variances():
    op = OperatingPoint(
        conductance=1e-5, bias=1e-3, bandwidth=1e6, temperature=4.2
    )
    b = noise_breakdown(op)
    assert b.shot_sq > 0.0 and b.thermal_sq > 0.0
    assert rel(b.total_rms, math.sqrt(b.shot_sq + b.thermal_sq)) < 1e-15


def test_fano_scales_shot_term_only():
    op = OperatingPoint(
        conductance=1e-5, bias=1e-3, bandwidth=1e6, temperature=4.2
    )
    b1 = noise_breakdown(op, fano=1.0)
    b2 = noise_breakdown(op, fano=2.0)
    assert rel(b2.shot_sq, 2.0 * b1.shot_sq) < 1e-15
    assert b2.thermal_sq == b1.thermal_sq


def test_noise_breakdown_rejects_negative_fano():
    with pytest.raises(ParameterError):
        noise_breakdown(op_current(1e-9, 1e6), fano=-1.0)


# -------------------------------------------------------------------- SNR


def test_snr_oracle_microamp():
    assert rel(snr(op_current(1e-6, 1e6)), 1766.5657466481064) < 1e-15


def test_snr_unity_when_current_equals_two_e_df():
    df = 1e6
    assert rel(snr(op_current(2.0 * E * df, df)), 1.0) < 1e-15


def test_snr_sqrt_ten_case():
    # Mean count 10 per Nyquist window: I = 10 * 2 e df.
    assert rel(snr(op_current(1.602176634e-13, 5e4)), math.sqrt(10.0)) < 1e-15


def test_snr_zero_current():
    assert snr(op_current(0.0, 1e6)) == 0.0


def test_snr_thermal_degradation():
    cold = OperatingPoint(conductance=1e-5, bias=1e-3, bandwidth=1e6)
    warm = OperatingPoint(
        conductance=1e-5, bias=1e-3, bandwidth=1e6, temperature=77.0
    )
    assert snr(warm) < snr(cold)


@given(
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=1.0, max_value=1e6),
)
def test_snr_bandwidth_scaling_invariant(current, bandwidth):
    # Zero-temperature SNR carries all bandwidth dependence as 1/sqrt(df).
    a = snr(op_current(current, bandwidth)) * math.sqrt(bandwidth)
    b = snr(op_current(current, bandwidth * 1e6)) * math.sqrt(bandwidth * 1e6)
    assert rel(a, b) < 1e-12


@given(
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=1.0, max_value=1e9),
)
def test_snr_squared_recovers_count(current, bandwidth):
    # snr^2 * (2 e df) == I at zero temperature.
    value = snr(op_current(current, bandwidth))
    assert rel(value**2 * 2.0 * E * bandwidth, current) < 1e-12


@given(
    st.floats(min_value=1e-12, max_value=1e-6),
    st.floats(min_value=1.5, max_value=1e4),
)
def test_snr_monotone_in_current(current, factor):
    assert snr(op_current(current * factor, 1e6)) > snr(op_current(current, 1e6))


@given(
    st.floats(min_value=1e-6, max_value=1e-2),
    st.floats(min_value=0.1, max_value=300.0),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_thermal_to_shot_ratio(conductance, temperature, bias):
    # With I = G V, var_thermal / var_shot = (2 kT / e) / V.
    op = OperatingPoint(
        conductance=conductance,
        bias=bias,
        bandwidth=1e6,
        temperature=temperature,
    )
    b = noise_breakdown(op)
    assert rel(b.thermal_sq / b.shot_sq, 2.0 * KB * temperature / (E * bias)) < 1e-12


@given(st.floats(min_value=1e-12, max_value=1e-3))
def test_fano_snr_scaling(current):
    op = op_current(current, 1e6)
    assert rel(snr(op, fano=4.0), 0.5 * snr(op)) < 1e-12


# -------------------------------------------------------- shot dominance


def test_shot_dominated_zero_temperature():
    d = shot_dominated(op_current(1e-9, 1e6, bias=1e-6, conductance=1e-3))
    assert d.dominated is True
    assert d.threshold_voltage == 0.0
    assert d.margin == math.inf


def test_shot_dominated_zero_temperature_zero_bias():
    op = OperatingPoint(conductance=1e-3, bias=0.0, bandwidth=1e6)
    d = shot_dominated(op)
    assert d.dominated is False
    assert d.margin == 0.0


def test_shot_dominated_room_temperature_millivolt():
    # 1 mV is far below the ~52 mV room-temperature threshold.
    op = OperatingPoint(
        conductance=1e-5, bias=1e-3, bandwidth=1e6, temperature=300.0
    )
    d = shot_dominated(op)
    assert d.dominated is False
    assert rel(d.threshold_voltage, 0.05170399957287107) < 1e-15
    assert rel(d.margin, 1e-3 / 0.05170399957287107) < 1e-12


def test_shot_dominated_boundary_is_strict():
    threshold = 2.0 * KB * 4.2 / E
    at = OperatingPoint(
        conductance=1e-5, bias=threshold, bandwidth=1e6, temperature=4.2
    )
    above = OperatingPoint(
        conductance=1e-5, bias=threshold * (1.0 + 1e-9), bandwidth=1e6, temperature=4.2
    )
    assert shot_dominated(at).dominated is False
    assert shot_dominated(above).dominated is True


def test_shot_dominated_requires_bias():
    with pytest.raises(ParameterError):
        shot_dominated(op_current(1e-9, 1e6))


def test_array_operating_points_match_scalar_ones():
    current = np.array([1e-9, 2e-9, 0.0])
    bias = np.array([1e-3, 0.0, 0.0])
    whole = noise_breakdown(OperatingPoint(current=current, bias=bias, bandwidth=1e3,
                                           temperature=4.2))
    for i, (c, v) in enumerate(zip(current.tolist(), bias.tolist())):
        point = noise_breakdown(OperatingPoint(current=c, bias=v, bandwidth=1e3, temperature=4.2))
        assert [float(term[i]) for term in vars(whole).values()] == list(vars(point).values())
    consistent = OperatingPoint(current=current, conductance=1e-6, bias=current / 1e-6,
                                bandwidth=1e3)
    assert np.array_equal(consistent.sense_current(), current)
