"""Speed and sensitivity limits for three single-electron charge detectors.

Each detector senses one elementary charge through the current change it
induces in a nearby channel, and each is reduced here to the same two
numbers: the bandwidth at which the amplitude SNR crosses unity
(``f_unity``) and the equivalent charge sensitivity 1/sqrt(f_unity) in
e/sqrt(Hz).

Three archetypes are modeled:

* **wire** — a cylindrical-channel FET biased at the largest voltage the
  sensed charge can still pinch off, e/(epsilon_r * R) in Gaussian form.
  Channel radius and bias cancel out of the SNR, which lands on the
  square root of the material's effective Rydberg frequency over the
  bandwidth.
* **qpc** — a quantum point contact one spin-degenerate sub-band wide;
  the energy window is the sub-band spacing of the confining well.
* **set** — a single-electron transistor whose island is a thin
  conducting disk; the energy window is the charging energy e^2/2C.

Each device kind supplies one on-state: its conductance G and bias V,
the current it publishes, the transport state behind them, and its
unity-SNR bandwidth at full modulation (the effective Rydberg frequency
for the wire, the sub-band spacing or the charging energy over h for the
QPC and the SET).  :func:`device_snr` reads every kind through that one
lookup and evaluates the noise at G*V; the closed form is
snr = sqrt(f_unity/df).

Every device also has a step-by-step pipeline (bias -> conductance ->
current -> generic noise SNR) that shares only the default bias with the
on-state; the two routes agree to relative 1e-12 and the tests enforce
it.  Both routes, and every helper under them, take the same device
record, which has checked its inputs when it was made.
"""

from __future__ import annotations

import math
import sys

from .constants import CONSTANTS
from .errors import (
    anywhere, array_module, float_range_checked, isfinite, record, require, require_dielectric,
    require_nonnegative, require_positive, square,
)
from .materials import Material, effective_scales
from .noise import NoiseBreakdown, OperatingPoint, noise_breakdown, signal_to_noise

__all__ = [
    "WireDevice",
    "QpcDevice",
    "SetDevice",
    "DeviceSpec",
    "TransportState",
    "SetElectrostatics",
    "SnrResult",
    "wire_optimal_bias",
    "wire_mode_count",
    "wire_sense_current",
    "wire_snr",
    "wire_pipeline_snr",
    "qpc_subband_spacing",
    "qpc_pipeline_snr",
    "set_island_capacitance",
    "set_blockade",
    "set_pipeline_snr",
    "device_snr",
]

# --------------------------------------------------------------------------
# Spin-degeneracy bookkeeping, kept in one block so the conventions can be
# audited (or flipped) together:
#   * wire: the 2D density of states m*/(pi*hbar^2) counts both spin
#     orientations already, so each of the N modes it yields carries e^2/h.
#   * qpc: one spatial sub-band with an explicit spin factor 2 -> G = 2e^2/h.
#   * set: the on-state conductance is likewise taken as 2e^2/h.  A stricter
#     convention caps a sequential-tunneling SET at e^2/h (one spin-split
#     level conducts at a time); we keep the factor 2 because only then does
#     the charging-energy form of the SNR reduce exactly to the Rydberg form
#     that the identity tests check.  Flipping SET_SPIN_DEGENERACY to 1.0
#     costs sqrt(2) in SNR and breaks that reduction.
# --------------------------------------------------------------------------
QPC_SPIN_DEGENERACY = 2.0
SET_SPIN_DEGENERACY = 2.0


@record
class WireDevice:
    """Cylindrical FET channel of radius ``radius`` (m, > 0) in ``material``."""

    radius: float
    material: Material

    def __post_init__(self) -> None:
        require_positive(self.radius, "radius")


@record
class QpcDevice:
    """Point-contact constriction of width ``width`` (m, > 0) in ``material``.

    The single-mode picture assumes the width is about half the carrier
    de Broglie wavelength, so only the lowest sub-band conducts.
    """

    width: float
    material: Material

    def __post_init__(self) -> None:
        require_positive(self.width, "width")


@record
class SetDevice:
    """A metallic-island SET: a thin conducting disk island of radius
    ``island_radius`` (m, > 0) in a dielectric of ``epsilon_r`` (>= 1).
    Only the dielectric environment matters.  The size is checked first."""

    island_radius: float
    epsilon_r: float

    def __post_init__(self) -> None:
        require_positive(self.island_radius, "island_radius")
        require_dielectric(self.epsilon_r)


DeviceSpec = WireDevice | QpcDevice | SetDevice


@record
class TransportState:
    """Channel transport quantities behind an SNR figure (SI units).

    The result's conductance always equals ``n_modes * e^2/h`` under the
    spin-counting conventions at the top of this module.
    """

    n_modes: float        # spin-resolved conducting modes, >= 0
    kinetic_energy: float  # carrier kinetic-energy window e*bias [J]


@record
class SetElectrostatics:
    """Island electrostatics of an SET (SI units)."""

    capacitance: float       # island self-capacitance [F]
    charging_energy: float   # e^2/(2C) [J]
    blockade_voltage: float  # e/(2C) [V]


@record
class SnrResult:
    """SNR of a detector at one bandwidth, plus its unity-SNR summary.

    The pipelines accept an array for any swept input (a size, df, T, m*
    or epsilon_r) and then give arrays with the bits of one call per point.

    Attributes
    ----------
    snr : float
        Amplitude SNR at the requested bandwidth.
    f_unity : float
        Bandwidth (Hz) where the SNR crosses 1; snr = sqrt(f_unity/df).
    sensitivity : float
        Equivalent charge sensitivity 1/sqrt(f_unity) in e/sqrt(Hz).
    breakdown : NoiseBreakdown
        Shot/thermal noise split at the operating point used.
    transport : TransportState or SetElectrostatics
        The physical state behind the numbers.
    bias : float
        Source-drain bias V in volts.
    conductance : float
        Channel conductance G in siemens.
    current : float
        Published sense current in amperes.  The noise is evaluated at
        G*V; this is the same product except in the wire's closed form,
        which publishes its radius-free 2*e*f_Ry_star and takes G as that
        current over V, so G*V may differ from it in the last bit.
    flags : tuple of str
        Model-validity annotations (e.g. ``"bias-above-optimal"``);
        empty when the result is inside the model's comfort zone.
    """

    snr: float
    f_unity: float
    sensitivity: float
    breakdown: NoiseBreakdown
    transport: TransportState | SetElectrostatics
    bias: float
    conductance: float
    current: float
    flags: tuple[str, ...] = ()


def _check_modulation(modulation: float) -> None:
    require((modulation > 0.0) & (modulation <= 1.0), "modulation depth must be in (0, 1]",
            modulation)


def _sensitivity_from_unity(f_unity: float) -> float:
    np = array_module(f_unity)
    if np is not None:
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(f_unity)
    return 1.0 / math.sqrt(f_unity) if f_unity > 0.0 else math.inf


def _pipeline_result(
    *,
    n_modes: float,
    bias: float,
    temperature: float,
    bandwidth: float,
    modulation: float,
    electrostatics: SetElectrostatics | None = None,
    flags: tuple[str, ...] = (),
) -> SnrResult:
    """Generic pipeline tail: operating point -> SNR -> unity bandwidth.

    The channel carries ``n_modes`` modes of e^2/h each; its transport
    state is reported unless an SET's ``electrostatics`` are given.

    The signal is ``modulation`` times the sense current while the noise
    is evaluated at the full current, so a partial modulation depth
    scales the SNR linearly and f_unity quadratically.  Both intrinsic
    noise terms grow linearly with bandwidth, hence snr^2 * bandwidth is
    bandwidth-independent and equals f_unity at any temperature.  Only
    an explicit zero bias may give f_unity = 0; any other zero or
    non-finite f_unity left the float range and is a ParameterError.
    """
    conductance = n_modes * CONSTANTS.conductance_quantum
    current = conductance * bias
    transport = electrostatics if electrostatics is not None else TransportState(
        n_modes=n_modes, kinetic_energy=CONSTANTS.e * bias)
    breakdown = noise_breakdown(OperatingPoint(current=current, conductance=conductance,
                                               temperature=temperature, bandwidth=bandwidth))
    value = modulation * signal_to_noise(current, breakdown)
    f_unity = value * value * bandwidth
    require(isfinite(f_unity) & ((f_unity > 0.0) | (bias == 0.0)),
            "the inputs put f_unity outside the float range", f_unity)
    return SnrResult(
        snr=value,
        f_unity=f_unity,
        sensitivity=_sensitivity_from_unity(f_unity),
        breakdown=breakdown,
        transport=transport,
        bias=bias,
        conductance=conductance,
        current=current,
        flags=flags,
    )


# --------------------------------------------------------------------------
# Case 1: cylindrical-wire FET
# --------------------------------------------------------------------------

def wire_optimal_bias(device: WireDevice) -> float:
    """Largest useful source-drain bias for a wire channel, in volts.

    One sensed electron at the surface can pinch the channel off only
    while the drain pull on carriers stays below its own potential,
    which caps the bias at e/(epsilon_r * R) (Gaussian form); in SI that
    is e/(4*pi*eps0*epsilon_r*R).
    """
    charge_length = CONSTANTS.e * device.material.epsilon_r * device.radius
    require((charge_length > 0.0) & isfinite(charge_length),
            "radius * epsilon_r is outside the float range", device.radius)
    bias = CONSTANTS.e_sq_gauss / charge_length
    require(bias > 0.0, "radius * epsilon_r is too large: the optimal bias underflows",
            device.radius)
    return bias


def wire_mode_count(device: WireDevice, bias: float) -> float:
    """Number of conducting modes of a wire channel at a given bias.

    The carrier kinetic-energy window is e*bias, and the 2D density of
    states m*/(pi*hbar^2) (spin included) over the cross-section
    pi*R^2 gives

        N = (m*/(pi*hbar^2)) * pi*R^2 * e*bias

    which at the optimal bias collapses to R / a_star with a_star the
    material's effective Bohr radius.

    Parameters
    ----------
    bias : float
        Source-drain bias in V, >= 0.  Any bias is counted without a
        warning; above the optimal value the drain overwhelms the
        pinch-off potential of the sensed charge, and
        :func:`wire_pipeline_snr` reports that through its
        ``bias-above-optimal`` flag.
    """
    require_nonnegative(bias, "bias")
    mass = device.material.mass_ratio * CONSTANTS.m_e
    count = (mass * square(device.radius, "radius") * CONSTANTS.e * bias
             / (CONSTANTS.hbar * CONSTANTS.hbar))
    require(isfinite(count) & ((count > 0.0) | (bias == 0.0)),
            "radius and m* put the wire mode count outside the float range", device.radius)
    return count


def wire_sense_current(material: Material) -> float:
    """On-state sense current of an optimally biased wire, in amperes.

    The channel-radius and bias dependencies cancel, leaving twice the
    elementary charge per period of the material's effective Rydberg
    frequency: I = 2*e*f_Ry_star.  Vacuum value ~1.05 mA.
    """
    return 2.0 * CONSTANTS.e * effective_scales(material).rydberg_frequency


def _wire_on_state(device: WireDevice) -> tuple:
    """Optimal bias at the device's radius, carrying the radius-free current."""
    rydberg_frequency = effective_scales(device.material).rydberg_frequency
    bias = wire_optimal_bias(device)
    current = wire_sense_current(device.material)
    conductance = current / bias
    transport = TransportState(n_modes=conductance / CONSTANTS.conductance_quantum,
                               kinetic_energy=CONSTANTS.e * bias)
    return conductance, bias, current, transport, rydberg_frequency


def wire_snr(material: Material, bandwidth: float) -> SnrResult:
    """Closed-form wire-FET SNR at a given bandwidth.

    snr = sqrt(f_Ry_star / bandwidth): the unity-SNR bandwidth of the
    wire detector is the effective Rydberg frequency of its host,
    independent of channel radius.  The transport state reported uses
    the reference radius R = a_star where exactly one mode conducts.
    """
    return device_snr(WireDevice(effective_scales(material).bohr_radius, material), bandwidth)


@float_range_checked
def wire_pipeline_snr(
    device: WireDevice,
    bandwidth: float,
    *,
    bias: float | None = None,
    temperature: float = 0.0,
    modulation: float = 1.0,
) -> SnrResult:
    """Step-by-step wire-FET SNR: bias -> modes -> conductance -> current.

    With the default optimal bias and T = 0 this reproduces
    :func:`wire_snr` to relative 1e-12 for any radius — the radius
    dependence cancels.  An explicit ``bias`` or finite temperature
    moves the result off the closed form, which is the point of having
    the pipeline.
    """
    _check_modulation(modulation)
    optimal = wire_optimal_bias(device)
    flags: tuple[str, ...] = ()
    if bias is None:
        bias = optimal
    elif anywhere(bias > optimal):
        flags = ("bias-above-optimal",)
    modes = wire_mode_count(device, bias)
    return _pipeline_result(
        n_modes=modes, bias=bias, temperature=temperature, bandwidth=bandwidth,
        modulation=modulation, flags=flags,
    )


# --------------------------------------------------------------------------
# Case 2: quantum point contact
# --------------------------------------------------------------------------

def qpc_subband_spacing(device: QpcDevice) -> float:
    """Energy spacing between the two lowest sub-bands of the constriction, J.

    For hard-wall confinement of width W the levels go as n^2, so the
    spacing is three times the ground level:

        spacing = 3*pi^2*hbar^2 / (2*m* *W^2)
    """
    mass = device.material.mass_ratio * CONSTANTS.m_e
    denominator = 2.0 * mass * square(device.width, "width")
    message = "width and m* put the sub-band spacing outside the float range"
    require((denominator > 0.0) & isfinite(denominator), message, device.width)
    spacing = 3.0 * (math.pi * math.pi) * (CONSTANTS.hbar * CONSTANTS.hbar) / denominator
    require(spacing > 0.0, message, device.width)
    return spacing


def _qpc_on_state(device: QpcDevice) -> tuple:
    """One spin-degenerate sub-band biased across the sub-band spacing.

    With G = 2e^2/h the closed form is snr = sqrt(spacing/(h*bandwidth)),
    i.e. f_unity is the sub-band spacing expressed as a frequency.
    Equivalently, in terms of hydrogenic scales,

        snr^2 = 3*pi^2 * (Ry/(h*df)) * (m_e/m*) * (a0/W)^2

    and the tests hold the two forms together to relative 1e-12.
    """
    spacing = qpc_subband_spacing(device)
    bias = spacing / CONSTANTS.e
    conductance = QPC_SPIN_DEGENERACY * CONSTANTS.conductance_quantum
    transport = TransportState(n_modes=QPC_SPIN_DEGENERACY, kinetic_energy=spacing)
    return conductance, bias, conductance * bias, transport, spacing / CONSTANTS.h


@float_range_checked
def qpc_pipeline_snr(
    device: QpcDevice,
    bandwidth: float,
    *,
    bias: float | None = None,
    temperature: float = 0.0,
    modulation: float = 1.0,
) -> SnrResult:
    """Step-by-step QPC SNR through the generic noise machinery.

    The default bias drops the full sub-band spacing across the
    constriction; T = 0 with that default matches :func:`device_snr` of
    the same device to relative 1e-12.
    """
    _check_modulation(modulation)
    if bias is None:
        bias = qpc_subband_spacing(device) / CONSTANTS.e
    require_nonnegative(bias, "bias")
    return _pipeline_result(
        n_modes=QPC_SPIN_DEGENERACY, bias=bias, temperature=temperature, bandwidth=bandwidth,
        modulation=modulation,
    )


# --------------------------------------------------------------------------
# Case 3: single-electron transistor
# --------------------------------------------------------------------------

def set_island_capacitance(device: SetDevice) -> float:
    """Self-capacitance of a thin conducting disk island, in farads.

    The Gaussian-units disk capacitance 2*epsilon_r*R/pi (a length)
    becomes C = 8*eps0*epsilon_r*R in SI.
    """
    capacitance = 8.0 * CONSTANTS.eps0 * device.epsilon_r * device.island_radius
    require((capacitance > 0.0) & isfinite(capacitance),
            "island_radius and epsilon_r put the capacitance outside the float range",
            device.island_radius)
    return capacitance


def set_blockade(device: SetDevice) -> SetElectrostatics:
    """Charging energy and blockade voltage of the disk island.

    V_blockade = e/(2C) is the drain bias that just lifts the Coulomb
    blockade; the charging energy is e*V_blockade = e^2/(2C).
    """
    capacitance = set_island_capacitance(device)
    blockade_voltage = CONSTANTS.e / (2.0 * capacitance)
    require(blockade_voltage > 0.0,
            "island_radius and epsilon_r are too large: the blockade voltage underflows",
            device.island_radius)
    return SetElectrostatics(
        capacitance=capacitance,
        charging_energy=CONSTANTS.e * blockade_voltage,
        blockade_voltage=blockade_voltage,
    )


def _set_on_state(device: SetDevice) -> tuple:
    """Biased at the blockade voltage with on-state conductance 2e^2/h.

    The closed form is snr = sqrt(E_charging/(h*bandwidth)); f_unity is
    the charging energy as a frequency.  With the thin-disk capacitance
    this is identical to the hydrogenic form

        snr^2 = (Ry/(h*df)) * pi*a0 / (2*epsilon_r*R_island)

    which the tests hold to relative 1e-12.
    """
    electrostatics = set_blockade(device)
    conductance = SET_SPIN_DEGENERACY * CONSTANTS.conductance_quantum
    bias = electrostatics.blockade_voltage
    return (conductance, bias, conductance * bias, electrostatics,
            electrostatics.charging_energy / CONSTANTS.h)


@float_range_checked
def set_pipeline_snr(
    device: SetDevice,
    bandwidth: float,
    *,
    bias: float | None = None,
    temperature: float = 0.0,
    modulation: float = 1.0,
) -> SnrResult:
    """Step-by-step SET SNR through the generic noise machinery.

    Defaults to the blockade-voltage bias; with T = 0 that matches
    :func:`device_snr` of the same device to relative 1e-12.
    """
    _check_modulation(modulation)
    electrostatics = set_blockade(device)
    if bias is None:
        bias = electrostatics.blockade_voltage
    require_nonnegative(bias, "bias")
    return _pipeline_result(
        n_modes=SET_SPIN_DEGENERACY, bias=bias, temperature=temperature, bandwidth=bandwidth,
        modulation=modulation, electrostatics=electrostatics,
    )


# --------------------------------------------------------------------------
# Every device kind through its on-state
# --------------------------------------------------------------------------

#: device kind -> its on-state: (G, V, published current, transport state,
#: unity-SNR bandwidth at full modulation).
_ON_STATES = {WireDevice: _wire_on_state, QpcDevice: _qpc_on_state, SetDevice: _set_on_state}


def device_snr(
    device: DeviceSpec, bandwidth: float, *, modulation: float = 1.0
) -> SnrResult:
    """Closed-form SNR for any device kind at the given bandwidth.

    f_unity = modulation^2 * f_on and snr = modulation * sqrt(f_on/df),
    with f_on the on-state's unity-SNR bandwidth; the breakdown is the
    noise of the on-state at T = 0.
    """
    _check_modulation(modulation)
    on_state = _ON_STATES.get(type(device))
    if on_state is None:
        raise TypeError(f"unknown device kind: {type(device).__name__}")
    conductance, bias, current, transport, f_on = on_state(device)
    op = OperatingPoint(current=conductance * bias, conductance=conductance, bandwidth=bandwidth)
    modulation_sq = modulation * modulation  # one IEEE multiply, in (0, 1] as the depth is
    f_unity = modulation_sq * f_on
    value = modulation * math.sqrt(f_on / bandwidth)
    # Below the normal float range a square loses the precision that
    # snr**2 * df = f_unity needs.
    tiny = sys.float_info.min
    require((tiny <= f_unity) & (f_unity < math.inf),
            "the inputs put f_unity outside the float range", f_unity)
    require(tiny <= modulation_sq, "modulation**2 is below the normal float range", modulation)
    require(tiny <= value * value < math.inf,
            "bandwidth puts snr**2 outside the normal float range", bandwidth)
    return SnrResult(
        snr=value,
        f_unity=f_unity,
        sensitivity=_sensitivity_from_unity(f_unity),
        breakdown=noise_breakdown(op),
        transport=transport,
        bias=bias,
        conductance=conductance,
        current=current,
    )
