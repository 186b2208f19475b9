"""chargelimit: speed and sensitivity limits of single-electron charge detectors.

Closed-form amplitude-SNR models for three electrometer archetypes —
cylindrical-wire FET, quantum point contact, and single-electron
transistor — built on a shared shot/thermal noise engine, plus a
seed-stable Monte Carlo counting simulator that cross-checks the
formulas.  See the README for the CLI.

The simulator's names (``DeviceValidation``, ``SimConfig``,
``SimOutcome``, ``simulate_detection`` and ``validate_device``) are
resolved from :mod:`chargelimit.montecarlo` on first use, so importing
the package, and every calculation on numbers, needs no numpy.
"""

from .constants import (
    CONSTANTS,
    PhysicalConstants,
    energy_to_frequency,
    energy_to_temperature,
    frequency_to_energy,
    temperature_to_energy,
    thermal_voltage_threshold,
)
from .devices import (
    DeviceSpec,
    ModelValidityWarning,
    QpcDevice,
    QpcGeometry,
    SetDevice,
    SetElectrostatics,
    SetGeometry,
    SnrResult,
    TransportState,
    WireDevice,
    WireGeometry,
    device_operating_point,
    device_snr,
    qpc_pipeline_snr,
    qpc_snr,
    qpc_subband_spacing,
    sensitivity,
    set_blockade,
    set_island_capacitance,
    set_pipeline_snr,
    set_snr,
    unity_snr_bandwidth,
    wire_mode_count,
    wire_optimal_bias,
    wire_pipeline_snr,
    wire_sense_current,
    wire_snr,
)
from .errors import ParameterError
from .materials import (
    GAAS_LIKE,
    VACUUM,
    EffectiveScales,
    Material,
    builtin_materials,
    canonical_name,
    effective_scales,
    load_materials_file,
    parse_materials_table,
)
from .noise import (
    NoiseBreakdown,
    OperatingPoint,
    ShotDominance,
    noise_breakdown,
    shot_dominated,
    snr,
)

__version__ = "0.1.0"

_SIMULATOR = ("DeviceValidation", "SimConfig", "SimOutcome", "simulate_detection",
              "validate_device")


def __getattr__(name: str):
    """The simulator's names, imported with numpy when first asked for."""
    if name in _SIMULATOR:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CONSTANTS",
    "PhysicalConstants",
    "energy_to_frequency",
    "frequency_to_energy",
    "energy_to_temperature",
    "temperature_to_energy",
    "thermal_voltage_threshold",
    "Material",
    "EffectiveScales",
    "effective_scales",
    "load_materials_file",
    "parse_materials_table",
    "builtin_materials",
    "canonical_name",
    "VACUUM",
    "GAAS_LIKE",
    "OperatingPoint",
    "NoiseBreakdown",
    "ShotDominance",
    "noise_breakdown",
    "snr",
    "shot_dominated",
    "WireGeometry",
    "QpcGeometry",
    "SetGeometry",
    "WireDevice",
    "QpcDevice",
    "SetDevice",
    "DeviceSpec",
    "TransportState",
    "SetElectrostatics",
    "SnrResult",
    "ModelValidityWarning",
    "wire_optimal_bias",
    "wire_mode_count",
    "wire_sense_current",
    "wire_snr",
    "wire_pipeline_snr",
    "qpc_subband_spacing",
    "qpc_snr",
    "qpc_pipeline_snr",
    "set_island_capacitance",
    "set_blockade",
    "set_snr",
    "set_pipeline_snr",
    "device_snr",
    "device_operating_point",
    "unity_snr_bandwidth",
    "sensitivity",
    "SimConfig",
    "SimOutcome",
    "DeviceValidation",
    "simulate_detection",
    "validate_device",
    "ParameterError",
    "__version__",
]
