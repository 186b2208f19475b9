"""Command-line interface for the charge-detection limit calculators.

Subcommands
-----------
constants
    Print the pinned constants and the derived atomic scales.
material list | material show NAME
    Inspect the material table (built-in plus an optional user table
    pointed to by the CHARGE_LIMIT_MATERIALS environment variable).
wire | qpc | set
    Evaluate one detector at one operating point.
sweep
    Sweep one parameter axis and emit CSV (default) or JSON rows.
simulate
    Run the Monte Carlo counting simulator; always emits the JSON record.
report
    The four headline checks with pass/fail against their target bands.

Numbers accept an optional unit suffix directly after the value (no
space): lengths nm/um/m, frequencies Hz/kHz/MHz/GHz/THz, temperatures K,
voltages mV/V, currents pA/nA/uA/mA/A, conductances uS/mS/S.  A bare
number is the SI base unit.  Suffixes are matched case-insensitively.

Exit codes: 0 success, 1 domain error (bad physics parameter), 2 usage
error (unparseable flags).  JSON output is a fixed-order envelope
{command, inputs, outputs, flags, generator?, seed?, timestamp?}; the
timestamp is omitted under --deterministic so outputs can be compared
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from .constants import CONSTANTS
from .devices import (
    QpcDevice,
    QpcGeometry,
    SetGeometry,
    SnrResult,
    TransportState,
    WireGeometry,
    qpc_pipeline_snr,
    qpc_snr,
    set_pipeline_snr,
    set_snr,
    wire_pipeline_snr,
    wire_snr,
)
from .errors import ParameterError
from .materials import (
    Material,
    builtin_materials,
    canonical_name,
    effective_scales,
    load_materials_file,
)
from .montecarlo import SimConfig, simulate_detection
from .rng import GENERATOR_ID

__all__ = ["main", "MATERIALS_ENV", "SWEEP_HEADER"]

MATERIALS_ENV = "CHARGE_LIMIT_MATERIALS"

#: Fixed CSV column set for `sweep`; inapplicable columns are left empty.
SWEEP_HEADER = (
    "axis",
    "value",
    "snr",
    "f_unity_hz",
    "sensitivity_e_per_rthz",
    "shot_variance_a2",
    "thermal_variance_a2",
    "total_rms_a",
    "n_modes",
    "kinetic_energy_j",
    "bias_v",
    "conductance_s",
    "current_a",
    "capacitance_f",
    "charging_energy_j",
    "blockade_voltage_v",
    "flags",
)

# axis token -> (unit kind, device kinds it applies to)
SWEEP_AXES = {
    "R": ("length", ("wire",)),
    "W": ("length", ("qpc",)),
    "R_island": ("length", ("set",)),
    "delta_f": ("frequency", ("wire", "qpc", "set")),
    "epsilon_r": ("dimensionless", ("wire", "set")),
    "m_star_ratio": ("dimensionless", ("wire", "qpc")),
    "T": ("temperature", ("wire", "qpc", "set")),
}

_UNIT_TABLES = {
    "length": {"nm": 1e-9, "um": 1e-6, "m": 1.0},
    "frequency": {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12},
    "temperature": {"k": 1.0},
    "voltage": {"mv": 1e-3, "v": 1.0},
    "current": {"pa": 1e-12, "na": 1e-9, "ua": 1e-6, "ma": 1e-3, "a": 1.0},
    "conductance": {"us": 1e-6, "ms": 1e-3, "s": 1.0},
    "dimensionless": {},
}

_VALUE_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)([A-Za-z]*)$")


def parse_quantity(text: str, kind: str) -> float:
    """Parse '50nm', '5e4Hz', '0.3' etc. into SI base units."""
    match = _VALUE_RE.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse {kind} value {text!r}")
    value, suffix = float(match.group(1)), match.group(2)
    if not suffix:
        return value
    table = _UNIT_TABLES[kind]
    factor = table.get(suffix.lower())
    if factor is None:
        allowed = ", ".join(sorted(table)) or "none (dimensionless)"
        raise argparse.ArgumentTypeError(
            f"unknown {kind} unit {suffix!r} in {text!r}; accepted suffixes: {allowed}"
        )
    return value * factor


def _quantity_type(kind: str):
    return lambda text: parse_quantity(text, kind)


def _int_type(name: str, low: int, high_bits: int | None = None):
    """argparse type for an integer >= low, or in [low, 2**high_bits)."""
    high = None if high_bits is None else 2**high_bits
    rule = f">= {low}" if high is None else f"in [{low}, 2**{high_bits})"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {value}")
        return value

    return parse


# --------------------------------------------------------------------------
# Materials
# --------------------------------------------------------------------------

def load_material_table() -> tuple[dict[str, Material], set[str]]:
    """Built-in table merged with CHARGE_LIMIT_MATERIALS; returns user keys too."""
    table = builtin_materials()
    user_keys: set[str] = set()
    path = os.environ.get(MATERIALS_ENV)
    if path:
        user_table = load_materials_file(path)
        user_keys = set(user_table)
        table.update(user_table)
    return table, user_keys


def resolve_material(args: argparse.Namespace) -> Material:
    """Material from --material NAME, or --mass-ratio/--epsr pair, or vacuum."""
    custom = args.mass_ratio is not None or args.epsr is not None
    if args.material is not None and custom:
        args.parser.error("--material cannot be combined with --mass-ratio/--epsr")
    if custom:
        if args.mass_ratio is None or args.epsr is None:
            args.parser.error("--mass-ratio and --epsr must be given together")
        return Material(name="custom", mass_ratio=args.mass_ratio, epsilon_r=args.epsr)
    name = args.material if args.material is not None else "vacuum"
    table, _ = load_material_table()
    key = canonical_name(name)
    if key not in table:
        known = ", ".join(sorted(table))
        raise ParameterError(f"unknown material {name!r}; known materials: {known}")
    return table[key]


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------

def _finite_or_none(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return _finite_or_none(obj)


def emit_json(
    command: str,
    inputs: dict,
    outputs: dict,
    flags,
    *,
    generator: str | None = None,
    seed: int | None = None,
    deterministic: bool = False,
    rows: list[str] | None = None,
) -> None:
    """Print the envelope; ``rows`` are pre-rendered objects for outputs["rows"]."""
    record: dict = {
        "command": command,
        "inputs": _sanitize(inputs),
        "outputs": _sanitize(outputs),
        "flags": list(flags),
    }
    if generator is not None:
        record["generator"] = generator
    if seed is not None:
        record["seed"] = seed
    if not deterministic:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(record, indent=2)
    if rows is not None:
        text = text.replace('"rows": []', '"rows": [\n' + ",\n".join(rows) + "\n    ]", 1)
    print(text)


def _print_rows(rows: list[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in rows)
    for label, text in rows:
        print(f"  {label:<{width}}  {text}")


def _human(value: float, unit: str = "") -> str:
    text = f"{value:.6g}"
    return f"{text} {unit}".rstrip()


def _result_outputs(result: SnrResult) -> dict:
    """SnrResult -> flat output dict with CSV-aligned keys."""
    out = {
        "snr": result.snr,
        "f_unity_hz": result.f_unity,
        "sensitivity_e_per_rthz": result.sensitivity,
        "shot_variance_a2": result.breakdown.shot_sq,
        "thermal_variance_a2": result.breakdown.thermal_sq,
        "total_rms_a": result.breakdown.total_rms,
    }
    transport = result.transport
    if isinstance(transport, TransportState):
        out.update(
            n_modes=transport.n_modes,
            kinetic_energy_j=transport.kinetic_energy,
            bias_v=transport.bias,
            conductance_s=transport.conductance,
            current_a=transport.current,
        )
    else:
        op = result.operating_point
        out.update(
            bias_v=op.bias,
            conductance_s=op.conductance,
            current_a=op.sense_current(),
            capacitance_f=transport.capacitance,
            charging_energy_j=transport.charging_energy,
            blockade_voltage_v=transport.blockade_voltage,
        )
    return out


_HUMAN_UNITS = {
    "snr": "",
    "f_unity_hz": "Hz",
    "sensitivity_e_per_rthz": "e/sqrt(Hz)",
    "shot_variance_a2": "A^2",
    "thermal_variance_a2": "A^2",
    "total_rms_a": "A",
    "n_modes": "",
    "kinetic_energy_j": "J",
    "bias_v": "V",
    "conductance_s": "S",
    "current_a": "A",
    "capacitance_f": "F",
    "charging_energy_j": "J",
    "blockade_voltage_v": "V",
}


def _print_result(title: str, outputs: dict, flags) -> None:
    print(title)
    rows = []
    for key, value in outputs.items():
        unit = _HUMAN_UNITS.get(key, "")
        rows.append((key, _human(value, unit)))
    if flags:
        rows.append(("flags", ";".join(flags)))
    _print_rows(rows)


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------

def cmd_constants(args: argparse.Namespace) -> int:
    c = CONSTANTS
    outputs = {
        "e_C": c.e,
        "h_Js": c.h,
        "hbar_Js": c.hbar,
        "c_m_per_s": c.c,
        "k_B_J_per_K": c.k_B,
        "m_e_kg": c.m_e,
        "eps0_F_per_m": c.eps0,
        "alpha": c.alpha,
        "bohr_radius_m": c.bohr_radius,
        "rydberg_energy_J": c.rydberg_energy,
        "rydberg_energy_eV": c.rydberg_energy / c.e,
        "rydberg_frequency_Hz": c.rydberg_frequency,
    }
    if args.json:
        emit_json("constants", {}, outputs, [], deterministic=args.deterministic)
        return 0
    print("pinned constants (SI)")
    _print_rows(
        [
            ("elementary charge e", _human(c.e, "C")),
            ("Planck constant h", _human(c.h, "J s")),
            ("reduced Planck hbar", _human(c.hbar, "J s")),
            ("speed of light c", _human(c.c, "m/s")),
            ("Boltzmann constant k_B", _human(c.k_B, "J/K")),
            ("electron mass m_e", _human(c.m_e, "kg")),
            ("vacuum permittivity eps0", _human(c.eps0, "F/m")),
            ("fine-structure constant", _human(c.alpha)),
        ]
    )
    print("derived atomic scales")
    _print_rows(
        [
            ("bohr radius", _human(c.bohr_radius, "m")),
            ("rydberg energy", _human(c.rydberg_energy, "J")),
            ("rydberg energy", _human(c.rydberg_energy / c.e, "eV")),
            ("rydberg frequency", _human(c.rydberg_frequency, "Hz")),
        ]
    )
    return 0


def cmd_material(args: argparse.Namespace) -> int:
    table, user_keys = load_material_table()
    if args.action == "list":
        rows = [
            {
                "name": mat.name,
                "mass_ratio": mat.mass_ratio,
                "epsilon_r": mat.epsilon_r,
                "source": "user" if key in user_keys else "builtin",
            }
            for key, mat in sorted(table.items())
        ]
        if args.json:
            emit_json(
                "material", {"action": "list"}, {"materials": rows}, [],
                deterministic=args.deterministic,
            )
            return 0
        print(f"{'name':<12} {'mass_ratio':>10} {'epsilon_r':>10}  source")
        for row in rows:
            print(
                f"{row['name']:<12} {row['mass_ratio']:>10.6g} "
                f"{row['epsilon_r']:>10.6g}  {row['source']}"
            )
        return 0
    # show
    key = canonical_name(args.name)
    if key not in table:
        known = ", ".join(sorted(table))
        raise ParameterError(f"unknown material {args.name!r}; known materials: {known}")
    mat = table[key]
    scales = effective_scales(mat)
    outputs = {
        "name": mat.name,
        "mass_ratio": mat.mass_ratio,
        "epsilon_r": mat.epsilon_r,
        "scale_factor": scales.scale_factor,
        "rydberg_energy_J": scales.rydberg_energy,
        "rydberg_energy_meV": scales.rydberg_energy / CONSTANTS.e * 1e3,
        "rydberg_frequency_Hz": scales.rydberg_frequency,
        "bohr_radius_m": scales.bohr_radius,
    }
    if args.json:
        emit_json(
            "material", {"action": "show", "name": args.name}, outputs, [],
            deterministic=args.deterministic,
        )
        return 0
    print(f"material {mat.name}")
    _print_rows(
        [
            ("mass ratio m*/m_e", _human(mat.mass_ratio)),
            ("dielectric constant", _human(mat.epsilon_r)),
            ("scale factor", _human(scales.scale_factor)),
            ("effective rydberg", _human(scales.rydberg_energy, "J")),
            ("effective rydberg", _human(scales.rydberg_energy / CONSTANTS.e * 1e3, "meV")),
            ("effective rydberg freq", _human(scales.rydberg_frequency, "Hz")),
            ("effective bohr radius", _human(scales.bohr_radius, "m")),
        ]
    )
    return 0


def _material_inputs(material: Material) -> dict:
    return {
        "material": material.name,
        "mass_ratio": material.mass_ratio,
        "epsilon_r": material.epsilon_r,
    }


def _device_output(args: argparse.Namespace, inputs: dict, result: SnrResult,
                   title: str) -> int:
    """The shared tail of wire/qpc/set: the JSON envelope or the human table."""
    inputs.update(bandwidth_hz=args.df, bias_v=args.bias,
                  temperature_k=args.temperature, modulation=args.modulation)
    outputs = _result_outputs(result)
    if args.json:
        emit_json(args.command, inputs, outputs, result.flags,
                  deterministic=args.deterministic)
    else:
        _print_result(title, outputs, result.flags)
    return 0


def cmd_wire(args: argparse.Namespace) -> int:
    material = resolve_material(args)
    pipeline = args.radius is not None or args.bias is not None or args.temperature > 0.0
    if pipeline:
        radius = (
            args.radius
            if args.radius is not None
            else effective_scales(material).bohr_radius
        )
        result = wire_pipeline_snr(
            WireGeometry(radius),
            material,
            args.df,
            bias=args.bias,
            temperature=args.temperature,
            modulation=args.modulation,
        )
    else:
        result = wire_snr(material, args.df, modulation=args.modulation)
    inputs = {**_material_inputs(material), "radius_m": args.radius}
    return _device_output(args, inputs, result, f"wire detector, material {material.name}")


def cmd_qpc(args: argparse.Namespace) -> int:
    material = resolve_material(args)
    geometry = QpcGeometry(args.width)
    if args.bias is not None or args.temperature > 0.0:
        result = qpc_pipeline_snr(
            geometry, material, args.df,
            bias=args.bias, temperature=args.temperature, modulation=args.modulation,
        )
    else:
        result = qpc_snr(geometry, material, args.df, modulation=args.modulation)
    inputs = {**_material_inputs(material), "width_m": args.width}
    return _device_output(args, inputs, result, f"qpc detector, material {material.name}")


def cmd_set(args: argparse.Namespace) -> int:
    geometry = SetGeometry(args.radius)
    epsilon_r = args.epsr if args.epsr is not None else 1.0
    if args.bias is not None or args.temperature > 0.0:
        result = set_pipeline_snr(
            geometry, epsilon_r, args.df,
            bias=args.bias, temperature=args.temperature, modulation=args.modulation,
        )
    else:
        result = set_snr(geometry, epsilon_r, args.df, modulation=args.modulation)
    inputs = {"island_radius_m": args.radius, "epsilon_r": epsilon_r}
    return _device_output(
        args, inputs, result, f"set detector, island radius {_human(args.radius, 'm')}"
    )


def _sweep_values(args: argparse.Namespace) -> np.ndarray:
    kind = SWEEP_AXES[args.axis][0]
    try:
        start = parse_quantity(args.start, kind)
        stop = parse_quantity(args.stop, kind)
    except argparse.ArgumentTypeError as exc:
        args.parser.error(str(exc))
    if not start < stop:
        args.parser.error(f"sweep start must be < stop, got {start!r} >= {stop!r}")
    if args.spacing == "log":
        if start <= 0.0:
            args.parser.error("log spacing requires start > 0")
        return np.geomspace(start, stop, args.points)
    return np.linspace(start, stop, args.points)


def _axis_result(args: argparse.Namespace, material: Material | None,
                 values: np.ndarray) -> SnrResult:
    """One pipeline call with the axis ``values`` in place of their parameter."""

    def pick(axis: str, default):
        return values if args.axis == axis else default

    bandwidth, temperature = pick("delta_f", args.df), pick("T", args.temperature)
    if args.device == "set":
        epsilon_r = pick("epsilon_r", args.epsr if args.epsr is not None else 1.0)
        geometry = SetGeometry(pick("R_island", args.radius))
        return set_pipeline_snr(geometry, epsilon_r, bandwidth, temperature=temperature)
    if args.axis in ("epsilon_r", "m_star_ratio"):
        material = Material("custom", pick("m_star_ratio", material.mass_ratio),
                            pick("epsilon_r", material.epsilon_r))
    if args.device == "qpc":
        geometry = QpcGeometry(pick("W", args.width))
        return qpc_pipeline_snr(geometry, material, bandwidth, temperature=temperature)
    radius = pick("R", args.radius)
    if radius is None:
        radius = effective_scales(material).bohr_radius
    return wire_pipeline_snr(WireGeometry(radius), material, bandwidth, temperature=temperature)


def _number_cells(column, empty: str) -> list[str]:
    values = column.tolist()
    if np.isfinite(column).all():
        return list(map(repr, values))
    return [repr(v) if math.isfinite(v) else empty for v in values]


def _sweep_rows(args: argparse.Namespace, values: np.ndarray, result: SnrResult) -> list[str]:
    """Sweep rows, written column by column: CSV lines, or JSON objects as
    ``emit_json`` would indent them in ``outputs["rows"]``.  Constant columns
    go into a row template that the others fill.  Floats are ``repr``;
    inapplicable and non-finite cells are empty (CSV) or null (JSON)."""
    json_rows = args.format == "json"
    empty = "null" if json_rows else ""
    columns = {
        "axis": args.axis,
        "value": values,
        **_result_outputs(result),
        "flags": ";".join(result.flags),
    }
    parts, filled = [], []
    for key in SWEEP_HEADER:
        column = columns.get(key)
        if isinstance(column, str):
            part = json.dumps(column) if json_rows else column
        elif column is None:
            part = empty
        elif np.ndim(column) == 0:
            part = _number_cells(np.array([float(column)]), empty)[0]
        else:
            filled.append(_number_cells(column, empty))
            parts.append("%s")
            continue
        parts.append(part.replace("%", "%%"))
    if json_rows:
        template = "      {\n" + ",\n".join(
            f'        "{key}": {part}' for key, part in zip(SWEEP_HEADER, parts)
        ) + "\n      }"
    else:
        template = ",".join(parts)
    return [template % cells for cells in zip(*filled)]


def cmd_sweep(args: argparse.Namespace) -> int:
    axis = args.axis
    kind, devices = SWEEP_AXES[axis]
    if args.device not in devices:
        args.parser.error(
            f"axis {axis!r} does not apply to device {args.device!r}; "
            f"valid devices: {', '.join(devices)}"
        )
    if args.device == "qpc" and axis != "W" and args.width is None:
        args.parser.error("qpc sweeps need --width unless the axis is W")
    if args.device == "set" and axis != "R_island" and args.radius is None:
        args.parser.error("set sweeps need --radius unless the axis is R_island")
    material = (
        resolve_material(args) if args.device in ("wire", "qpc") else None
    )
    values = _sweep_values(args)
    try:
        result = _axis_result(args, material, values)
    except ParameterError as exc:
        if exc.index is None:
            raise
        raise ParameterError(f"{exc} (at {axis} = {values[exc.index].item()!r})") from None
    rows = _sweep_rows(args, values, result)
    if args.format == "json":
        inputs = {
            "device": args.device,
            "axis": axis,
            "start": args.start,
            "stop": args.stop,
            "points": args.points,
            "spacing": args.spacing,
            "bandwidth_hz": args.df,
            "temperature_k": args.temperature,
        }
        if material is not None:
            inputs.update(_material_inputs(material))
        emit_json(
            "sweep", inputs, {"header": list(SWEEP_HEADER), "rows": []}, [],
            deterministic=args.deterministic, rows=rows,
        )
        return 0
    sys.stdout.write(",".join(SWEEP_HEADER) + "\n" + "\n".join(rows) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        on_current=args.current,
        bandwidth=args.df,
        temperature=args.temperature,
        conductance=args.conductance,
        trials=args.trials,
        seed=args.seed,
        threshold=args.threshold,
        fano=args.fano,
    )
    outcome = simulate_detection(cfg, workers=args.workers)
    n_sigma = outcome.n_sigma()
    outputs = outcome.as_dict()
    outputs["n_sigma"] = n_sigma
    outputs["within_3_sigma"] = bool(n_sigma <= 3.0)
    inputs = {
        "on_current_a": args.current,
        "bandwidth_hz": args.df,
        "temperature_k": args.temperature,
        "conductance_s": args.conductance,
        "trials": args.trials,
        "seed": args.seed,
        "threshold_e": args.threshold,
        "fano": args.fano,
    }
    flags = ["gaussian-fallback"] if outcome.gaussian_fallback else []
    emit_json(
        "simulate", inputs, outputs, flags,
        generator=outcome.generator, seed=outcome.seed_used,
        deterministic=args.deterministic,
    )
    return 0


_SQRT_TEN = math.sqrt(10.0)


def _report_rows() -> list[dict]:
    from .materials import GAAS_LIKE, VACUUM

    vacuum_wire = wire_snr(VACUUM, 1.0)
    gaas_wire = wire_snr(GAAS_LIKE, 1.0)
    set_result = set_snr(SetGeometry(50e-9), 12.9, 1.0)
    ratio = vacuum_wire.sensitivity / 2.0e-8
    rows = [
        {
            "label": "wire sensitivity, vacuum host",
            "device": "wire",
            "inputs": {"material": "vacuum", "bandwidth_hz": 1.0},
            "f_unity_hz": vacuum_wire.f_unity,
            "sensitivity_e_per_rthz": vacuum_wire.sensitivity,
            "target": "2e-08 e/sqrt(Hz) within factor 1.25",
            "within_target": bool(max(ratio, 1.0 / ratio) <= 1.25),
        },
        {
            "label": "wire unity-SNR bandwidth, GaAs-like host",
            "device": "wire",
            "inputs": {"material": "gaas", "bandwidth_hz": 1.0},
            "f_unity_hz": gaas_wire.f_unity,
            "sensitivity_e_per_rthz": gaas_wire.sensitivity,
            "target": "0.5e12 to 2e12 Hz",
            "within_target": bool(0.5e12 <= gaas_wire.f_unity <= 2.0e12),
        },
        {
            "label": "wire sensitivity, GaAs-like host",
            "device": "wire",
            "inputs": {"material": "gaas", "bandwidth_hz": 1.0},
            "f_unity_hz": gaas_wire.f_unity,
            "sensitivity_e_per_rthz": gaas_wire.sensitivity,
            "target": "5e-07 to 2e-06 e/sqrt(Hz)",
            "within_target": bool(5.0e-7 <= gaas_wire.sensitivity <= 2.0e-6),
        },
        {
            "label": "set sensitivity, 50 nm island, eps_r 12.9",
            "device": "set",
            "inputs": {"island_radius_m": 50e-9, "epsilon_r": 12.9, "bandwidth_hz": 1.0},
            "f_unity_hz": set_result.f_unity,
            "sensitivity_e_per_rthz": set_result.sensitivity,
            "target": "1e-07 to 1e-06 e/sqrt(Hz), order-of-magnitude",
            "within_target": bool(
                1.0e-7 / _SQRT_TEN <= set_result.sensitivity <= 1.0e-6 * _SQRT_TEN
            ),
        },
    ]
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    rows = _report_rows()
    if args.json:
        emit_json("report", {}, {"rows": rows}, [], deterministic=args.deterministic)
        return 0
    print("headline checks")
    for row in rows:
        verdict = "pass" if row["within_target"] else "FAIL"
        print(f"  [{verdict}] {row['label']}")
        _print_rows(
            [
                ("f_unity", _human(row["f_unity_hz"], "Hz")),
                ("sensitivity", _human(row["sensitivity_e_per_rthz"], "e/sqrt(Hz)")),
                ("target", row["target"]),
            ]
        )
    return 0


# --------------------------------------------------------------------------
# Parser construction
# --------------------------------------------------------------------------

def _add_material_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--material", help="material name from the table (default vacuum)")
    parser.add_argument(
        "--mass-ratio", type=_quantity_type("dimensionless"),
        help="custom m*/m_e (with --epsr, instead of --material)",
    )


def _add_common_device_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--df", "--bandwidth", dest="df", type=_quantity_type("frequency"),
        default=1.0, help="measurement bandwidth (default 1 Hz)",
    )
    parser.add_argument(
        "--bias", type=_quantity_type("voltage"),
        help="source-drain bias override (default: the optimal bias)",
    )
    parser.add_argument(
        "--temperature", type=_quantity_type("temperature"), default=0.0,
        help="temperature in K (default 0)",
    )
    parser.add_argument(
        "--modulation", type=_quantity_type("dimensionless"), default=1.0,
        help="signal modulation depth in (0, 1] (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargelimit",
        description="Speed and sensitivity limits of single-electron charge detectors",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON envelope")
    common.add_argument(
        "--deterministic", action="store_true",
        help="omit the timestamp so outputs are byte-stable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[common], help="pinned constants and derived scales")
    p.set_defaults(func=cmd_constants, parser=p)

    p = sub.add_parser("material", parents=[common], help="inspect the material table")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="material name (for show)")
    p.set_defaults(func=cmd_material, parser=p)

    p = sub.add_parser("wire", parents=[common], help="cylindrical-wire FET detector")
    _add_material_flags(p)
    p.add_argument("--epsr", type=_quantity_type("dimensionless"), help="custom epsilon_r")
    p.add_argument(
        "--radius", type=_quantity_type("length"),
        help="channel radius (default: effective bohr radius; SNR is radius-free)",
    )
    _add_common_device_flags(p)
    p.set_defaults(func=cmd_wire, parser=p)

    p = sub.add_parser("qpc", parents=[common], help="quantum point contact detector")
    _add_material_flags(p)
    p.add_argument("--epsr", type=_quantity_type("dimensionless"), help="custom epsilon_r")
    p.add_argument(
        "--width", type=_quantity_type("length"), required=True,
        help="constriction width",
    )
    _add_common_device_flags(p)
    p.set_defaults(func=cmd_qpc, parser=p)

    p = sub.add_parser("set", parents=[common], help="single-electron transistor detector")
    p.add_argument(
        "--radius", type=_quantity_type("length"), required=True,
        help="island disk radius",
    )
    p.add_argument(
        "--epsr", type=_quantity_type("dimensionless"),
        help="relative dielectric constant of the host (default 1)",
    )
    _add_common_device_flags(p)
    p.set_defaults(func=cmd_set, parser=p)

    p = sub.add_parser("sweep", parents=[common], help="sweep one parameter axis")
    p.add_argument("--device", choices=("wire", "qpc", "set"), required=True)
    p.add_argument("--axis", choices=tuple(SWEEP_AXES), required=True)
    p.add_argument("--start", required=True, help="axis start (unit suffix allowed)")
    p.add_argument("--stop", required=True, help="axis stop (unit suffix allowed)")
    p.add_argument("--points", type=_int_type("points", 2), default=21)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_material_flags(p)
    p.add_argument("--epsr", type=_quantity_type("dimensionless"), help="epsilon_r (set device or custom material)")
    p.add_argument("--radius", type=_quantity_type("length"), help="wire or island radius")
    p.add_argument("--width", type=_quantity_type("length"), help="qpc width")
    p.add_argument(
        "--df", "--bandwidth", dest="df", type=_quantity_type("frequency"),
        default=1.0, help="bandwidth when not the axis (default 1 Hz)",
    )
    p.add_argument(
        "--temperature", type=_quantity_type("temperature"), default=0.0,
        help="temperature when not the axis (default 0 K)",
    )
    p.set_defaults(func=cmd_sweep, parser=p)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo counting simulation")
    p.add_argument(
        "--current", "--I", dest="current", type=_quantity_type("current"),
        required=True, help="on-state current",
    )
    p.add_argument(
        "--df", "--bandwidth", dest="df", type=_quantity_type("frequency"),
        required=True, help="measurement bandwidth",
    )
    p.add_argument("--trials", type=_int_type("trials", 2), required=True)
    p.add_argument("--seed", type=_int_type("seed", 0, 64), required=True)
    p.add_argument(
        "--temperature", type=_quantity_type("temperature"), default=0.0,
        help="temperature in K (default 0)",
    )
    p.add_argument(
        "--conductance", type=_quantity_type("conductance"),
        help="channel conductance for the thermal-noise term",
    )
    p.add_argument(
        "--threshold", type=_quantity_type("dimensionless"), default=0.5,
        help="decision threshold in electron counts (default 0.5)",
    )
    p.add_argument(
        "--fano", type=_quantity_type("dimensionless"), default=1.0,
        help="shot-noise Fano factor (default 1; != 1 forces Gaussian sampling)",
    )
    p.add_argument("--workers", type=_int_type("workers", 1), default=1)
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("report", parents=[common], help="headline checks with pass/fail")
    p.set_defaults(func=cmd_report, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "material" and args.action == "show" and args.name is None:
        args.parser.error("material show requires a material name")
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
