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

Each output is stated once.  A command's fields form one table of
(JSON key, human label, unit, value) rows, from which both its JSON
outputs and its human rows are rendered; the detector results share
``RESULT_FIELDS``, which also gives the sweep's CSV and JSON columns.
Each value flag is declared once in ``_FLAGS``, and every parser takes
its flags from there.

Numbers accept an optional unit suffix directly after the value (no
space): lengths nm/um/m, frequencies Hz/kHz/MHz/GHz/THz, temperatures K,
voltages mV/V, currents pA/nA/uA/mA/A, conductances uS/mS/S.  A bare
number is the SI base unit.  Suffixes are matched case-insensitively.

Exit codes: 0 success, 1 domain error (bad physics parameter, unreadable
materials table) or out of memory, 2 usage error (unparseable flags, a
flag the command does not take, or a sweep flag for the parameter the
axis sweeps).  JSON output is a fixed-order envelope {command, inputs,
outputs, flags, generator?, seed?, timestamp?}; the timestamp is omitted
under --deterministic so outputs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

from .constants import CONSTANTS
from .devices import (
    QpcDevice,
    SetDevice,
    SnrResult,
    WireDevice,
    device_snr,
    qpc_pipeline_snr,
    set_pipeline_snr,
    wire_pipeline_snr,
    wire_snr,
)
from .errors import ParameterError, isfinite
from .materials import (
    Material,
    builtin_materials,
    canonical_name,
    effective_scales,
    load_materials_file,
)

__all__ = ["main", "MATERIALS_ENV", "SWEEP_HEADER"]

MATERIALS_ENV = "CHARGE_LIMIT_MATERIALS"


def _transport(name: str):
    """Getter of a transport field, None where the device's transport lacks it."""
    return lambda result: getattr(result.transport, name, None)


#: (JSON/CSV key, human unit, getter) of every detector result field, in
#: column order.  A getter gives None where the field does not apply to the
#: device: the one-shot output drops the key and a sweep leaves the cell empty.
RESULT_FIELDS = (
    ("snr", "", lambda result: result.snr),
    ("f_unity_hz", "Hz", lambda result: result.f_unity),
    ("sensitivity_e_per_rthz", "e/sqrt(Hz)", lambda result: result.sensitivity),
    ("shot_variance_a2", "A^2", lambda result: result.breakdown.shot_sq),
    ("thermal_variance_a2", "A^2", lambda result: result.breakdown.thermal_sq),
    ("total_rms_a", "A", lambda result: result.breakdown.total_rms),
    ("n_modes", "", _transport("n_modes")),
    ("kinetic_energy_j", "J", _transport("kinetic_energy")),
    ("bias_v", "V", lambda result: result.bias),
    ("conductance_s", "S", lambda result: result.conductance),
    ("current_a", "A", lambda result: result.current),
    ("capacitance_f", "F", _transport("capacitance")),
    ("charging_energy_j", "J", _transport("charging_energy")),
    ("blockade_voltage_v", "V", _transport("blockade_voltage")),
)

#: Fixed CSV column set for `sweep`; inapplicable columns are left empty.
SWEEP_HEADER = ("axis", "value", *(key for key, _, _ in RESULT_FIELDS), "flags")

#: axis token -> (the value flag it stands in for, device kinds it applies
#: to).  The sweep's values take the flag's place and its unit kind, a
#: sweep over the axis rejects the flag, and its JSON inputs leave out the
#: flag's key (--mass-ratio's is the material's mass_ratio).  On a material
#: axis, one whose flag is in _MATERIAL_FLAGS, a wire's or qpc's
#: --mass-ratio/--epsr pair stays: it names the custom material whose m*
#: or epsilon_r the axis varies.
SWEEP_AXES = {
    "R": ("radius", ("wire",)),
    "W": ("width", ("qpc",)),
    "R_island": ("radius", ("set",)),
    "delta_f": ("df", ("wire", "qpc", "set")),
    "epsilon_r": ("epsr", ("wire", "set")),
    "m_star_ratio": ("mass_ratio", ("wire", "qpc")),
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


#: Every value flag: dest -> (names, unit kind or integer type, default,
#: JSON input key, help).  A parser may override the help (and make a flag
#: required, or give the set's --epsr its vacuum default) where its own
#: --help text says more; see _DEVICE_COMMANDS and build_parser.  The size
#: flags' input keys depend on the device.
_FLAGS = {
    "material": (("--material",), None, None, None,
                 "material name from the table (default vacuum)"),
    "mass_ratio": (("--mass-ratio",), "dimensionless", None, None,
                   "custom m*/m_e (with --epsr, instead of --material)"),
    "epsr": (("--epsr",), "dimensionless", None, "epsilon_r", "custom epsilon_r"),
    "radius": (("--radius",), "length", None, None, "wire or island radius"),
    "width": (("--width",), "length", None, None, "qpc width"),
    "df": (("--df", "--bandwidth"), "frequency", 1.0, "bandwidth_hz",
           "measurement bandwidth (default 1 Hz)"),
    "bias": (("--bias",), "voltage", None, "bias_v",
             "source-drain bias override (default: the optimal bias)"),
    "temperature": (("--temperature",), "temperature", 0.0, "temperature_k",
                    "temperature in K (default 0)"),
    "modulation": (("--modulation",), "dimensionless", 1.0, "modulation",
                   "signal modulation depth in (0, 1] (default 1)"),
    "current": (("--current", "--I"), "current", None, "on_current_a", "on-state current"),
    "trials": (("--trials",), _int_type("trials", 2), None, "trials", None),
    "seed": (("--seed",), _int_type("seed", 0, 64), None, "seed", None),
    "conductance": (("--conductance",), "conductance", None, "conductance_s",
                    "channel conductance for the thermal-noise term"),
    "threshold": (("--threshold",), "dimensionless", 0.5, "threshold_e",
                  "decision threshold in electron counts (default 0.5)"),
    "fano": (("--fano",), "dimensionless", 1.0, "fano",
             "shot-noise Fano factor (default 1; != 1 forces Gaussian sampling)"),
    "workers": (("--workers",), _int_type("workers", 1), 1, None, None),
}

_MATERIAL_FLAGS = ("material", "mass_ratio", "epsr")
_OPERATING_FLAGS = ("df", "bias", "temperature", "modulation")

#: device command -> (help, size flag, size input key, value flags, flag overrides).
#: A sweep of the device takes the same value flags.
_DEVICE_COMMANDS = {
    "wire": ("cylindrical-wire FET detector", "radius", "radius_m",
             (*_MATERIAL_FLAGS, "radius", *_OPERATING_FLAGS),
             {"radius": {"help": "channel radius (default: effective bohr radius; "
                                 "SNR is radius-free)"}}),
    "qpc": ("quantum point contact detector", "width", "width_m",
            (*_MATERIAL_FLAGS, "width", *_OPERATING_FLAGS),
            {"width": {"help": "constriction width", "required": True}}),
    "set": ("single-electron transistor detector", "radius", "island_radius_m",
            ("radius", "epsr", *_OPERATING_FLAGS),
            {"radius": {"help": "island disk radius", "required": True},
             "epsr": {"help": "relative dielectric constant of the host (default 1)",
                      "default": 1.0}}),
}
#: A sweep rejects those of its value flags that its device's command lacks.
_SWEEP_FLAGS = (*_MATERIAL_FLAGS, "radius", "width", "df", "temperature")
#: simulate's value flags that are its JSON inputs, in their order.
_SIM_FLAGS = ("current", "df", "temperature", "conductance", "trials", "seed", "threshold", "fano")


def _add_flags(parser: argparse.ArgumentParser, dests, overrides: dict) -> None:
    """Add the value flags ``dests`` from _FLAGS, with per-flag argparse
    keyword ``overrides``."""
    for dest in dests:
        names, kind, default, _, text = _FLAGS[dest]
        options = {"dest": dest, "type": _quantity_type(kind) if isinstance(kind, str) else kind,
                   "default": default, "help": text, **overrides.get(dest, {})}
        parser.add_argument(*names, **options)


def _inputs(args: argparse.Namespace, dests) -> dict:
    """The JSON inputs of the value flags ``dests``, keyed as _FLAGS says."""
    return {_FLAGS[dest][3]: getattr(args, dest) for dest in dests}


# --------------------------------------------------------------------------
# Materials
# --------------------------------------------------------------------------

def load_material_table() -> tuple[dict[str, Material], set[str]]:
    """Built-in table merged with CHARGE_LIMIT_MATERIALS; returns user keys too."""
    path = os.environ.get(MATERIALS_ENV)
    user_table = load_materials_file(path) if path else {}
    return {**builtin_materials(), **user_table}, set(user_table)


def find_material(name: str) -> Material:
    """The material called ``name`` in the merged table."""
    table, _ = load_material_table()
    key = canonical_name(name)
    if key not in table:
        known = ", ".join(sorted(table))
        raise ParameterError(f"unknown material {name!r}; known materials: {known}")
    return table[key]


def resolve_material(args: argparse.Namespace) -> Material:
    """Material from --material NAME, or --mass-ratio/--epsr pair, or vacuum."""
    custom = args.mass_ratio is not None or args.epsr is not None
    if args.material is not None and custom:
        args.parser.error("--material cannot be combined with --mass-ratio/--epsr")
    if custom:
        if args.mass_ratio is None or args.epsr is None:
            args.parser.error("--mass-ratio and --epsr must be given together")
        return Material(name="custom", mass_ratio=args.mass_ratio, epsilon_r=args.epsr)
    return find_material(args.material if args.material is not None else "vacuum")


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def emit_json(args: argparse.Namespace, inputs: dict, outputs: dict, flags=(),
              rows: list[str] | None = None, **extra) -> None:
    """Print the envelope of ``args.command``; ``extra`` (a generator and a
    seed) follows the flags, and ``rows`` are pre-rendered objects for
    outputs["rows"]."""
    record: dict = {
        "command": args.command,
        "inputs": _sanitize(inputs),
        "outputs": _sanitize(outputs),
        "flags": list(flags),
        **extra,
    }
    if not args.deterministic:
        from datetime import datetime, timezone

        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(record, indent=2)
    if rows is not None:
        text = text.replace('"rows": []', '"rows": [\n' + ",\n".join(rows) + "\n    ]", 1)
    print(text)


def _human(value: float, unit: str = "") -> str:
    return f"{value:.6g} {unit}".rstrip()


# An output table is a sequence of headings (str) and rows
# (JSON key, human label, unit, value).  A row without a JSON key is shown
# only to humans, one without a label only in JSON; a str value is shown
# as it is.

def _outputs(table) -> dict:
    """The JSON outputs of a table: every row that has a JSON key."""
    return {row[0]: row[3] for row in table if not isinstance(row, str) and row[0] is not None}


def _print_table(table) -> None:
    """Print each heading, and the labelled rows under it aligned."""
    for is_heading, rows in itertools.groupby(table, lambda row: isinstance(row, str)):
        if is_heading:
            print(*rows, sep="\n")
            continue
        cells = [(label, value if isinstance(value, str) else _human(value, unit))
                 for _, label, unit, value in rows if label is not None]
        width = max(len(label) for label, _ in cells)
        for label, text in cells:
            print(f"  {label:<{width}}  {text}")


def _emit_table(args: argparse.Namespace, inputs: dict, table, flags=()) -> int:
    """Render ``table`` as the JSON envelope under --json, else as human rows."""
    if args.json:
        emit_json(args, inputs, _outputs(table), flags)
    else:
        _print_table(table)
    return 0


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------

def cmd_constants(args: argparse.Namespace) -> int:
    c = CONSTANTS
    table = (
        "pinned constants (SI)",
        ("e_C", "elementary charge e", "C", c.e),
        ("h_Js", "Planck constant h", "J s", c.h),
        ("hbar_Js", "reduced Planck hbar", "J s", c.hbar),
        ("c_m_per_s", "speed of light c", "m/s", c.c),
        ("k_B_J_per_K", "Boltzmann constant k_B", "J/K", c.k_B),
        ("m_e_kg", "electron mass m_e", "kg", c.m_e),
        ("eps0_F_per_m", "vacuum permittivity eps0", "F/m", c.eps0),
        ("alpha", "fine-structure constant", "", c.alpha),
        "derived atomic scales",
        ("bohr_radius_m", "bohr radius", "m", c.bohr_radius),
        ("rydberg_energy_J", "rydberg energy", "J", c.rydberg_energy),
        ("rydberg_energy_eV", "rydberg energy", "eV", c.rydberg_energy / c.e),
        ("rydberg_frequency_Hz", "rydberg frequency", "Hz", c.rydberg_frequency),
    )
    return _emit_table(args, {}, table)


def cmd_material(args: argparse.Namespace) -> int:
    if (args.name is None) == (args.action == "show"):
        args.parser.error("material show takes one material name, material list takes none")
    if args.action == "list":
        table, user_keys = load_material_table()
        rows = [{**vars(mat), "source": "user" if key in user_keys else "builtin"}
                for key, mat in sorted(table.items())]
        if args.json:
            emit_json(args, {"action": "list"}, {"materials": rows})
            return 0
        print(f"{'name':<12} {'mass_ratio':>10} {'epsilon_r':>10}  source")
        for row in rows:
            print(
                f"{row['name']:<12} {row['mass_ratio']:>10.6g} "
                f"{row['epsilon_r']:>10.6g}  {row['source']}"
            )
        return 0
    mat = find_material(args.name)
    scales = effective_scales(mat)
    table = (
        f"material {mat.name}",
        ("name", None, "", mat.name),
        ("mass_ratio", "mass ratio m*/m_e", "", mat.mass_ratio),
        ("epsilon_r", "dielectric constant", "", mat.epsilon_r),
        ("scale_factor", "scale factor", "", scales.scale_factor),
        ("rydberg_energy_J", "effective rydberg", "J", scales.rydberg_energy),
        ("rydberg_energy_meV", "effective rydberg", "meV",
         scales.rydberg_energy / CONSTANTS.e * 1e3),
        ("rydberg_frequency_Hz", "effective rydberg freq", "Hz", scales.rydberg_frequency),
        ("bohr_radius_m", "effective bohr radius", "m", scales.bohr_radius),
    )
    return _emit_table(args, {"action": "show", "name": args.name}, table)


def _material_inputs(material: Material) -> dict:
    return {
        "material": material.name,
        "mass_ratio": material.mass_ratio,
        "epsilon_r": material.epsilon_r,
    }


def cmd_device(args: argparse.Namespace) -> int:
    """wire, qpc or set: one detector at one operating point."""
    material = None if args.device == "set" else resolve_material(args)
    result = _axis_result(args, material)
    _, size, size_key, dests, _ = _DEVICE_COMMANDS[args.device]
    inputs = {} if material is None else _material_inputs(material)
    inputs[size_key] = getattr(args, size)
    inputs.update(_inputs(args, dests[dests.index(size) + 1:]))
    subject = (f"island radius {_human(args.radius, 'm')}" if material is None
               else f"material {material.name}")
    table = [f"{args.device} detector, {subject}"]
    table += [(key, key, unit, get(result)) for key, unit, get in RESULT_FIELDS
              if get(result) is not None]
    if result.flags:
        table.append((None, "flags", "", ";".join(result.flags)))
    return _emit_table(args, inputs, table, result.flags)


def _sweep_values(args: argparse.Namespace):
    """The sweep's axis values, an ndarray: only a sweep imports numpy."""
    import numpy as np

    kind = _FLAGS[SWEEP_AXES[args.axis][0]][1]
    try:
        start, stop = (parse_quantity(text, kind) for text in (args.start, args.stop))
    except argparse.ArgumentTypeError as exc:
        args.parser.error(str(exc))
    if not start < stop:
        args.parser.error(f"sweep start must be < stop, got {start!r} >= {stop!r}")
    if not math.isfinite(stop - start):
        raise ParameterError(f"sweep span from {start!r} to {stop!r} is outside the float range")
    if args.spacing == "log":
        if start <= 0.0:
            args.parser.error("log spacing requires start > 0")
        return np.geomspace(start, stop, args.points)
    return np.linspace(start, stop, args.points)


def _axis_result(args: argparse.Namespace, material: Material | None,
                 values=None) -> SnrResult:
    """One pipeline call with the axis ``values`` in place of their parameter.

    A one-shot command has no axis and passes no values.  At T = 0 with
    the default bias (and, for the wire, the default radius) it takes the
    closed form instead; any other temperature reaches the pipeline's
    checks.
    """

    swept = args.axis and SWEEP_AXES[args.axis][0]

    def pick(dest: str, default):
        return values if swept == dest else default

    if material is not None and swept in _MATERIAL_FLAGS:
        material = Material("custom", pick("mass_ratio", material.mass_ratio),
                            pick("epsr", material.epsilon_r))
    # the pipelines are looked up here, where perfbench's wrappers find them
    device_class, pipeline, host = {
        "wire": (WireDevice, wire_pipeline_snr, material),
        "qpc": (QpcDevice, qpc_pipeline_snr, material),
        "set": (SetDevice, set_pipeline_snr, pick("epsr", args.epsr)),
    }[args.device]
    size = _DEVICE_COMMANDS[args.device][1]
    extent = pick(size, getattr(args, size))
    if extent is None:  # the wire's default radius
        extent = effective_scales(material).bohr_radius
    device = device_class(extent, host)
    bandwidth = pick("df", args.df)
    if (values is None and args.bias is None and args.temperature == 0.0
            and (args.device != "wire" or args.radius is None)):
        return device_snr(device, bandwidth, modulation=args.modulation)
    return pipeline(device, bandwidth, bias=args.bias,
                    temperature=pick("temperature", args.temperature), modulation=args.modulation)


def _number_cells(column, empty: str) -> list[str]:
    """``repr`` of each cell of a float64 ``column``, ``empty`` where it is not
    finite.  A column that repeats within its first 64 cells, or holds a
    non-finite cell, formats each distinct bit pattern once (bits, so -0.0
    and 0.0 stay apart)."""
    values = column.tolist()
    head = values[:64]
    if len(set(head)) == len(head) and isfinite(column).all():
        return list(map(repr, values))
    keys = column.view("i8").tolist()
    text = {key: repr(v) if math.isfinite(v) else empty
            for key, v in dict(zip(keys, values)).items()}
    return list(map(text.__getitem__, keys))


def _sweep_rows(args: argparse.Namespace, values, result: SnrResult) -> list[str]:
    """Sweep rows, written column by column: CSV lines, or JSON objects as
    ``emit_json`` would indent them in ``outputs["rows"]``.  A CSV row joins
    its cells; a JSON row fills a template that holds the constant cells.
    Floats are ``repr``; inapplicable and non-finite cells are empty (CSV)
    or null (JSON)."""
    import numpy as np

    json_rows = args.format == "json"
    empty = "null" if json_rows else ""
    columns = []  # a str for a constant cell, else the cells of a column
    for column in (args.axis, values, *(get(result) for _, _, get in RESULT_FIELDS),
                   ";".join(result.flags)):
        if isinstance(column, str):
            columns.append(json.dumps(column) if json_rows else column)
        elif column is None:
            columns.append(empty)
        elif np.ndim(column) == 0:
            columns.append(_number_cells(np.array([float(column)]), empty)[0])
        else:
            columns.append(_number_cells(column, empty))
    if not json_rows:
        return list(map(",".join, zip(*(
            itertools.repeat(cells, len(values)) if isinstance(cells, str) else cells
            for cells in columns))))
    template = "      {\n" + ",\n".join(
        f'        "{key}": ' + (cells.replace("%", "%%") if isinstance(cells, str) else "%s")
        for key, cells in zip(SWEEP_HEADER, columns)
    ) + "\n      }"
    return [template % cells for cells in zip(*(c for c in columns if not isinstance(c, str)))]


def cmd_sweep(args: argparse.Namespace) -> int:
    axis = args.axis
    swept, devices = SWEEP_AXES[axis]
    if args.device not in devices:
        args.parser.error(
            f"axis {axis!r} does not apply to device {args.device!r}; "
            f"valid devices: {', '.join(devices)}"
        )
    takes = _DEVICE_COMMANDS[args.device][3]
    rejected = None if args.device != "set" and swept in _MATERIAL_FLAGS else swept
    for dest in _SWEEP_FLAGS:
        if getattr(args, dest) is not None and (dest not in takes or dest == rejected):
            what = f"a sweep over {axis}" if dest == rejected else f"device {args.device!r}"
            args.parser.error(f"{_FLAGS[dest][0][0]} does not apply to {what}")
    # --df, --temperature and the set's --epsr are None until here, so that the
    # check sees them given; now each takes its default of the device command
    overrides = _DEVICE_COMMANDS[args.device][4]
    vars(args).update({dest: overrides.get(dest, {}).get("default", _FLAGS[dest][2])
                       for dest in ("df", "temperature", "epsr") if getattr(args, dest) is None})
    if args.device == "qpc" and axis != "W" and args.width is None:
        args.parser.error("qpc sweeps need --width unless the axis is W")
    if args.device == "set" and axis != "R_island" and args.radius is None:
        args.parser.error("set sweeps need --radius unless the axis is R_island")
    material = None if args.device == "set" else resolve_material(args)
    values = _sweep_values(args)
    try:
        result = _axis_result(args, material, values)
    except ParameterError as exc:
        if exc.index is None:
            raise
        raise ParameterError(f"{exc} (at {axis} = {values[exc.index].item()!r})") from None
    rows = _sweep_rows(args, values, result)
    if args.format == "json":
        # the sweep's own flags are their own input keys
        inputs = {dest: getattr(args, dest)
                  for dest in ("device", "axis", "start", "stop", "points", "spacing")}
        inputs.update(_inputs(args, ("df", "temperature")))
        if material is not None:
            inputs.update(_material_inputs(material))
        _, size, size_key, _, _ = _DEVICE_COMMANDS[args.device]
        # null where the flag is not given, as the one-shot commands write it
        inputs[size_key] = getattr(args, size)
        if args.device == "set":
            inputs.update(_inputs(args, ("epsr",)))
        # the axis replaces this input: each row names its value
        del inputs[size_key if swept == size else _FLAGS[swept][3] or swept]
        emit_json(args, inputs, {"header": list(SWEEP_HEADER), "rows": []}, rows=rows)
        return 0
    sys.stdout.write(",".join(SWEEP_HEADER) + "\n" + "\n".join(rows) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import SimConfig, simulate_detection

    # SimConfig names the first two flags its own way, the rest as they are
    cfg = SimConfig(on_current=args.current, bandwidth=args.df,
                    **{dest: getattr(args, dest) for dest in _SIM_FLAGS[2:]})
    outcome = simulate_detection(cfg, workers=args.workers)
    emit_json(args, _inputs(args, _SIM_FLAGS), outcome.as_dict(), outcome.flags(),
              generator=outcome.generator, seed=outcome.seed_used)
    return 0


_SQRT_TEN = math.sqrt(10.0)


def _report_tables() -> list[tuple]:
    """One output table per headline check, headed by its verdict."""
    from .materials import GAAS_LIKE, VACUUM

    vacuum_wire = wire_snr(VACUUM, 1.0)
    gaas_wire = wire_snr(GAAS_LIKE, 1.0)
    set_result = device_snr(SetDevice(50e-9, 12.9), 1.0)
    ratio = vacuum_wire.sensitivity / 2.0e-8
    gaas = {"material": "gaas", "bandwidth_hz": 1.0}
    checks = [  # label, device, inputs, result, target, within target
        ("wire sensitivity, vacuum host", "wire", {"material": "vacuum", "bandwidth_hz": 1.0},
         vacuum_wire, "2e-08 e/sqrt(Hz) within factor 1.25", max(ratio, 1.0 / ratio) <= 1.25),
        ("wire unity-SNR bandwidth, GaAs-like host", "wire", gaas, gaas_wire,
         "0.5e12 to 2e12 Hz", 0.5e12 <= gaas_wire.f_unity <= 2.0e12),
        ("wire sensitivity, GaAs-like host", "wire", gaas, gaas_wire,
         "5e-07 to 2e-06 e/sqrt(Hz)", 5.0e-7 <= gaas_wire.sensitivity <= 2.0e-6),
        ("set sensitivity, 50 nm island, eps_r 12.9", "set",
         {"island_radius_m": 50e-9, "epsilon_r": 12.9, "bandwidth_hz": 1.0}, set_result,
         "1e-07 to 1e-06 e/sqrt(Hz), order-of-magnitude",
         1.0e-7 / _SQRT_TEN <= set_result.sensitivity <= 1.0e-6 * _SQRT_TEN),
    ]
    return [
        (
            f"  [{'pass' if ok else 'FAIL'}] {label}",
            ("label", None, "", label),
            ("device", None, "", device),
            ("inputs", None, "", inputs),
            ("f_unity_hz", "f_unity", "Hz", result.f_unity),
            ("sensitivity_e_per_rthz", "sensitivity", "e/sqrt(Hz)", result.sensitivity),
            ("target", "target", "", target),
            ("within_target", None, "", bool(ok)),
        )
        for label, device, inputs, result, target, ok in checks
    ]


def cmd_report(args: argparse.Namespace) -> int:
    tables = _report_tables()
    if args.json:
        rows = [_outputs(table) for table in tables]
        emit_json(args, {}, {"rows": rows})
        return 0
    _print_table(["headline checks", *itertools.chain.from_iterable(tables)])
    return 0


# --------------------------------------------------------------------------
# Parser construction
# --------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports the arguments it does not know
    itself, under its own usage, where the top-level parser would name
    only ``chargelimit``."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargelimit",
        description="Speed and sensitivity limits of single-electron charge detectors",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON envelope")
    deterministic = argparse.ArgumentParser(add_help=False)  # a sweep's format is its --format
    for parent in (common, deterministic):
        parent.add_argument(
            "--deterministic", action="store_true",
            help="omit the timestamp so outputs are byte-stable",
        )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("constants", parents=[common], help="pinned constants and derived scales")
    p.set_defaults(func=cmd_constants, parser=p)

    p = sub.add_parser("material", parents=[common], help="inspect the material table")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="material name (for show)")
    p.set_defaults(func=cmd_material, parser=p)

    for kind, (summary, _, _, dests, overrides) in _DEVICE_COMMANDS.items():
        p = sub.add_parser(kind, parents=[common], help=summary)
        _add_flags(p, dests, overrides)
        p.set_defaults(func=cmd_device, parser=p, device=kind, axis=None)

    p = sub.add_parser("sweep", parents=[deterministic], help="sweep one parameter axis")
    p.add_argument("--device", choices=("wire", "qpc", "set"), required=True)
    p.add_argument("--axis", choices=tuple(SWEEP_AXES), required=True)
    p.add_argument("--start", required=True, help="axis start (unit suffix allowed)")
    p.add_argument("--stop", required=True, help="axis stop (unit suffix allowed)")
    p.add_argument("--points", type=_int_type("points", 2), default=21)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_flags(p, _SWEEP_FLAGS, {
        "epsr": {"help": "epsilon_r (set device or custom material)"},
        "df": {"help": "bandwidth when not the axis (default 1 Hz)", "default": None},
        "temperature": {"help": "temperature when not the axis (default 0 K)", "default": None},
    })
    p.set_defaults(func=cmd_sweep, parser=p, bias=None, modulation=1.0)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo counting simulation")
    required = {"required": True}
    _add_flags(p, ("current", "df", "trials", "seed", "temperature", "conductance", "threshold",
                   "fano", "workers"), {
        "current": required, "trials": required, "seed": required,
        "df": {"help": "measurement bandwidth", "required": True},
    })
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("report", parents=[common], help="headline checks with pass/fail")
    p.set_defaults(func=cmd_report, parser=p)

    return parser


#: The parser that every ``main`` call of a process reuses.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader must surface here, not at exit
    except (ParameterError, MemoryError) as exc:  # numpy's MemoryError names its allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout to devnull, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
