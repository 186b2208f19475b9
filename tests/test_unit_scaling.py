"""Every published column scales with its unit, bit for bit.

IEEE 754 rounding commutes with scaling by a power of two, away from
overflow and subnormal numbers.  So take a unit system whose base units
(m, kg, s, C, K) are powers of two times the SI ones, and evaluate the
model with its constants and inputs in that system: every published
float must be its SI value times the exact power of two that its unit
gives, and every dimensionless output must keep its bits.  The
exponents are even, so every square root stays exact.

A term with the wrong dimension fails this, and so does a wrong unit
string in ``cli.RESULT_FIELDS``, even where the SI values happen to fit.
A wrong dimensionless factor (3*pi**2, a spin factor) passes it; the
headline values and the hydrogenic identities guard those.

Each unit system is evaluated in its own child process, which rebinds
``CONSTANTS`` in every ``chargelimit`` module that binds it: a module
that kept the SI instance would escape the change.  Run as a script,
this file is that child: ``python tests/test_unit_scaling.py up``
prints the outputs in the ``up`` system as JSON.
"""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASES = ("m", "kg", "s", "C", "K")
#: unit system -> log2 of its base units (m, kg, s, C, K) in SI units.
SYSTEMS = {"si": (0, 0, 0, 0, 0), "up": (4, -6, 8, 2, -4), "down": (-4, 6, -8, -2, 4)}
#: Each named unit as powers of the base units; ``e`` counts electrons.
UNITS = {
    **{base: {base: 1} for base in BASES},
    "e": {},
    "Hz": {"s": -1},
    "A": {"C": 1, "s": -1},
    "J": {"kg": 1, "m": 2, "s": -2},
    "V": {"kg": 1, "m": 2, "s": -2, "C": -1},
    "S": {"C": 2, "s": 1, "kg": -1, "m": -2},
    "F": {"C": 2, "s": 2, "kg": -1, "m": -2},
}
#: PhysicalConstants' pinned and derived fields, with their units.
CONSTANT_UNITS = {
    "e": "C", "h": "J s", "c": "m/s", "k_B": "J/K", "m_e": "kg", "eps0": "F/m", "alpha": "",
    "hbar": "J s", "e_sq_gauss": "J m", "bohr_radius": "m", "rydberg_energy": "J",
    "rydberg_frequency": "Hz", "conductance_quantum": "S",
}
SCALE_UNITS = {"rydberg_energy": "J", "rydberg_frequency": "Hz", "bohr_radius": "m",
               "scale_factor": ""}
#: The modules that bind CONSTANTS; the child must rebind at least these.
BINDERS = {"chargelimit", *(f"chargelimit.{name}" for name in
                            ("constants", "devices", "materials", "noise", "montecarlo", "cli"))}


def dimension(unit: str) -> dict:
    """Powers of the base units in a unit string such as ``"J s"``,
    ``"F/m"``, ``"A^2"`` or ``"e/sqrt(Hz)"``: factors are separated by
    spaces, everything after the first ``/`` divides."""
    powers = dict.fromkeys(BASES, Fraction(0))
    for index, part in enumerate(unit.split("/")):
        for factor in part.split():
            match = re.fullmatch(r"sqrt\((\w+)\)|(\w+)(?:\^(\d+))?", factor)
            name = match.group(1) or match.group(2)
            power = Fraction(1, 2) if match.group(1) else Fraction(match.group(3) or 1)
            for base, base_power in UNITS[name].items():
                powers[base] += (-1 if index else 1) * power * base_power
    return powers


def exponent(unit: str, system: str) -> int:
    """k such that a value in ``unit`` reads ldexp(SI value, k) in ``system``."""
    k = -sum(power * log2 for power, log2 in zip(dimension(unit).values(), SYSTEMS[system]))
    assert k.denominator == 1, (unit, system)
    return int(k)


# --------------------------------------------------------------------------
# The child: evaluate every case in one unit system
# --------------------------------------------------------------------------

def _bits(value):
    """JSON form of an output that keeps its bits: floats as hex."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return value.hex() if isinstance(value, float) else value


def evaluate(system: str) -> dict:
    """Rebind the constants, run every case and return {case: {column:
    [unit, bits]}}, plus the rebound modules under ``"rebound"``."""
    import numpy as np

    import chargelimit

    for info in pkgutil.iter_modules(chargelimit.__path__):
        if info.name != "__main__":
            importlib.import_module(f"chargelimit.{info.name}")
    from chargelimit import cli, constants, devices, materials, montecarlo

    si = constants.CONSTANTS

    def to(value, unit):
        return (np if isinstance(value, np.ndarray) else math).ldexp(value, exponent(unit, system))

    scaled = constants.PhysicalConstants(**{
        name: to(getattr(si, name), CONSTANT_UNITS[name])
        for name in constants.PhysicalConstants.__annotations__})
    rebound = sorted(name for name, module in sys.modules.items()
                     if name.split(".")[0] == "chargelimit"
                     and getattr(module, "CONSTANTS", None) is si)
    for name in rebound:
        sys.modules[name].CONSTANTS = scaled

    out = {"rebound": rebound,
           "constants": {name: [unit, _bits(getattr(scaled, name))]
                         for name, unit in CONSTANT_UNITS.items()}}
    gaas = materials.GAAS_LIKE
    for material in (materials.VACUUM, gaas):
        scales = materials.effective_scales(material)
        out[f"effective_scales {material.name}"] = {
            name: [unit, _bits(getattr(scales, name))] for name, unit in SCALE_UNITS.items()}

    records = {
        "wire": lambda size: devices.WireDevice(to(size, "m"), gaas),
        "qpc": lambda size: devices.QpcDevice(to(size, "m"), gaas),
        "set": lambda size: devices.SetDevice(to(size, "m"), 12.9),
    }
    df, temperature, bias = to(1e6, "Hz"), to(4.2, "K"), to(1e-3, "V")
    results = {"wire_snr": devices.wire_snr(gaas, df)}
    for kind, make in records.items():
        device = make(20e-9)
        results.update({
            f"{kind} device_snr": devices.device_snr(device, df),
            f"{kind} device_snr modulation": devices.device_snr(device, df, modulation=0.375),
            f"{kind} pipeline_snr": devices.pipeline_snr(device, df),
            f"{kind} pipeline_snr warm": devices.pipeline_snr(device, df, temperature=temperature),
            f"{kind} pipeline_snr bias": devices.pipeline_snr(device, df, bias=bias),
            f"{kind} pipeline_snr modulation": devices.pipeline_snr(
                device, df, temperature=temperature, modulation=0.375),
            f"{kind} pipeline_snr array": devices.pipeline_snr(
                make(np.geomspace(2e-9, 2e-7, 5)), df, temperature=temperature),
        })
    for case, result in results.items():
        out[case] = {key: [unit, _bits(get(result))] for key, unit, get in cli.RESULT_FIELDS}

    regimes = {  # λ = 10 counts, with 4.2 K Johnson noise, and λ = 2e7 (Gaussian)
        "poisson": dict(on_current=1.602176634e-13),
        "poisson thermal": dict(on_current=1.602176634e-13, temperature=4.2, conductance=2e-11),
        "gaussian": dict(on_current=3.204353268e-7),
    }
    units = {"on_current": "A", "temperature": "K", "conductance": "S"}
    for regime, inputs in regimes.items():
        cfg = montecarlo.SimConfig(
            bandwidth=to(5e4, "Hz"), trials=20_000, seed=7,
            **{name: to(value, units[name]) for name, value in inputs.items()})
        outcome = montecarlo.simulate_detection(cfg)
        out[f"simulate {regime}"] = {name: ["", _bits(value)]
                                     for name, value in outcome.as_dict().items()}
    return out


# --------------------------------------------------------------------------
# The test
# --------------------------------------------------------------------------

def test_unit_strings_parse():
    assert exponent("e/sqrt(Hz)", "up") == -4  # Hz^-1/2 with 2^8 s
    assert exponent("A^2", "up") == 12  # (C/s)^2 with 2^2 C and 2^8 s
    assert exponent("F/m", "down") == exponent("F", "down") - exponent("m", "down")
    assert exponent("", "up") == exponent("e", "up") == 0


def _scaled(bits, k):
    """The SI output ``bits`` as the scaled system must publish it."""
    if isinstance(bits, list):
        return [_scaled(item, k) for item in bits]
    return math.ldexp(float.fromhex(bits), k).hex() if isinstance(bits, str) and k else bits


def test_every_output_scales_with_its_unit():
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    children = {system: subprocess.Popen([sys.executable, __file__, system], cwd=ROOT, env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for system in SYSTEMS}
    outputs = {}
    for system, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr[-2000:]
        outputs[system] = json.loads(stdout)
    si = outputs.pop("si")
    assert BINDERS <= set(si["rebound"])
    for system, output in outputs.items():
        assert output.keys() == si.keys()
        wrong = [f"{case} {column} [{unit}]" for case in si if case != "rebound"
                 for column, (unit, bits) in si[case].items()
                 if output[case][column][1] != _scaled(bits, exponent(unit, system))]
        assert not wrong, f"{len(wrong)} outputs do not scale with their unit in {system!r}: " \
            + ", ".join(wrong)


if __name__ == "__main__":
    print(json.dumps(evaluate(sys.argv[1])))
