"""CLI behavior: parsing, envelopes, CSV contract, exit codes, determinism.

Most checks drive ``main()`` in-process for speed; the byte-for-byte
reproducibility checks and an entry-point smoke test shell out to
``python -m chargelimit`` so the real process boundary is covered.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import chargelimit
from chargelimit import SimConfig, cli, simulate_detection
from chargelimit.cli import SWEEP_HEADER, main

GAAS_F_UNITY = 1.3245562846887381e12
VACUUM_F_UNITY = 3289841960224669.5  # pinned-constants chain value
GAAS_BOHR = 1.0188635851773886e-8


def run_main(*args, monkeypatch=None):
    """In-process CLI invocation; returns (exit_code, argv-ready args)."""
    return main(list(args))


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("CHARGE_LIMIT_MATERIALS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "chargelimit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_json(capsys, *args):
    code = main(list(args))
    assert code == 0
    return json.loads(capsys.readouterr().out)


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(autouse=True)
def _no_user_materials(monkeypatch):
    monkeypatch.delenv("CHARGE_LIMIT_MATERIALS", raising=False)


# ---------------------------------------------------------------- envelope


def test_constants_json_envelope(capsys):
    record = run_json(capsys, "constants", "--json")
    assert list(record) == ["command", "inputs", "outputs", "flags", "timestamp"]
    assert record["command"] == "constants"
    assert record["outputs"]["e_C"] == 1.602176634e-19
    assert record["outputs"]["h_Js"] == 6.62607015e-34
    assert rel(record["outputs"]["rydberg_frequency_Hz"], 3.2898419602508e15) < 1e-8


def test_deterministic_drops_timestamp(capsys):
    record = run_json(capsys, "constants", "--json", "--deterministic")
    assert list(record) == ["command", "inputs", "outputs", "flags"]


def test_constants_human(capsys):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "pinned constants" in out
    assert "rydberg frequency" in out


# ------------------------------------------------------------------- wire


def test_wire_defaults_to_vacuum_closed_form(capsys):
    record = run_json(capsys, "wire", "--json", "--deterministic")
    out = record["outputs"]
    assert rel(out["f_unity_hz"], VACUUM_F_UNITY) < 1e-12
    assert rel(out["sensitivity_e_per_rthz"], 1.744e-8) < 1e-3
    assert record["inputs"]["material"] == "vacuum"
    assert record["flags"] == []


def test_wire_gaas_band(capsys):
    record = run_json(capsys, "wire", "--material", "gaas", "--json")
    out = record["outputs"]
    assert 0.5e12 <= out["f_unity_hz"] <= 2.0e12
    assert 5e-7 <= out["sensitivity_e_per_rthz"] <= 2e-6


def test_wire_radius_triggers_pipeline_and_cancels(capsys):
    closed = run_json(capsys, "wire", "--material", "gaas", "--json")
    piped = run_json(capsys, "wire", "--material", "gaas", "--radius", "20nm", "--json")
    assert rel(piped["outputs"]["snr"], closed["outputs"]["snr"]) < 1e-12
    assert rel(piped["outputs"]["n_modes"], 20e-9 / GAAS_BOHR) < 1e-9


def test_wire_custom_material_pair(capsys):
    named = run_json(capsys, "wire", "--material", "gaas", "--json")
    custom = run_json(
        capsys, "wire", "--mass-ratio", "0.067", "--epsr", "12.9", "--json"
    )
    assert custom["outputs"]["f_unity_hz"] == named["outputs"]["f_unity_hz"]


def test_wire_material_and_custom_conflict():
    with pytest.raises(SystemExit) as err:
        main(["wire", "--material", "gaas", "--mass-ratio", "0.067", "--epsr", "12.9"])
    assert err.value.code == 2


def test_wire_mass_ratio_without_epsr():
    with pytest.raises(SystemExit) as err:
        main(["wire", "--mass-ratio", "0.067"])
    assert err.value.code == 2


# -------------------------------------------------------------- qpc / set


def test_qpc_requires_width():
    with pytest.raises(SystemExit) as err:
        main(["qpc", "--material", "gaas"])
    assert err.value.code == 2


def test_qpc_output(capsys):
    record = run_json(
        capsys, "qpc", "--material", "gaas", "--width", "20nm", "--json"
    )
    assert rel(record["outputs"]["f_unity_hz"], 1.017802486462739e13) < 1e-12
    assert record["outputs"]["n_modes"] == 2.0


def test_set_output(capsys):
    record = run_json(
        capsys, "set", "--radius", "50nm", "--epsr", "12.9", "--json"
    )
    out = record["outputs"]
    assert rel(out["f_unity_hz"], 423971175123.34814) < 1e-12
    assert rel(out["sensitivity_e_per_rthz"], 1.5357899969311475e-6) < 1e-12
    assert "capacitance_f" in out and "blockade_voltage_v" in out


def test_set_defaults_to_vacuum_dielectric(capsys):
    explicit = run_json(capsys, "set", "--radius", "50nm", "--epsr", "1", "--json")
    implicit = run_json(capsys, "set", "--radius", "50nm", "--json")
    assert implicit["outputs"]["f_unity_hz"] == explicit["outputs"]["f_unity_hz"]


# ------------------------------------------------------------ unit grammar


def test_unit_suffix_equivalence(capsys):
    a = run_json(capsys, "wire", "--df", "1MHz", "--json", "--deterministic")
    b = run_json(capsys, "wire", "--df", "1e6Hz", "--json", "--deterministic")
    c = run_json(capsys, "wire", "--df", "1000000", "--json", "--deterministic")
    assert a == b == c
    assert a["inputs"]["bandwidth_hz"] == 1e6


def test_unit_suffix_case_insensitive(capsys):
    a = run_json(capsys, "set", "--radius", "50nm", "--json", "--deterministic")
    b = run_json(capsys, "set", "--radius", "50NM", "--json", "--deterministic")
    assert a == b


def test_length_and_voltage_units(capsys):
    nm = run_json(capsys, "set", "--radius", "50nm", "--json", "--deterministic")
    um = run_json(capsys, "set", "--radius", "0.05um", "--json", "--deterministic")
    assert rel(
        nm["outputs"]["f_unity_hz"], um["outputs"]["f_unity_hz"]
    ) < 1e-12
    mv = run_json(
        capsys, "set", "--radius", "50nm", "--bias", "1mV", "--json", "--deterministic"
    )
    assert mv["inputs"]["bias_v"] == 1e-3


def test_unknown_unit_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["wire", "--df", "1parsec"])
    assert err.value.code == 2


def test_negative_bandwidth_is_domain_error(capsys):
    # "--df=-1Hz" parses fine as a number; rejecting it is physics, not syntax.
    code = main(["wire", "--df=-1Hz"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["qpc", "--width", "1e-300m"], ["width"]),
        (["sweep", "--device", "qpc", "--axis", "W", "--start", "1e-300m",
          "--stop", "1e-299m", "--points", "3"], ["width", "W = 1e-300"]),
        (["sweep", "--device", "wire", "--axis", "R", "--start", "1e200m",
          "--stop", "1e201m", "--points", "2"], ["radius", "R = 1e+200"]),
        (["sweep", "--device", "wire", "--axis", "R", "--start", "1e-200m",
          "--stop", "1e-199m", "--points", "2"], ["radius", "R = 1e-200"]),
        (["sweep", "--device", "wire", "--axis", "m_star_ratio", "--start", "1",
          "--stop", "1e300", "--points", "2"], ["mass_ratio", "m_star_ratio = 1e+300"]),
        (["simulate", "--current", "1e-13A", "--df", "1e-300Hz", "--trials", "10",
          "--seed", "1"], ["bandwidth"]),
        (["wire", "--mass-ratio", "1e-300", "--epsr", "1e300"], ["epsilon_r"]),
        (["set", "--radius", "1e300m", "--df", "1e-300Hz"], ["f_unity"]),
        (["wire", "--radius", "1e-160m"], ["radius"]),
        # Gaussian path, lam ~ 3e218 and 3e304: sqrt(lam) is below lam's float spacing.
        (["simulate", "--current", "1e200A", "--df", "1Hz", "--trials", "1000",
          "--seed", "1"], ["on_current", "bandwidth", "shot noise"]),
        (["simulate", "--current", "1e-4A", "--df", "1e-290Hz", "--trials", "70000",
          "--seed", "1", "--workers", "2"], ["on_current", "bandwidth", "shot noise"]),
        # dq**4 overflows in the block sums; then only the stderr's m2**3 does.
        (["simulate", "--current", "1e-7A", "--df", "1Hz", "--fano", "1e200",
          "--trials", "70000", "--seed", "1", "--workers", "2"], ["on_current", "fano"]),
        (["simulate", "--current", "1e-7A", "--df", "1Hz", "--fano", "1e95",
          "--trials", "1000", "--seed", "1"], ["on_current", "fano"]),
        (["simulate", "--current", "1e-13A", "--df", "5e4Hz", "--temperature", "1e300K",
          "--conductance", "1e300S", "--trials", "100", "--seed", "1"], ["temperature"]),
        # Every count is 0 at lam ~ 6e-47 and the thermal charge spreads ~1e-105
        # electrons: m2 ~ 1e-210 and m2**3 underflows.
        (["simulate", "--current", "1e-60A", "--df", "5e4Hz", "--temperature", "1e-200K",
          "--conductance", "1e-12S", "--trials", "100", "--seed", "1"],
         ["temperature", "conductance"]),
        # Closed form: snr**2 (or modulation**2) below the normal float range.
        (["qpc", "--width", "6.64002e+63", "--df", "1.94895e+239"], ["bandwidth"]),
        (["wire", "--df", "1.81292e+208", "--mass-ratio", "5.29402e-17",
          "--epsr", "4.37305e+84", "--modulation", "0.598"], ["bandwidth"]),
        (["set", "--radius", "9.94471e+107", "--df", "3.9895e+117", "--epsr", "4.3173e+98"],
         ["bandwidth"]),
        (["set", "--radius", "1.0m", "--modulation", "1e-156"], ["modulation"]),
        # snr = sqrt(f_unity/df) overflows while f_unity stays finite: the bandwidth is named.
        (["wire", "--df", "1e-320Hz"], ["bandwidth", "got 1e-320"]),
        (["qpc", "--width", "20nm", "--df", "1e-320Hz"], ["bandwidth", "got 1e-320"]),
        (["set", "--radius", "50nm", "--df", "1e-320Hz"], ["bandwidth", "got 1e-320"]),
        # Only T == 0 takes the closed form; a negative one reaches the checks.
        (["wire", "--temperature=-1K"], ["temperature"]),
        (["qpc", "--width", "20nm", "--temperature=-1K"], ["temperature"]),
        (["set", "--radius", "50nm", "--temperature=-1K"], ["temperature"]),
        # The temperature, not the bandwidth, puts the Johnson term out of range.
        (["qpc", "--width", "20nm", "--material", "gaas", "--temperature", "1e300K",
          "--df", "1e100Hz"], ["temperature"]),
    ],
)
def test_out_of_float_range_is_one_error_line(capsys, argv, names):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for name in names:
        assert name in lines[0]


def test_a_sweep_too_large_for_memory_is_one_error_line():
    # The child's address space is capped, so the axis allocation fails
    # before any memory is committed.
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
             "from chargelimit.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("CHARGE_LIMIT_MATERIALS", None)
    proc = subprocess.run(
        [sys.executable, "-c", child, "sweep", "--device", "wire", "--axis", "R",
         "--start", "1nm", "--stop", "1um", "--points", "1000000000000"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["wire", "--bias", "100V", "--json"], 0),
        (["wire", "--df", "8.7533e+155", "--bias", "1e308", "--temperature", "5.36821e+280"], 1),
    ],
)
def test_bias_above_optimal_is_reported_only_through_the_flag(argv, code):
    proc = run_cli(*argv)
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["flags"] == ["bias-above-optimal"]
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


# ------------------------------------------------------------------ sweep


def sweep_lines(capsys, *args):
    assert main(["sweep", *args]) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_sweep_csv_header_and_radius_cancellation(capsys):
    lines = sweep_lines(
        capsys,
        "--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "1um",
        "--points", "31", "--spacing", "log", "--material", "gaas", "--df", "1MHz",
    )
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 32
    rows = [line.split(",") for line in lines[1:]]
    values = [float(row[1]) for row in rows]
    snrs = [float(row[2]) for row in rows]
    assert rel(values[0], 1e-9) < 1e-12 and rel(values[-1], 1e-6) < 1e-12
    assert (max(snrs) - min(snrs)) / min(snrs) < 1e-12
    assert all(row[0] == "R" for row in rows)


def test_sweep_csv_round_trips_byte_identical(capsys):
    lines = sweep_lines(
        capsys,
        "--device", "set", "--axis", "R_island", "--start", "10nm", "--stop", "1um",
        "--points", "7", "--spacing", "log", "--epsr", "12.9",
    )
    for line in lines[1:]:
        cells = line.split(",")
        rebuilt = []
        for name, cell in zip(SWEEP_HEADER, cells):
            if cell == "" or name in ("axis", "flags"):
                rebuilt.append(cell)
            else:
                rebuilt.append(repr(float(cell)))
        assert ",".join(rebuilt) == line


def _plain_cells(values, empty):
    return [repr(v) if math.isfinite(v) else empty for v in values]


_DISTINCT = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=65,
                     max_size=120, unique=True)
_FEW = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, -1.7976931348623157e308,
                        math.inf, -math.inf, math.nan])


@given(values=st.one_of(
    st.lists(st.floats(), min_size=1, max_size=80),  # length 1 and < 64, mostly distinct
    st.lists(_FEW, min_size=1, max_size=200),  # repeats from the first cells on
    _DISTINCT,  # all distinct past 64 cells
    st.tuples(_DISTINCT, st.lists(_FEW, max_size=40)).map(lambda t: t[0] + t[0][:3] + t[1]),
), empty=st.sampled_from(["", "null"]))
@example(values=[0.0, -0.0, 0.0, -0.0], empty="")
@example(values=[-0.0], empty="null")
@example(values=[*map(float, range(70)), 3.0, -0.0, 0.0], empty="")
@example(values=[math.inf, math.nan, 1.0, math.nan, -math.inf, 1.0], empty="null")
def test_number_cells_equal_plain_repr(values, empty):
    """Formatting each distinct cell once gives the bytes of one repr per
    cell: -0.0 keeps its sign next to 0.0, a first repeat after cell 64
    changes nothing, and non-finite cells are empty or null."""
    assert cli._number_cells(np.array(values, dtype=np.float64), empty) == _plain_cells(values, empty)


def test_number_cells_formats_each_distinct_value_once(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counted, raising=False)
    values = [0.5, -0.0, 0.0, math.inf, 2.0e-9] * 400
    assert cli._number_cells(np.array(values), "") == _plain_cells(values, "")
    assert len(calls) == 4  # 0.5, -0.0, 0.0 and 2e-9; inf is not formatted


def test_sweep_qpc_width_scaling(capsys):
    lines = sweep_lines(
        capsys,
        "--device", "qpc", "--axis", "W", "--start", "5nm", "--stop", "80nm",
        "--points", "9", "--spacing", "log", "--material", "gaas",
    )
    rows = [line.split(",") for line in lines[1:]]
    products = [float(r[1]) * float(r[2]) for r in rows]  # snr ~ 1/W
    assert (max(products) - min(products)) / min(products) < 1e-12


def test_sweep_set_radius_scaling(capsys):
    lines = sweep_lines(
        capsys,
        "--device", "set", "--axis", "R_island", "--start", "10nm", "--stop", "640nm",
        "--points", "7", "--spacing", "log", "--epsr", "12.9",
    )
    rows = [line.split(",") for line in lines[1:]]
    products = [math.sqrt(float(r[1])) * float(r[2]) for r in rows]  # snr ~ 1/sqrt(R)
    assert (max(products) - min(products)) / min(products) < 1e-12


def test_sweep_bandwidth_axis(capsys):
    lines = sweep_lines(
        capsys,
        "--device", "set", "--axis", "delta_f", "--start", "1Hz", "--stop", "1GHz",
        "--points", "10", "--spacing", "log", "--radius", "50nm", "--epsr", "12.9",
    )
    rows = [line.split(",") for line in lines[1:]]
    f_unity = [float(row[3]) for row in rows]
    # f_unity is bandwidth-independent up to last-ulp rounding of snr^2 * df.
    assert (max(f_unity) - min(f_unity)) / min(f_unity) < 1e-12
    products = [float(r[2]) * math.sqrt(float(r[1])) for r in rows]
    assert (max(products) - min(products)) / min(products) < 1e-12


def test_sweep_axis_device_mismatch():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--device", "set", "--axis", "W", "--start", "1nm", "--stop", "2nm"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "device, axis, flag",
    [
        ("set", "R_island", ["--material", "gaas"]),
        ("set", "R_island", ["--mass-ratio", "0.067"]),
        ("qpc", "W", ["--radius", "20nm"]),
        ("wire", "R", ["--width", "20nm"]),
        ("set", "R_island", ["--width", "20nm"]),
    ],
)
def test_sweep_rejects_flags_its_device_does_not_take(capsys, device, axis, flag):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--device", device, "--axis", axis, "--start", "5nm", "--stop", "50nm",
              "--points", "2", *flag])
    assert err.value.code == 2
    assert f"{flag[0]} does not apply to device '{device}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "device, axis, start, stop, flag",
    [
        ("wire", "delta_f", "1Hz", "1MHz", ["--material", "gaas", "--df", "5Hz"]),
        ("qpc", "delta_f", "1Hz", "1MHz", ["--width", "20nm", "--df", "1Hz"]),
        ("wire", "T", "0K", "4K", ["--material", "gaas", "--temperature", "300K"]),
        ("set", "T", "0K", "4K", ["--radius", "50nm", "--temperature", "0K"]),
        ("set", "epsilon_r", "1", "30", ["--radius", "50nm", "--epsr", "12.9"]),
        ("wire", "R", "1nm", "1um", ["--radius", "20nm"]),
        ("qpc", "W", "5nm", "50nm", ["--width", "20nm"]),
        ("set", "R_island", "5nm", "50nm", ["--radius", "20nm"]),
    ],
)
def test_sweep_rejects_a_flag_for_the_swept_parameter(capsys, device, axis, start, stop, flag):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--device", device, "--axis", axis, "--start", start, "--stop", stop,
              "--points", "2", *flag])
    assert err.value.code == 2
    assert f"{flag[-2]} does not apply to a sweep over {axis}" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["epsilon_r", "m_star_ratio"])
def test_sweep_keeps_the_custom_material_pair_on_its_own_axes(capsys, axis):
    # --mass-ratio/--epsr name the material whose m* or epsilon_r the axis varies
    code = main(["sweep", "--device", "wire", "--axis", axis, "--start", "1", "--stop", "2",
                 "--points", "2", "--mass-ratio", "0.067", "--epsr", "12.9"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_sweep_set_needs_radius_off_axis():
    with pytest.raises(SystemExit) as err:
        main(
            ["sweep", "--device", "set", "--axis", "delta_f",
             "--start", "1Hz", "--stop", "1MHz"]
        )
    assert err.value.code == 2


def test_sweep_start_must_precede_stop():
    with pytest.raises(SystemExit) as err:
        main(
            ["sweep", "--device", "wire", "--axis", "R",
             "--start", "1um", "--stop", "1nm"]
        )
    assert err.value.code == 2


def test_sweep_takes_its_format_from_format_not_json(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "2nm",
              "--points", "2", "--json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("argv, prog", [
    (["wire", "--foo"], "chargelimit wire"),
    (["--foo", "wire"], "chargelimit"),  # given before the command, to no subcommand
])
def test_unknown_flag_is_reported_by_its_subcommand(capsys, argv, prog):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: unrecognized arguments: --foo" in stderr


def test_sweep_json_format(capsys):
    record = run_json(
        capsys,
        "sweep", "--device", "wire", "--axis", "R", "--start", "1nm",
        "--stop", "10nm", "--points", "3", "--format", "json", "--deterministic",
    )
    assert record["outputs"]["header"] == list(SWEEP_HEADER)
    assert len(record["outputs"]["rows"]) == 3
    assert record["inputs"]["device"] == "wire"


def sweep_inputs(capsys, *args):
    return run_json(capsys, "sweep", *args, "--points", "2", "--format", "json",
                    "--deterministic")["inputs"]


@pytest.mark.parametrize("args, tail", [
    *((["--device", "qpc", "--axis", "delta_f", "--start", "1Hz", "--stop", "10Hz",
        "--material", "gaas", "--width", width], {"epsilon_r": 12.9, "width_m": value})
      for width, value in (("20nm", 2e-08), ("40nm", 4e-08))),
    (["--device", "wire", "--axis", "T", "--start", "0K", "--stop", "1K", "--material", "gaas"],
     {"epsilon_r": 12.9, "radius_m": None}),
    (["--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "2nm"],
     {"temperature_k": 0.0, "material": "vacuum", "mass_ratio": 1.0, "epsilon_r": 1.0}),
    (["--device", "qpc", "--axis", "W", "--start", "10nm", "--stop", "20nm"],
     {"mass_ratio": 1.0, "epsilon_r": 1.0}),
    (["--device", "set", "--axis", "delta_f", "--start", "1Hz", "--stop", "2Hz",
      "--radius", "5e-8m"], {"temperature_k": 0.0, "island_radius_m": 5e-08, "epsilon_r": 1.0}),
    (["--device", "set", "--axis", "R_island", "--start", "10nm", "--stop", "20nm",
      "--epsr", "12.9"], {"temperature_k": 0.0, "epsilon_r": 12.9}),
    (["--device", "set", "--axis", "epsilon_r", "--start", "1", "--stop", "2",
      "--radius", "5e-8m"], {"temperature_k": 0.0, "island_radius_m": 5e-08}),
])
def test_sweep_json_inputs_end_with_the_size_and_the_set_epsilon_r_unless_swept(
        capsys, args, tail):
    assert list(sweep_inputs(capsys, *args).items())[-len(tail):] == list(tail.items())


_SWEEP_KEYS = ["device", "axis", "start", "stop", "points", "spacing", "bandwidth_hz",
               "temperature_k"]
_CHANNEL_KEYS = [*_SWEEP_KEYS, "material", "mass_ratio", "epsilon_r"]


@pytest.mark.parametrize("args, keys, dropped", [
    (["wire", "delta_f", "1Hz", "2Hz"], [*_CHANNEL_KEYS, "radius_m"], "bandwidth_hz"),
    (["wire", "T", "0K", "1K"], [*_CHANNEL_KEYS, "radius_m"], "temperature_k"),
    (["wire", "epsilon_r", "1", "2", "--mass-ratio", "0.067", "--epsr", "12.9"],
     [*_CHANNEL_KEYS, "radius_m"], "epsilon_r"),
    (["wire", "m_star_ratio", "0.5", "1.5"], [*_CHANNEL_KEYS, "radius_m"], "mass_ratio"),
    (["wire", "R", "1nm", "2nm"], [*_CHANNEL_KEYS, "radius_m"], "radius_m"),
    (["qpc", "delta_f", "1Hz", "2Hz", "--width", "20nm"], [*_CHANNEL_KEYS, "width_m"],
     "bandwidth_hz"),
    (["qpc", "T", "0K", "1K", "--width", "20nm"], [*_CHANNEL_KEYS, "width_m"], "temperature_k"),
    (["qpc", "m_star_ratio", "0.5", "1.5", "--width", "20nm"], [*_CHANNEL_KEYS, "width_m"],
     "mass_ratio"),
    (["qpc", "W", "10nm", "20nm"], [*_CHANNEL_KEYS, "width_m"], "width_m"),
    (["set", "delta_f", "1Hz", "2Hz", "--radius", "50nm"],
     [*_SWEEP_KEYS, "island_radius_m", "epsilon_r"], "bandwidth_hz"),
    (["set", "T", "0K", "1K", "--radius", "50nm"],
     [*_SWEEP_KEYS, "island_radius_m", "epsilon_r"], "temperature_k"),
    (["set", "epsilon_r", "1", "2", "--radius", "50nm"],
     [*_SWEEP_KEYS, "island_radius_m", "epsilon_r"], "epsilon_r"),
    (["set", "R_island", "10nm", "20nm"], [*_SWEEP_KEYS, "island_radius_m", "epsilon_r"],
     "island_radius_m"),
])
def test_sweep_json_inputs_leave_out_what_the_axis_replaces(capsys, args, keys, dropped):
    device, axis, start, stop, *rest = args
    inputs = sweep_inputs(capsys, "--device", device, "--axis", axis, "--start", start,
                          "--stop", stop, *rest)
    assert list(inputs) == [key for key in keys if key != dropped]


_SWEEP_AXES = ["--points", "3", "--spacing", "log", "--start", "10nm", "--stop", "100nm"]


@pytest.mark.parametrize("argv, pipeline", [
    (["sweep", "--device", "wire", "--axis", "R", *_SWEEP_AXES], "wire_pipeline_snr"),
    (["sweep", "--device", "qpc", "--axis", "W", *_SWEEP_AXES], "qpc_pipeline_snr"),
    (["sweep", "--device", "set", "--axis", "R_island", *_SWEEP_AXES], "set_pipeline_snr"),
    (["wire", "--temperature", "1K"], "wire_pipeline_snr"),
    (["qpc", "--width", "20nm", "--temperature", "1K"], "qpc_pipeline_snr"),
    (["set", "--radius", "50nm", "--temperature", "1K"], "set_pipeline_snr"),
    (["wire"], None),
    (["qpc", "--width", "20nm"], None),
    (["set", "--radius", "50nm"], None),
])
def test_pipelines_are_called_through_the_cli_module(monkeypatch, capsys, argv, pipeline):
    """perfbench times the pipelines by wrapping these names on the cli
    module, so every call must look them up there: a sweep or a pipeline
    one-shot calls its own device's pipeline once, the closed form none."""
    calls = []
    for name in ("wire_pipeline_snr", "qpc_pipeline_snr", "set_pipeline_snr"):
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert main(argv) == 0
    assert calls == ([pipeline] if pipeline else [])


# --------------------------------------------------------------- material


def test_material_list(capsys):
    assert main(["material", "list"]) == 0
    out = capsys.readouterr().out
    assert "vacuum" in out and "gaas" in out and "builtin" in out


def test_material_show_json(capsys):
    record = run_json(capsys, "material", "show", "gaas", "--json")
    out = record["outputs"]
    assert out["mass_ratio"] == 0.067
    assert rel(out["rydberg_frequency_Hz"], GAAS_F_UNITY) < 1e-12
    assert rel(out["bohr_radius_m"], GAAS_BOHR) < 1e-9


def test_material_show_requires_name():
    """``material show`` needs a name, and ``material list`` takes none."""
    for argv in (["material", "show"], ["material", "list", "gaas"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_material_show_unknown_is_domain_error(capsys):
    assert main(["material", "show", "unobtainium"]) == 1
    assert "unknown material" in capsys.readouterr().err


def test_material_env_table(tmp_path, monkeypatch, capsys):
    table = tmp_path / "extra.tab"
    table.write_text("# user additions\nheavy 2.5 1.0\ngaas 0.1 10.0\n")
    monkeypatch.setenv("CHARGE_LIMIT_MATERIALS", str(table))
    record = run_json(capsys, "material", "list", "--json")
    rows = {row["name"]: row for row in record["outputs"]["materials"]}
    assert rows["heavy"]["source"] == "user"
    assert rows["gaas"]["source"] == "user"  # user entry overrides builtin
    assert rows["gaas"]["mass_ratio"] == 0.1
    assert rows["vacuum"]["source"] == "builtin"


def test_material_env_missing_file(monkeypatch, capsys):
    monkeypatch.setenv("CHARGE_LIMIT_MATERIALS", "/nonexistent/materials.tab")
    assert main(["material", "list"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["material", "list"], ["material", "show", "gaas"], ["wire"], ["qpc", "--width", "20nm"],
    ["sweep", "--device", "wire", "--axis", "T", "--start", "0K", "--stop", "1K"],
    ["sweep", "--device", "qpc", "--axis", "W", "--start", "10nm", "--stop", "20nm"],
])
def test_material_env_table_not_utf8_is_one_error_line(tmp_path, monkeypatch, argv):
    table = tmp_path / "binary.tab"
    table.write_bytes(b"\xff\xfe")
    monkeypatch.setenv("CHARGE_LIMIT_MATERIALS", str(table))
    code, out, err = _outcome(argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read materials table {table}: ")


def test_unknown_material_is_domain_error(capsys):
    assert main(["wire", "--material", "unobtainium"]) == 1
    assert "unknown material" in capsys.readouterr().err


# --------------------------------------------------------------- simulate


def test_simulate_envelope(capsys):
    record = run_json(
        capsys,
        "simulate", "--current", "1.602176634e-13", "--df", "5e4",
        "--trials", "5000", "--seed", "12345", "--deterministic",
    )
    assert list(record) == ["command", "inputs", "outputs", "flags", "generator", "seed"]
    assert record["generator"] == "philox4x64-seedseq-v1"
    assert record["seed"] == 12345
    out = record["outputs"]
    assert rel(out["analytic_snr"], math.sqrt(10.0)) < 1e-12
    assert out["within_3_sigma"] is True
    assert out["trials"] == 5000
    # Worker count is an execution detail, not a simulation input: it must
    # stay out of the envelope or workers 1 vs N could never be byte-equal.
    assert "workers" not in record["inputs"]
    assert record["flags"] == []


@pytest.mark.parametrize("current, fano", [("1.602176634e-13", "1"), ("1.602176634e-13", "0.5"),
                                           ("8.887889894067388e-58", "1")])
def test_simulate_outputs_are_the_outcome_record(capsys, current, fano):
    record = run_json(
        capsys,
        "simulate", "--current", current, "--df", "5e4", "--fano", fano,
        "--trials", "3000", "--seed", "77", "--json", "--deterministic",
    )
    outcome = simulate_detection(SimConfig(
        on_current=float(current), bandwidth=5e4, fano=float(fano), trials=3000, seed=77))
    assert record["outputs"] == outcome.as_dict()
    assert record["flags"] == outcome.flags()


def test_simulate_without_spread_is_flagged_not_scored(capsys):
    # lam ~ 4.5e-40: every one of the 122 counts is 0.  The moments are
    # taken about the mode floor(lam) = 0, so the variance is exactly 0
    # and the run carries a flag instead of a 3-sigma verdict.
    record = run_json(
        capsys,
        "simulate", "--current", "8.887889894067388e-58A", "--df", "6.167078737836253Hz",
        "--trials", "122", "--seed", "1", "--deterministic",
    )
    out = record["outputs"]
    assert out["empirical_snr"] == 0.0 and out["std_charge"] == 0.0
    assert out["n_sigma"] is None and out["within_3_sigma"] is None
    assert record["flags"] == ["zero-spread"]


def test_simulate_temperature_without_a_conductance_is_one_error_line(capsys):
    # Without a conductance the Johnson term would be 0 S, so 4.2 K would
    # be dropped silently.
    assert main(["simulate", "--current", "1.602176634e-13A", "--df", "5e4Hz", "--trials", "1000",
                 "--seed", "1", "--temperature", "4.2K", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a temperature above 0 K needs a conductance for its Johnson "
                            "noise, got 4.2\n")


def test_simulate_current_unit_suffix(capsys):
    a = run_json(
        capsys,
        "simulate", "--current", "1pA", "--df", "1kHz",
        "--trials", "1000", "--seed", "3", "--deterministic",
    )
    b = run_json(
        capsys,
        "simulate", "--current", "1e-12A", "--df", "1000Hz",
        "--trials", "1000", "--seed", "3", "--deterministic",
    )
    assert a == b


def test_simulate_gaussian_fallback_flag(capsys):
    record = run_json(
        capsys,
        "simulate", "--current", "1.602176634e-12", "--df", "5e4",
        "--trials", "2000", "--seed", "8", "--fano", "0.5", "--deterministic",
    )
    assert record["flags"] == ["gaussian-fallback"]
    assert record["outputs"]["gaussian_fallback"] is True


def test_simulate_trials_zero_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(
            ["simulate", "--current", "1pA", "--df", "1kHz",
             "--trials", "0", "--seed", "1"]
        )
    assert err.value.code == 2


def test_simulate_single_trial_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--current", "1pA", "--df", "1kHz", "--trials", "1", "--seed", "1"])
    assert err.value.code == 2
    assert "trials must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--trials", "ten", "trials must be an integer, got 'ten'"),
        ("--seed", "-1", "seed must be in [0, 2**64), got -1"),
        ("--workers", "0", "workers must be >= 1, got 0"),
    ],
)
def test_integer_flag_messages(capsys, flag, text, message):
    argv = {"--current": "1pA", "--df": "1kHz", "--trials": "10", "--seed": "1", flag: text}
    with pytest.raises(SystemExit):
        main(["simulate", *(item for pair in argv.items() for item in pair)])
    assert message in capsys.readouterr().err


def test_sweep_points_below_two_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--device", "wire", "--axis", "R", "--start", "1nm",
              "--stop", "1um", "--points", "1"])
    assert err.value.code == 2
    assert "points must be >= 2, got 1" in capsys.readouterr().err


def test_simulate_seed_overflow_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(
            ["simulate", "--current", "1pA", "--df", "1kHz",
             "--trials", "10", "--seed", str(2**64)]
        )
    assert err.value.code == 2


# ----------------------------------------------------------------- report


def test_report_human(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 4
    assert "FAIL" not in out


def test_report_json_targets(capsys):
    record = run_json(capsys, "report", "--json")
    rows = record["outputs"]["rows"]
    assert len(rows) == 4
    assert all(row["within_target"] for row in rows)


# ---------------------------------------------------------- process level


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_entry_point_smoke():
    proc = run_cli("constants", "--json", "--deterministic")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["outputs"]["e_C"] == 1.602176634e-19


_SCALAR_COMMANDS = (
    ["constants"],
    ["material", "list"],
    ["material", "show", "gaas"],
    ["wire", "--material", "gaas"],
    ["wire", "--material", "gaas", "--radius", "20nm", "--temperature", "4.2K"],
    ["qpc", "--width", "20nm", "--material", "gaas", "--bias", "5mV"],
    ["set", "--radius", "50nm", "--epsr", "12.9", "--modulation", "0.5"],
    ["report"],
)

_SIMULATE_COMMANDS = [
    ["simulate", "--current", "1nA", "--df", "1MHz", "--trials", "1000", "--seed", "1", *extra]
    for extra in ([], ["--temperature", "4.2K", "--conductance", "1e-5S", "--workers", "2"],
                  ["--fano", "0.5"])
]


_REPEATING_SWEEPS = [  # a wire's R sweep: 7 of its 12 array columns repeat
    ["sweep", "--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "1um",
     "--points", "200", "--spacing", "log", "--material", "gaas", "--format", fmt]
    for fmt in ("csv", "json")
]


def test_cli_import_leaves_scipy_unloaded():
    # No command imports scipy: the simulator builds its Poisson table
    # from ratios alone.  The scalar commands need no arrays at all: they
    # run, closed form and pipeline alike, on the standard library,
    # without numpy or the simulator.  No command imports dataclasses,
    # and the scalar ones not inspect either (numpy itself imports it).
    # A sweep formats a repeating column's distinct cells without numpy.ma.
    code = (
        "import contextlib, io, sys\n"
        "import chargelimit.cli as cli\n"
        f"for argv in {[*_SCALAR_COMMANDS, *([*a, '--json'] for a in _SCALAR_COMMANDS)]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "loaded = {'numpy', 'scipy', 'chargelimit.montecarlo', 'dataclasses', 'inspect'}\n"
        "loaded &= set(sys.modules)\n"
        "assert not loaded, loaded\n"
        f"for argv in {[*_SIMULATE_COMMANDS, *_REPEATING_SWEEPS]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "loaded = {'scipy', 'dataclasses', 'numpy.ma'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _outcome(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_REUSE_COMMANDS = (
    ["wire", "--radius", "20nm", "--bogus"],  # usage error, exit 2
    ["sweep", *_REPEATING_SWEEPS[0][1:6], "--stop", "1um", "--points", "5"],
    ["sweep", "--help"],
    ["wire", "--df=-1Hz"],  # ParameterError, exit 1
    ["sweep", "--device", "set", "--axis", "W", "--start", "1nm", "--stop", "2nm"],
    *([*argv, "--json", "--deterministic"] for argv in _SCALAR_COMMANDS),
    ["--help"],
    *([*argv, "--deterministic"] for argv in _SIMULATE_COMMANDS[:1]),
    *_SCALAR_COMMANDS,
    [*_REPEATING_SWEEPS[1], "--points", "7", "--deterministic"],
)


def test_main_reuses_one_parser_with_the_bytes_of_a_fresh_one(monkeypatch):
    """main builds its parser once per process; every call, whatever the
    calls before it did, gives what a freshly built parser gives."""
    monkeypatch.setenv("COLUMNS", "80")
    fresh = []
    for argv in _REUSE_COMMANDS:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    for _ in range(2):
        assert [_outcome(argv) for argv in _REUSE_COMMANDS] == fresh
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_package_import_leaves_numpy_unloaded_and_resolves_the_simulator():
    code = (
        "import sys\n"
        "import chargelimit\n"
        "assert 'numpy' not in sys.modules\n"
        "assert chargelimit.simulate_detection.__module__ == 'chargelimit.montecarlo'\n"
        "namespace = {}\n"
        "exec('from chargelimit import *', namespace)\n"
        "missing = set(chargelimit.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "assert namespace['SimConfig'] is sys.modules['chargelimit.montecarlo'].SimConfig\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_each_public_name_is_listed_in_one_module():
    from chargelimit import cli, constants, devices, kernels, materials, montecarlo, noise, rng

    modules = (constants, devices, materials, noise, montecarlo, kernels, rng, cli)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert set(chargelimit._SIMULATOR) <= set(montecarlo.__all__)
    assert set(chargelimit.__all__) <= {*listed, "ParameterError", "__version__"}


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chargelimit", "simulate", "--current",
             "1.602176634e-13A", "--df", "5e4Hz", "--trials", "1000", "--seed", "1",
             "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_simulate_byte_identical_across_runs_and_workers():
    args = (
        "simulate", "--current", "1.602176634e-13", "--df", "5e4",
        "--trials", "150000", "--seed", "20260823", "--deterministic",
    )
    first = run_cli(*args, "--workers", "1")
    second = run_cli(*args, "--workers", "1")
    threaded = run_cli(*args, "--workers", "3")
    assert first.returncode == second.returncode == threaded.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == threaded.stdout
    assert json.loads(first.stdout)["outputs"]["within_3_sigma"] is True
