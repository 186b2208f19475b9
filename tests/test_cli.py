"""CLI behavior: parsing, envelopes, CSV contract, exit codes, determinism.

Most checks drive ``main()`` in-process for speed; the byte-for-byte
reproducibility checks and an entry-point smoke test shell out to
``python -m chargelimit`` so the real process boundary is covered.
"""

import json
import math
import os
import subprocess
import sys

import pytest

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


def test_sweep_json_format(capsys):
    record = run_json(
        capsys,
        "sweep", "--device", "wire", "--axis", "R", "--start", "1nm",
        "--stop", "10nm", "--points", "3", "--format", "json", "--deterministic",
    )
    assert record["outputs"]["header"] == list(SWEEP_HEADER)
    assert len(record["outputs"]["rows"]) == 3
    assert record["inputs"]["device"] == "wire"


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
    with pytest.raises(SystemExit) as err:
        main(["material", "show"])
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special is most of a CLI call's import time and only the
    # Poisson CDF table needs it, so it is imported there, on first use.
    code = "import chargelimit.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
