"""Recorded CLI outputs, compared by sha256 of stdout.

Every valid device x axis pair is swept in CSV and in JSON and must
reproduce the digest recorded in ``tests/data/sweep/digests.json``.  The
cases use 2 000-point log axes, T axes that start at 0 K, and an
``m_star_ratio`` axis that passes exactly through 1.0 in vacuum (the
degenerate case of the effective scales).  The one-shot commands
(``wire``, ``qpc``, ``set`` on the closed form and on each pipeline
trigger, ``report`` and ``constants``) are recorded in human form and
in ``--json --deterministic`` form in the same file, and so are
``material list`` and ``material show`` (with and without a user table
in ``CHARGE_LIMIT_MATERIALS``) and the ``--help`` text of the top level
and of every subcommand at ``COLUMNS=80`` (as Python 3.11's argparse
formats it).  The one-shot and material commands are checked a second
time in one fresh interpreter, the only place where they run without
numpy loaded.  Evaluation or formatting work must leave these bytes alone.  Regenerate the digests only for a
deliberate, documented change to the published numbers:

    PYTHONPATH=src python tests/test_sweep_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chargelimit import cli

DIGESTS = Path(__file__).parent / "data" / "sweep" / "digests.json"

_LOG = ["--points", "2000", "--spacing", "log"]
_LINEAR = ["--points", "2000", "--spacing", "linear"]
_BANDWIDTHS = ["--start", "1Hz", "--stop", "1THz", *_LOG]
_TEMPERATURES = ["--start", "0K", "--stop", "300K", *_LINEAR]
CASES = {
    "wire_R": ["wire", "R", "--start", "0.5nm", "--stop", "1um", *_LOG,
               "--material", "gaas", "--df", "1MHz"],
    "wire_R_thermal": ["wire", "R", "--start", "0.5nm", "--stop", "1um", *_LOG,
                       "--material", "gaas", "--temperature", "4.2K"],
    "wire_delta_f": ["wire", "delta_f", *_BANDWIDTHS, "--material", "gaas",
                     "--radius", "20nm", "--temperature", "4.2K"],
    "wire_epsilon_r": ["wire", "epsilon_r", "--start", "1", "--stop", "30", *_LINEAR,
                       "--mass-ratio", "0.067", "--epsr", "12.9"],
    "wire_m_star_ratio": ["wire", "m_star_ratio", "--start", "0.5", "--stop", "1.5",
                          "--points", "2001", "--material", "vacuum"],
    "wire_m_star_ratio_radius": ["wire", "m_star_ratio", "--start", "0.01", "--stop", "1",
                                 *_LOG, "--material", "vacuum", "--radius", "20nm",
                                 "--temperature", "1K"],
    "wire_T": ["wire", "T", *_TEMPERATURES, "--material", "gaas", "--radius", "20nm",
               "--df", "1kHz"],
    "qpc_W": ["qpc", "W", "--start", "5nm", "--stop", "200nm", *_LOG,
              "--material", "gaas", "--df", "1GHz"],
    "qpc_delta_f": ["qpc", "delta_f", *_BANDWIDTHS, "--material", "gaas",
                    "--width", "20nm", "--temperature", "1K"],
    "qpc_m_star_ratio": ["qpc", "m_star_ratio", "--start", "0.01", "--stop", "1", *_LOG,
                         "--material", "vacuum", "--width", "20nm"],
    "qpc_T": ["qpc", "T", *_TEMPERATURES, "--material", "gaas", "--width", "20nm"],
    "set_R_island": ["set", "R_island", "--start", "5nm", "--stop", "500nm", *_LOG,
                     "--epsr", "12.9", "--df", "1MHz"],
    "set_delta_f": ["set", "delta_f", *_BANDWIDTHS, "--radius", "50nm", "--epsr", "12.9",
                    "--temperature", "0.1K"],
    "set_epsilon_r": ["set", "epsilon_r", "--start", "1", "--stop", "30", *_LINEAR,
                      "--radius", "50nm"],
    "set_T": ["set", "T", *_TEMPERATURES, "--radius", "50nm", "--epsr", "12.9"],
}
FORMATS = ("csv", "json")

#: The closed form, and each flag that sends a one-shot command to the pipeline.
ONE_SHOT = {
    "wire_closed": ["wire", "--material", "gaas", "--df", "1MHz"],
    "wire_closed_defaults": ["wire"],
    "wire_closed_negative_zero_temperature": ["wire", "--material", "gaas", "--temperature=-0K"],
    "wire_radius": ["wire", "--material", "gaas", "--radius", "20nm", "--df", "1MHz"],
    "wire_bias": ["wire", "--material", "gaas", "--bias", "1mV"],
    "wire_bias_above_optimal": ["wire", "--material", "gaas", "--radius", "20nm",
                                "--bias", "1V"],
    "wire_temperature": ["wire", "--mass-ratio", "0.067", "--epsr", "12.9",
                         "--temperature", "4.2K", "--df", "1kHz"],
    "wire_modulation": ["wire", "--material", "gaas", "--modulation", "0.3", "--df", "1GHz"],
    "wire_all_triggers": ["wire", "--material", "gaas", "--radius", "5nm", "--bias", "2mV",
                          "--temperature", "4.2K", "--modulation", "0.5"],
    "qpc_closed": ["qpc", "--width", "20nm", "--material", "gaas", "--df", "1GHz"],
    "qpc_bias": ["qpc", "--width", "20nm", "--material", "gaas", "--bias", "5mV"],
    "qpc_temperature": ["qpc", "--width", "50nm", "--material", "gaas",
                        "--temperature", "1K", "--df", "1MHz"],
    "qpc_modulation": ["qpc", "--width", "20nm", "--mass-ratio", "0.19", "--epsr", "11.7",
                       "--modulation", "0.5"],
    "set_closed": ["set", "--radius", "50nm", "--epsr", "12.9", "--df", "1MHz"],
    "set_closed_defaults": ["set", "--radius", "50nm"],
    "set_bias": ["set", "--radius", "50nm", "--epsr", "12.9", "--bias", "0.1mV"],
    "set_temperature": ["set", "--radius", "50nm", "--epsr", "12.9", "--temperature", "0.1K"],
    "set_modulation": ["set", "--radius", "20nm", "--modulation", "0.25", "--df", "1kHz"],
    "report": ["report"],
    "constants": ["constants"],
}
ONE_SHOT_FORMATS = ("human", "json")

#: The material table as built in.
MATERIAL = {
    "material_list": ["material", "list"],
    "material_show_gaas": ["material", "show", "gaas"],
    "material_show_GaAs-like": ["material", "show", "GaAs-like"],
    "material_show_vacuum": ["material", "show", "vacuum"],
}
#: The material table with USER_TABLE merged over it, so rows read ``user``.
USER_MATERIAL = {
    "material_list_user": ["material", "list"],
    "material_show_user": ["material", "show", "heavy"],
}
USER_TABLE = "# user additions\nheavy 2.5 1.0\ngaas 0.1 10.0\n"

#: ``--help`` of the top level ("top") and of every subcommand.
HELP = ("top", "constants", "material", "wire", "qpc", "set", "sweep", "simulate", "report")


def sweep_argv(case: str, fmt: str) -> list[str]:
    device, axis, *rest = CASES[case]
    return ["sweep", "--device", device, "--axis", axis, *rest,
            "--format", fmt, "--deterministic"]


def one_shot_argv(case: str, fmt: str) -> list[str]:
    argv = ONE_SHOT[case]
    return argv if fmt == "human" else [*argv, "--json", "--deterministic"]


def material_argv(case: str, fmt: str) -> list[str]:
    argv = {**MATERIAL, **USER_MATERIAL}[case]
    return argv if fmt == "human" else [*argv, "--json", "--deterministic"]


def help_argv(command: str) -> list[str]:
    return ["--help"] if command == "top" else [command, "--help"]


def user_table(directory: Path) -> dict[str, str]:
    """Write USER_TABLE into ``directory``; the environment that points at it."""
    path = Path(directory) / "user.tab"
    path.write_text(USER_TABLE)
    return {cli.MATERIALS_ENV: str(path)}


def digest(argv: list[str], env: dict[str, str] | None = None) -> str:
    """sha256 of the stdout of a successful ``cli.main(argv)``.

    It runs at ``COLUMNS=80``, so ``--help`` wraps the same everywhere,
    with no user material table unless ``env`` names one.
    """
    buffer = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(buffer):
        os.environ.pop(cli.MATERIALS_ENV, None)
        os.environ.update(COLUMNS="80", **(env or {}))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    assert code == 0
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def recorded_commands(directory: Path) -> dict[str, tuple[list[str], dict[str, str]]]:
    """Every recorded (argv, env) by its digest key, ``<case>.<format>`` or
    ``help.<command>``.

    The user material table is written into ``directory``.
    """
    commands = {f"{case}.{fmt}": (sweep_argv(case, fmt), {})
                for case in sorted(CASES) for fmt in FORMATS}
    commands.update((f"{case}.{fmt}", (one_shot_argv(case, fmt), {}))
                    for case in sorted(ONE_SHOT) for fmt in ONE_SHOT_FORMATS)
    commands.update((f"{case}.{fmt}", (material_argv(case, fmt), {}))
                    for case in sorted(MATERIAL) for fmt in ONE_SHOT_FORMATS)
    env = user_table(directory)
    commands.update((f"{case}.{fmt}", (material_argv(case, fmt), env))
                    for case in sorted(USER_MATERIAL) for fmt in ONE_SHOT_FORMATS)
    commands.update((f"help.{command}", (help_argv(command), {})) for command in HELP)
    return commands


def test_corpus_covers_every_valid_pair():
    pairs = {tuple(argv[:2]) for argv in CASES.values()}
    valid = {(device, axis) for axis, (_, devices) in cli.SWEEP_AXES.items()
             for device in devices}
    assert pairs == valid


def test_m_star_ratio_axis_passes_through_vacuum():
    argv = sweep_argv("wire_m_star_ratio", "csv")
    values = np.linspace(0.5, 1.5, int(argv[argv.index("--points") + 1]))
    assert 1.0 in values.tolist()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_recorded_digest(case, fmt):
    expected = json.loads(DIGESTS.read_text())[f"{case}.{fmt}"]
    assert digest(sweep_argv(case, fmt)) == expected


@pytest.mark.parametrize("fmt", ONE_SHOT_FORMATS)
@pytest.mark.parametrize("case", sorted(ONE_SHOT))
def test_one_shot_matches_recorded_digest(case, fmt):
    expected = json.loads(DIGESTS.read_text())[f"{case}.{fmt}"]
    assert digest(one_shot_argv(case, fmt)) == expected


@pytest.mark.parametrize("fmt", ONE_SHOT_FORMATS)
@pytest.mark.parametrize("case", sorted(MATERIAL) + sorted(USER_MATERIAL))
def test_material_matches_recorded_digest(case, fmt, tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"{case}.{fmt}"]
    env = user_table(tmp_path) if case in USER_MATERIAL else {}
    assert digest(material_argv(case, fmt), env) == expected


@pytest.mark.parametrize("command", HELP)
def test_help_matches_recorded_digest(command):
    expected = json.loads(DIGESTS.read_text())[f"help.{command}"]
    assert digest(help_argv(command)) == expected


#: Run in a fresh interpreter: reads {key: [argv, env]} from stdin and prints
#: "<key> <sha256 of stdout>" per command, and then fails if numpy got loaded.
_FRESH_INTERPRETER = """
import contextlib, hashlib, io, json, os, sys
from chargelimit import cli
for key, (argv, env) in json.loads(sys.stdin.read()).items():
    os.environ.pop(cli.MATERIALS_ENV, None)
    os.environ.update(env)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0, argv
    print(key, hashlib.sha256(buffer.getvalue().encode()).hexdigest())
assert "numpy" not in sys.modules, "a one-shot command imported numpy"
"""


def test_one_shot_digests_in_a_fresh_interpreter(tmp_path):
    # In this process numpy is loaded already, so only a fresh interpreter
    # runs the one-shot and material commands on their numpy-free route.
    commands = {key: command for key, command in recorded_commands(tmp_path).items()
                if command[0][0] != "sweep" and "--help" not in command[0]}
    env = {key: value for key, value in os.environ.items() if key != cli.MATERIALS_ENV}
    proc = subprocess.run([sys.executable, "-c", _FRESH_INTERPRETER], input=json.dumps(commands),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(DIGESTS.read_text())
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == {key: expected[key] for key in commands}
    assert len(got) == len(ONE_SHOT) * 2 + (len(MATERIAL) + len(USER_MATERIAL)) * 2


def test_recorded_commands_match_the_digest_file(tmp_path):
    assert sorted(recorded_commands(tmp_path)) == sorted(json.loads(DIGESTS.read_text()))


if __name__ == "__main__":
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        digests = {key: digest(argv, env)
                   for key, (argv, env) in recorded_commands(Path(directory)).items()}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
