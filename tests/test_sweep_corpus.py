"""Recorded ``sweep`` outputs, compared by sha256 of stdout.

Every valid device x axis pair is swept in CSV and in JSON and must
reproduce the digest recorded in ``tests/data/sweep/digests.json``.  The
cases use 2 000-point log axes, T axes that start at 0 K, and an
``m_star_ratio`` axis that passes exactly through 1.0 in vacuum (the
degenerate case of the effective scales).  Evaluation or formatting work
must leave these bytes alone.  Regenerate the digests only for a
deliberate, documented change to the published numbers:

    PYTHONPATH=src python tests/test_sweep_corpus.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

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


def sweep_argv(case: str, fmt: str) -> list[str]:
    device, axis, *rest = CASES[case]
    return ["sweep", "--device", device, "--axis", axis, *rest,
            "--format", fmt, "--deterministic"]


def sweep_stdout(case: str, fmt: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(sweep_argv(case, fmt)) == 0
    return buffer.getvalue()


def digest(case: str, fmt: str) -> str:
    return hashlib.sha256(sweep_stdout(case, fmt).encode()).hexdigest()


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
    assert digest(case, fmt) == expected


if __name__ == "__main__":
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    digests = {f"{case}.{fmt}": digest(case, fmt)
               for case in sorted(CASES) for fmt in FORMATS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
