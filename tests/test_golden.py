"""Seeded ``simulate --deterministic`` records, compared byte for byte.

Each case reruns the CLI in process at ``--workers`` 1 and 2 and must
reproduce the stdout recorded in ``tests/data/golden/<case>.json``.  The
cases cover every sampling path: Poisson inversion at lam 0.5, 10 and
1e3 with T = 0, Poisson plus 4.2 K thermal noise, the Gaussian fallback
reached both through lam > 1e7 and through ``--fano``, and partial last
blocks (100 000, 70 000 and 65 537 trials are not multiples of the
65 536-trial block).  The lam = 9e6 case has a 54 025-entry CDF table
against 65 536 guide buckets; 1 609 of those buckets span more than one
entry, so 1 671 of its 70 000 counts still go through the guide table's
binary-search fallback.  Kernel work must leave these bits alone.
Regenerate the records only for a deliberate, documented change to the
sampled numbers:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from chargelimit import cli

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: lam = I / (2 e df); at df = 5e4 Hz one electron per window is 1.602176634e-14 A.
_DF = ["--df", "5e4Hz"]
_THERMAL = ["--temperature", "4.2K", "--conductance", "2e-12S"]
CASES = {
    "lam0p5": ["--current", "8.01088317e-15A", *_DF, "--trials", "100000", "--seed", "1"],
    "lam10": ["--current", "1.602176634e-13A", *_DF, "--trials", "100000", "--seed", "2"],
    "lam1e3": ["--current", "1.602176634e-11A", *_DF, "--trials", "100000", "--seed", "3"],
    "lam10_thermal": [
        "--current", "1.602176634e-13A", *_DF, "--trials", "100000", "--seed", "4",
        *_THERMAL,
    ],
    "lam1e3_thermal": [
        "--current", "1.602176634e-11A", *_DF, "--trials", "100000", "--seed", "5",
        "--temperature", "4.2K", "--conductance", "2e-10S",
    ],
    "gaussian_lam1e8": [
        "--current", "1.602176634e-6A", *_DF, "--trials", "100000", "--seed", "6",
    ],
    "gaussian_fano_thermal": [
        "--current", "1.602176634e-13A", *_DF, "--trials", "100000", "--seed", "7",
        "--fano", "0.5", *_THERMAL,
    ],
    "lam9e6_partial": [
        "--current", "1.4419589706e-7A", *_DF, "--trials", "70000", "--seed", "9",
    ],
    "partial_65537_thermal": [
        "--current", "1.602176634e-13A", *_DF, "--trials", "65537", "--seed", "8",
        *_THERMAL,
    ],
}


def simulate_stdout(case: str, workers: int) -> str:
    argv = ["simulate", *CASES[case], "--deterministic", "--workers", str(workers)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_golden_record(case, workers):
    expected = (GOLDEN_DIR / f"{case}.json").read_text()
    assert simulate_stdout(case, workers) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / f"{name}.json").write_text(simulate_stdout(name, 1))
        print(f"wrote {name}.json")
