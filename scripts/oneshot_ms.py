"""Wall time of one ``python -m chargelimit`` process per ``cli-oneshot`` command.

Starts each command REPEATS (15) times as a fresh interpreter,
round-robin over the commands so that a slow spell of the machine
spreads over all of them, and prints the best and the median wall time
in ms of each.  The commands are those of the ``cli-oneshot``
benchmark workload at fixed inputs; ``wire`` is the
``wire --json --deterministic`` call, and ROADMAP item 3 gates the
``sweep`` row's best time beyond the reference.
The round-robin also runs a reference process that imports only the
standard-library modules the CLI needs; the last two columns are each
command's best and median beyond the reference's, which is what
chargelimit itself costs and compares across machines and sessions
better than a raw time.  The first line says whether the processes
write bytecode: with ``PYTHONDONTWRITEBYTECODE`` set, every one
compiles the package from source.  Like the benchmark, it measures the
sources under ``--src`` (default: this checkout's ``src``) with one
BLAS thread.  Run from anywhere:

    python scripts/oneshot_ms.py [--src path/to/src]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 15  # the ROADMAP quotes each command's best-of-15
REFERENCE = "reference"
_STDLIB = "import argparse, json, re, os, math, warnings, itertools, contextlib, functools"

_SIMULATE = ["simulate", "--current", "1.602176634e-13A", "--df", "5e4Hz",
             "--trials", "100000", "--seed", "101", "--deterministic", "--workers"]
COMMANDS = {
    "constants": ["constants", "--json"],
    "material": ["material", "show", "gaas", "--json"],
    "wire": ["wire", "--json", "--deterministic"],
    "qpc": ["qpc", "--width", "20nm", "--material", "gaas", "--df", "1MHz", "--json"],
    "set": ["set", "--radius", "50nm", "--epsr", "12.9", "--df", "1MHz", "--json"],
    "report": ["report", "--json"],
    "sweep": ["sweep", "--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "1um",
              "--points", "31", "--spacing", "log", "--material", "gaas", "--df", "1MHz",
              "--deterministic"],
    "simulate w1": [*_SIMULATE, "1"],
    "simulate w2": [*_SIMULATE, "2"],
}


def table(times: dict[str, list[float]]) -> list[str]:
    """One line per command: best and median ms, then both beyond the
    reference's best and median."""
    ref_best, ref_median = min(times[REFERENCE]), statistics.median(times[REFERENCE])
    lines = [f"{'command':<12} {'best ms':>8} {'median ms':>10} {'best-ref':>9} {'median-ref':>11}"]
    for name, values in times.items():
        best, median = min(values), statistics.median(values)
        lines.append(f"{name:<12} {best:>8.1f} {median:>10.1f} {best - ref_best:>9.1f} "
                     f"{median - ref_median:>11.1f}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding chargelimit")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve()),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    commands = {REFERENCE: ["-c", _STDLIB],
                **{name: ["-m", "chargelimit", *argv] for name, argv in COMMANDS.items()}}
    times: dict[str, list[float]] = {name: [] for name in commands}
    for _ in range(REPEATS):
        for name, argv in commands.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            times[name].append((time.perf_counter() - start) * 1e3)
            if done.returncode != 0:
                sys.exit(f"{name}: exit {done.returncode}: {done.stderr.decode().strip()}")
    no_bytecode = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
        env=env, capture_output=True, text=True).stdout.strip() == "True"
    written = "not written (each process compiles from source)" if no_bytecode else "written"
    print(f"bytecode: {written}; {REPEATS} processes each; {REFERENCE}: python -c {_STDLIB!r}")
    print("\n".join(table(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
