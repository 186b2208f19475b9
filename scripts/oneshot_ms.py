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
write bytecode, and which ``chargelimit`` modules had fresh bytecode
before and after the runs: a process reads fresh bytecode even when it
writes none, and compiles from source every module that has none.
Like the benchmark, it measures the
sources under ``--src`` (default: this checkout's ``src``) with one
BLAS thread.  Run from anywhere:

    python scripts/oneshot_ms.py [--src path/to/src]
"""

import argparse
import importlib.util
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


def fresh_bytecode(package: Path) -> list[str]:
    """The modules of ``package`` whose cached bytecode for this
    interpreter is fresh, so that an import loads it instead of compiling
    the source: the ``.pyc`` header records the source's mtime and size,
    or, for hash-based bytecode, its hash or that it is not checked."""
    fresh = []
    for source in sorted(package.glob("*.py")):
        try:
            header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        except OSError:  # no bytecode
            continue
        if header[:4] != importlib.util.MAGIC_NUMBER:
            continue
        flags = int.from_bytes(header[4:8], "little")
        if flags & 1:  # hash-based
            stamp = importlib.util.source_hash(source.read_bytes())
        else:
            stat = source.stat()
            stamp = b"".join((value & 0xFFFFFFFF).to_bytes(4, "little")
                             for value in (int(stat.st_mtime), stat.st_size))
        if flags == 1 or header[8:16] == stamp:  # an unchecked hash is never compared
            fresh.append(source.stem)
    return fresh


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
    package = args.src.resolve() / "chargelimit"
    before = ", ".join(fresh_bytecode(package)) or "none"
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
    after = ", ".join(fresh_bytecode(package)) or "none"
    print(f"bytecode: {'not written' if no_bytecode else 'written'}; modules with fresh "
          f"bytecode before the runs: {before}; after them: {after}")
    print(f"{REPEATS} processes each; {REFERENCE}: python -c {_STDLIB!r}")
    print("\n".join(table(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
