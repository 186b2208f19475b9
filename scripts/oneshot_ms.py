"""Wall time of one ``python -m chargelimit`` process per ``cli-oneshot`` command.

Starts each command REPEATS (15) times as a fresh interpreter,
round-robin over the commands so that a slow spell of the machine
spreads over all of them, and prints the best and the median wall time
in ms of each.  The commands are those of the ``cli-oneshot``
benchmark workload at fixed inputs; ``wire`` is the
``wire --json --deterministic`` call that ROADMAP's one-shot gate names.
Like the benchmark, it measures the sources under ``--src`` (default:
this checkout's ``src``) with one BLAS thread.  Run from anywhere:

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
REPEATS = 15  # ROADMAP's one-shot gate is a best-of-15

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding chargelimit")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve()),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    times: dict[str, list[float]] = {name: [] for name in COMMANDS}
    for _ in range(REPEATS):
        for name, argv in COMMANDS.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "chargelimit", *argv], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            times[name].append((time.perf_counter() - start) * 1e3)
            if done.returncode != 0:
                sys.exit(f"{name}: exit {done.returncode}: {done.stderr.decode().strip()}")
    print(f"{'command':<12} {'best ms':>8} {'median ms':>10}   ({REPEATS} processes each)")
    for name, values in times.items():
        print(f"{name:<12} {min(values):>8.1f} {statistics.median(values):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
