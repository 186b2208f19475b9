"""One workload set-up in a fresh interpreter, for ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [--tiny]

Imports the package, builds the workload's inputs and runs its warm-up,
exactly as ``run.py`` does before its first timed operation, then prints
``ready <CLOCK_MONOTONIC seconds>``; the caller subtracts the time it
started this process.
"""

import os
import sys
import time

import env


def main(argv: list[str]) -> None:
    env.prepare()
    import workloads

    workloads.make(argv[0], int(argv[1]), "--tiny" in argv).warm_up()
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    os._exit(0)  # skip interpreter teardown; nothing is left to flush


if __name__ == "__main__":
    main(sys.argv[1:])
