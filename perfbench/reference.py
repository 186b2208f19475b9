"""Machine-speed references that in-process operation times are scaled by.

On a shared two-core machine the same code runs at very different speeds
from one minute to the next: while developing this benchmark the sweep
operations of consecutive runs took 61 ms and then 106 ms, and a state
lasted from seconds to minutes.  That is far more than the changes the
benchmark must resolve.  So each in-process operation is followed by a
short fixed task doing the same kind of work (pure Python for CLI sweeps,
numpy array arithmetic for the simulator), and its time is scaled by

    NOMINAL_S[kind] / median of the five nearest reference times

Over ten such runs the scaled sweep time stayed within 2 % while the raw
time ranged over 1.7x.  The tasks never touch chargelimit, so only
changes in the package move the scaled times; NOMINAL_S only fixes the
scale (about each task's time on an idle development machine) so that
scaled times still read as seconds.

Process start-up has no such reference: a small interpreter launched as
one slowed down far more than the CLI processes and set-ups next to it,
so ``cli-oneshot`` operations and ``setup_s`` stay unscaled.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

#: Nominal seconds of each reference task; they set the scale only.
NOMINAL_S = {"python": 0.0075, "numpy": 0.008}

#: Reference task paired with each kind of in-process operation.
FOR_OP = {"sweep": "python", "simulate": "numpy"}

_WINDOW = 5


def _python() -> None:
    rows = []
    x = 1.2345
    for i in range(3000):
        x = math.sqrt(x * 1.0001 + i)
        cells = dict.fromkeys(("a", "b", "c", "d"))
        cells["a"], cells["b"], cells["c"] = x, x * 2.0, i
        rows.append(",".join(repr(value) for value in cells.values()))
    "\n".join(rows)


@functools.cache
def _inputs():
    # numpy is imported here, not at module import: env.prepare() must
    # pin its threads first.
    import numpy as np

    uniforms = np.random.Generator(np.random.Philox(2024)).random(65536)
    return np, uniforms, np.cumsum(np.full(2048, 1.0 / 2048))


def _numpy() -> None:
    np, uniforms, table = _inputs()
    m, e = np.frexp(uniforms)
    r = 0.180625 - (m - 0.5) * (m - 0.5)
    s = ((r * 2.5 + 3.3) * r + 1.3) * r + e
    s = np.where(m < 0.7, s * 2.0, np.sqrt(s * s + 1.0))
    np.searchsorted(table, uniforms, side="right")
    half = s.size
    while half > 1:
        half >>= 1
        s = s[0:2 * half:2] + s[1:2 * half:2]


_TASKS = {"python": _python, "numpy": _numpy}


def time_task(kind: str) -> float:
    """Seconds one run of the reference task of ``kind`` takes now."""
    start = time.perf_counter()
    _TASKS[kind]()
    return time.perf_counter() - start


def factors(kind: str, references: list[float]) -> list[float]:
    """Scale factor for each of a series of paired reference times."""
    out = []
    for i in range(len(references)):
        lo = max(0, min(i - _WINDOW // 2, len(references) - _WINDOW))
        out.append(NOMINAL_S[kind] / statistics.median(references[lo:lo + _WINDOW]))
    return out
