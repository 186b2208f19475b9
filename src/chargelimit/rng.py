"""Counter-based random streams for reproducible, parallel simulation.

Every batch of uniforms is derived from ``(seed, stream, block)`` through
a fresh Philox generator, so a given block of trials receives exactly the
same numbers no matter how many workers run or in what order blocks
execute.  Nothing here is ever advanced statefully across calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["GENERATOR_ID", "BLOCK", "uniform_block"]

#: Identity string recorded in simulation outcomes; bump if the keying
#: scheme or bit generator ever changes.
GENERATOR_ID = "philox4x64-seedseq-v1"

#: Trials per RNG block.  Fixed: changing it changes every sampled number.
BLOCK = 65536

_SEED_LIMIT = 2**64


def uniform_block(seed: int, stream: int, block: int, count: int, out=None) -> np.ndarray:
    """Return ``count`` float64 uniforms in [0, 1) for one keyed block.

    Parameters
    ----------
    seed : int
        User-facing simulation seed, 0 <= seed < 2**64.
    stream : int
        Role tag separating independent uses (e.g. open-state vs
        blocked-state sampling), >= 0.
    block : int
        Block index within the stream, >= 0.
    count : int
        Number of uniforms, >= 0.
    out : ndarray, optional
        float64 buffer of at least ``count`` elements; its first
        ``count`` are filled and returned instead of a new array.
    """
    if not (isinstance(seed, int) and 0 <= seed < _SEED_LIMIT):
        raise ParameterError(f"seed must be an int in [0, 2**64), got {seed!r}")
    if stream < 0 or block < 0 or count < 0:
        raise ParameterError("stream, block and count must all be >= 0")
    sequence = np.random.SeedSequence((seed, stream, block))
    generator = np.random.Generator(np.random.Philox(sequence))
    return generator.random(count) if out is None else generator.random(out=out[:count])
