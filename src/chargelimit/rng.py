"""Counter-based random streams for reproducible, parallel simulation.

Every block of random words is derived from ``(seed, stream, block)``
through a fresh Philox generator (Salmon et al., SC'11), so a given
block of trials receives exactly the same numbers no matter how many
workers run or in what order blocks execute.  Nothing here is ever
advanced statefully across calls.

A block is the generator's raw 64-bit words, not float uniforms.  The
uniform of word x is ``(x >> 11) * 2**-53``, the bits ``Generator.random``
gives today, but NumPy's RNG policy (NEP 19) fixes only a seeded bit
generator's raw stream and ``SeedSequence``, not the ``Generator``
methods, so the seeded outputs rest on those two alone.  The kernels
read what they can from the words themselves: a bucket of 2**b is the
top b bits, and a cut in uniform space is an integer compare (see
:mod:`chargelimit.kernels`).
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


def uniform_block(seed: int, stream: int, block: int, count: int) -> np.ndarray:
    """Return ``count`` raw uint64 Philox words for one keyed block; word
    x stands for the uniform ``(x >> 11) * 2**-53`` in [0, 1).  The array
    is new and the caller's to overwrite.

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
        Number of words, >= 0.
    """
    if not (isinstance(seed, int) and 0 <= seed < _SEED_LIMIT):
        raise ParameterError(f"seed must be an int in [0, 2**64), got {seed!r}")
    if stream < 0 or block < 0 or count < 0:
        raise ParameterError("stream, block and count must all be >= 0")
    return np.random.Philox(np.random.SeedSequence((seed, stream, block))).random_raw(count)
