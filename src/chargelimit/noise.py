"""Shot and thermal current noise, and the amplitude signal-to-noise ratio.

All three electrometer models in :mod:`chargelimit.devices` reduce to the
same question: how well does the mean sense current stand out above the
intrinsic current noise in a measurement bandwidth?  This module owns
that question.  The noise model is the intrinsic floor only —
uncorrelated-tunneling shot noise plus Johnson noise of the channel
conductance, summed in variance:

    I_noise^2 = 2*e*I*df + 4*k_B*T*G*df

No 1/f noise, amplifier noise, or measurement back-action is included.
"""

from __future__ import annotations

import math

from .constants import CONSTANTS
from .errors import array_module, isfinite, record, require
from .errors import require_nonnegative, require_positive

__all__ = ["OperatingPoint", "NoiseBreakdown", "noise_breakdown"]


@record(kw_only=True)
class OperatingPoint:
    """Bias point of a charge detector during a measurement.

    The device models give the current as their conductance times their
    bias; the simulator gives a current with the conductance for the
    Johnson term when one is known.  No conductance is ever inferred
    from the current: without one the Johnson term is 0.

    Parameters
    ----------
    current : float
        Mean sense current in A, >= 0.  Required.  An infinite current,
        as a finite conductance times a finite bias can give, is left to
        :func:`noise_breakdown`, whose range check names it.
    bandwidth : float
        Measurement bandwidth in Hz, > 0.  Required.
    conductance : float, optional
        Mean channel conductance in S, >= 0.  Defaults to 0.
    temperature : float, optional
        Temperature in K, >= 0.  Defaults to 0 (shot noise only).
    """

    current: float
    bandwidth: float
    conductance: float = 0.0
    temperature: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth, "bandwidth")
        require_nonnegative(self.temperature, "temperature")
        require(self.current >= 0.0, "current must be >= 0", self.current)
        require_nonnegative(self.conductance, "conductance")


@record
class NoiseBreakdown:
    """Current-noise variance terms (A^2) and their combined rms (A)."""

    shot_sq: float
    thermal_sq: float
    total_rms: float


def noise_breakdown(op: OperatingPoint, fano: float = 1.0) -> NoiseBreakdown:
    """Split the intrinsic current noise into shot and thermal variances.

    Parameters
    ----------
    op : OperatingPoint
        Its fields may be arrays that broadcast together; so are the terms.
    fano : float, optional
        Multiplier on the shot-noise variance.  1 (default) is the
        uncorrelated-tunneling value; values below 1 model correlation-
        suppressed shot noise.  The detector models all use 1; only the
        simulator takes another, from ``simulate --fano``.

    Returns
    -------
    NoiseBreakdown
        shot_sq = fano*2*e*I*df, thermal_sq = 4*k_B*T*G*df and the rms
        of their sum.
    """
    require_nonnegative(fano, "fano")
    shot_sq = fano * 2.0 * CONSTANTS.e * op.current * op.bandwidth
    thermal_sq = 4.0 * CONSTANTS.k_B * op.temperature * op.conductance * op.bandwidth
    variance = shot_sq + thermal_sq
    require(isfinite(variance) & ((variance > 0.0) | (op.current == 0.0)),
            "bandwidth, current, temperature and conductance put the noise variance outside "
            "the float range", variance)
    sqrt = (array_module(variance) or math).sqrt
    return NoiseBreakdown(shot_sq=shot_sq, thermal_sq=thermal_sq, total_rms=sqrt(variance))


def signal_to_noise(current, breakdown: NoiseBreakdown):
    """Mean current over rms noise current; 0 where the current is 0."""
    np = array_module(breakdown.total_rms)
    if np is not None:
        return np.divide(current, breakdown.total_rms, where=current != 0.0,
                         out=np.zeros(np.shape(breakdown.total_rms)))
    return 0.0 if current == 0.0 else current / breakdown.total_rms
