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
from .errors import ParameterError, array_module, isfinite, record, require
from .errors import require_nonnegative, require_positive

__all__ = ["OperatingPoint", "NoiseBreakdown", "noise_breakdown"]


@record(kw_only=True)
class OperatingPoint:
    """Bias point of a charge detector during a measurement.

    It is given by one of two routes:

    * a ``conductance`` and a ``bias``, as the device models give it; the
      current is their product;
    * a ``current``, as the simulator gives it, with a ``conductance``
      for the Johnson term when one is known (without one the term is 0).

    A current with a bias, a bias without a conductance, or neither
    route is a ParameterError: no conductance is ever inferred from
    current/bias.

    Parameters
    ----------
    bandwidth : float
        Measurement bandwidth in Hz, > 0.  Required.
    current : float, optional
        Mean sense current in A, >= 0.
    conductance : float, optional
        Mean channel conductance in S, >= 0.
    bias : float, optional
        Source-drain bias in V, >= 0.
    temperature : float, optional
        Temperature in K, >= 0.  Defaults to 0 (shot noise only).
    """

    bandwidth: float
    current: float | None = None
    conductance: float | None = None
    bias: float | None = None
    temperature: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth, "bandwidth")
        require_nonnegative(self.temperature, "temperature")
        for name in ("current", "conductance", "bias"):
            value = getattr(self, name)
            if value is not None:
                require_nonnegative(value, name)
        if self.current is None:
            routed = self.conductance is not None and self.bias is not None
        else:
            routed = self.bias is None
        if not routed:
            raise ParameterError("operating point needs either a current (with an optional "
                                 "conductance) or a conductance and a bias")

    def sense_current(self) -> float:
        """Mean sense current in A: the current given, or conductance*bias."""
        if self.current is not None:
            return self.current
        return self.conductance * self.bias

    def channel_conductance(self) -> float:
        """Mean conductance in S for the Johnson term; 0 when none was given."""
        return 0.0 if self.conductance is None else self.conductance


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
    current = op.sense_current()
    conductance = op.channel_conductance()
    shot_sq = fano * 2.0 * CONSTANTS.e * current * op.bandwidth
    thermal_sq = 4.0 * CONSTANTS.k_B * op.temperature * conductance * op.bandwidth
    variance = shot_sq + thermal_sq
    require(isfinite(variance) & ((variance > 0.0) | (current == 0.0)),
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
