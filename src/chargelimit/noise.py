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

from .constants import CONSTANTS, thermal_voltage_threshold
from .errors import ParameterError, anywhere, array_module, isfinite, record, require
from .errors import require_nonnegative, require_positive

__all__ = [
    "OperatingPoint",
    "NoiseBreakdown",
    "ShotDominance",
    "noise_breakdown",
    "snr",
    "shot_dominated",
]

_CONSISTENCY_RTOL = 1e-12


@record(kw_only=True)
class OperatingPoint:
    """Bias point of a charge detector during a measurement.

    Parameters
    ----------
    bandwidth : float
        Measurement bandwidth in Hz, > 0.  Required.
    current : float, optional
        Mean sense current in A, >= 0.  May be omitted if both
        ``conductance`` and ``bias`` are given, in which case the
        current is their product.
    conductance : float, optional
        Mean channel conductance in S, >= 0.
    bias : float, optional
        Source-drain bias in V, >= 0.
    temperature : float, optional
        Temperature in K, >= 0.  Defaults to 0 (shot noise only).

    Notes
    -----
    If ``current``, ``conductance`` and ``bias`` are all supplied they
    must be mutually consistent: current = conductance * bias to
    relative 1e-12.
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
        if self.current is None and (self.conductance is None or self.bias is None):
            raise ParameterError(
                "operating point needs either a current or both a conductance and a bias"
            )
        if all(v is not None for v in (self.current, self.conductance, self.bias)):
            product = self.conductance * self.bias
            gap = abs(self.current - product)  # compared with rtol * max(|current|, |product|)
            if anywhere((gap > _CONSISTENCY_RTOL * abs(self.current))
                        & (gap > _CONSISTENCY_RTOL * abs(product))):
                raise ParameterError(
                    f"inconsistent operating point: current={self.current!r} but "
                    f"conductance*bias={product!r}"
                )

    def sense_current(self) -> float:
        """Mean sense current in A, derived from conductance*bias if needed."""
        if self.current is not None:
            return self.current
        assert self.conductance is not None and self.bias is not None
        return self.conductance * self.bias

    def channel_conductance(self) -> float:
        """Mean conductance in S for the Johnson term.

        Falls back to current/bias when only those are known, and to 0
        when the conductance cannot be inferred at all (T = 0 makes the
        Johnson term vanish regardless).
        """
        if self.conductance is not None:
            return self.conductance
        if self.bias is not None and self.current is not None:
            np = array_module(self.current, self.bias)
            if np is None:
                return float(self.current / self.bias) if self.bias > 0.0 else 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(self.bias > 0.0, np.divide(self.current, self.bias), 0.0)
        return 0.0


@record
class NoiseBreakdown:
    """Current-noise variance terms (A^2) and their combined rms (A)."""

    shot_sq: float
    thermal_sq: float
    total_rms: float


@record
class ShotDominance:
    """Whether shot noise exceeds thermal noise, and by what factor."""

    dominated: bool
    threshold_voltage: float  # 2*k_B*T/e [V]
    margin: float             # bias / threshold_voltage; inf at T = 0


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


def snr(op: OperatingPoint, fano: float = 1.0) -> float:
    """Amplitude signal-to-noise ratio: mean current over rms noise current.

    At T = 0 this reduces to sqrt(I / (2*e*df)) — the square root of the
    number of electrons passing in half the inverse bandwidth.  Returns
    0 for zero current (sweeps pass through pinch-off) since the noise
    floor also vanishes there at T = 0.
    """
    return signal_to_noise(op.sense_current(), noise_breakdown(op, fano=fano))


def shot_dominated(op: OperatingPoint) -> ShotDominance:
    """Check whether the bias puts the detector in the shot-noise regime.

    Shot noise exceeds thermal noise when bias > 2*k_B*T/e (strict).
    Requires the operating point to carry an explicit bias.
    """
    if op.bias is None:
        raise ParameterError("shot_dominated needs an operating point with a bias")
    threshold = thermal_voltage_threshold(op.temperature)
    if op.temperature == 0.0:
        return ShotDominance(
            dominated=op.bias > 0.0,
            threshold_voltage=0.0,
            margin=math.inf if op.bias > 0.0 else 0.0,
        )
    return ShotDominance(
        dominated=op.bias > threshold,
        threshold_voltage=threshold,
        margin=op.bias / threshold,
    )
