"""Stochastic electron-counting simulator that cross-checks the SNR formulas.

The analytic engine says an on-state current I measured in a bandwidth
df at T = 0 has amplitude SNR sqrt(I/(2*e*df)).  This module tests that
claim from the other direction: count discrete electrons through an
on/off channel over the Nyquist integration window

    window = 1 / (2 * df)

so the open-state count is Poisson with mean lam = I*window/e and its
counting SNR converges to sqrt(lam) — the same number the formula gives.
That coincidence is exactly why the Nyquist window is the convention
here; any other window would test a rival bandwidth bookkeeping instead
of the one the closed forms use.

Thermal noise enters as a zero-mean Gaussian charge of standard
deviation sqrt(thermal_sq)*window (in coulombs; divided by e in count
units) added to both channel states, where thermal_sq = 4*k_B*T*G*df is
the Johnson term of :func:`chargelimit.noise.noise_breakdown`.  That one
breakdown also gives the analytic SNR, so the noise model and its
float-range checks live only in :mod:`chargelimit.noise`, and they run
before any trial is drawn.  The blocked state carries no shot noise —
perfect pinch-off by the sensed charge is assumed, matching the
full-modulation assumption of the closed forms.

Detection uses an explicit count threshold: decide "open" when the
measured charge is at least ``threshold`` electrons.  The resulting
error rates are reported as simulator outputs; the closed forms define
no error criterion of their own, so nothing is asserted against them.

Reproducibility contract: outcomes are a pure function of the config.
Randomness is keyed by (seed, role, block-of-trials) with a fixed block
size (a block's open-state Philox words are its n counts and then, with
thermal noise, its n thermal draws), partial results are reduced in
block order, and the per-trial arithmetic uses only operations that
round the same on every CPU and numpy build (see
:mod:`chargelimit.kernels`), so neither the worker count nor the machine
can change a single output bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels, rng
from .constants import CONSTANTS
from .devices import DeviceSpec, device_snr
from .errors import ParameterError, float_range_checked, record, require, require_nonnegative
from .errors import require_positive
from .noise import OperatingPoint, noise_breakdown, signal_to_noise

__all__ = [
    "SimConfig",
    "Ci95",
    "SimOutcome",
    "simulate_detection",
    "validate_device",
]

#: Two-sided 95% normal quantile used for all confidence half-widths.
Z95 = 1.959963984540054

_OPEN_STREAM = 0
_BLOCKED_STREAM = 1


@record(kw_only=True)
class SimConfig:
    """Inputs of one detection simulation.

    Parameters
    ----------
    on_current : float
        Mean current of the open (unblocked) channel in A, >= 0.
    bandwidth : float
        Measurement bandwidth in Hz, > 0; the integration window is
        1/(2*bandwidth).
    temperature : float, optional
        Temperature in K for the thermal-noise term.  Default 0.
    conductance : float, optional
        Channel conductance in S for the thermal-noise term; ``None``
        means no Johnson noise, and is valid only at T = 0.
    trials : int
        Number of independent windows simulated per state, >= 1.
    seed : int
        RNG seed, 0 <= seed < 2**64.
    threshold : float, optional
        Decision threshold in electron counts; decide "open" when the
        measured charge is >= threshold.  Default 0.5.
    fano : float, optional
        Shot-noise Fano factor, > 0.  Values other than 1 force the
        Gaussian sampling path (no exact discrete law is implied).
    """

    on_current: float
    bandwidth: float
    temperature: float = 0.0
    conductance: float | None = None
    trials: int
    seed: int
    threshold: float = 0.5
    fano: float = 1.0

    def __post_init__(self) -> None:
        require_nonnegative(self.on_current, "on_current")
        require_positive(self.bandwidth, "bandwidth")
        require_nonnegative(self.temperature, "temperature")
        if self.conductance is not None:
            require_nonnegative(self.conductance, "conductance")
        require(self.temperature <= 0.0 or self.conductance is not None,
                "a temperature above 0 K needs a conductance for its Johnson noise",
                self.temperature)
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ParameterError(f"trials must be an int >= 1, got {self.trials!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ParameterError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        require_nonnegative(self.threshold, "threshold")
        require_positive(self.fano, "fano")


@record
class Ci95:
    """95% confidence half-widths of the headline estimates."""

    snr: float
    err_open: float
    err_blocked: float


@record
class SimOutcome:
    """Results of one detection simulation.

    ``empirical_snr`` is the sample mean over sample standard deviation
    of the open-state measured charge; ``analytic_snr`` is the noise
    module's prediction for the same operating point.  Error rates are
    the misclassification probabilities of the threshold rule in each
    true state.  :meth:`n_sigma`, :meth:`within_3_sigma` and :meth:`flags`
    are the one verdict on the run; a run whose charge has no spread is
    flagged ``zero-spread`` and not scored.
    """

    empirical_snr: float
    analytic_snr: float
    err_open: float
    err_blocked: float
    balanced_err: float
    snr_stderr: float
    ci95: Ci95
    mean_charge: float
    std_charge: float
    expected_count: float
    trials: int
    threshold: float
    gaussian_fallback: bool
    seed_used: int
    generator: str

    def n_sigma(self) -> float | None:
        """|empirical - analytic| SNR in units of the estimator's stderr;
        None for a run without spread."""
        if self.std_charge == 0.0:  # every trial gave the same charge: no score
            return None
        if self.snr_stderr > 0.0:
            return abs(self.empirical_snr - self.analytic_snr) / self.snr_stderr
        return 0.0 if self.empirical_snr == self.analytic_snr else math.inf

    def within_3_sigma(self) -> bool | None:
        """Whether the empirical SNR agrees with the analytic one within 3
        sigma; None for a run without spread."""
        n_sigma = self.n_sigma()
        return None if n_sigma is None else n_sigma <= 3.0

    def flags(self) -> list[str]:
        """``gaussian-fallback`` and ``zero-spread``, where they apply."""
        return [flag for flag, on in (("gaussian-fallback", self.gaussian_fallback),
                                      ("zero-spread", self.std_charge == 0.0)) if on]

    def as_dict(self) -> dict:
        """Plain-types view in a fixed key order, ready for JSON: the
        fields, then ``n_sigma`` and ``within_3_sigma``."""
        return {**vars(self), "ci95": dict(vars(self.ci95)), "n_sigma": self.n_sigma(),
                "within_3_sigma": self.within_3_sigma()}


def _central_moments(shift: float, n: int, s1: float, s2: float, s3: float, s4: float):
    """Mean and central moments m2..m4 from shifted power sums."""
    d = s1 / n
    r2 = s2 / n
    r3 = s3 / n
    r4 = s4 / n
    mean = shift + d
    m2 = r2 - d * d
    m3 = r3 - 3.0 * d * r2 + 2.0 * d**3
    m4 = r4 - 4.0 * d * r3 + 6.0 * d * d * r2 - 3.0 * d**4
    return mean, m2, m3, m4


def _snr_stderr(n: int, mean: float, m2: float, m3: float, m4: float) -> float:
    """Delta-method standard error of the mean/stddev ratio estimator.

    Var(snr_hat) ~ [1 + mean^2 (m4 - m2^2)/(4 m2^3) - mean*m3/m2^2] / n;
    for a Poisson sample this reduces to (1 + 2*lam)/(4*n).
    """
    if n < 2 or m2 <= 0.0:
        return 0.0
    variance = (
        1.0
        + mean * mean * (m4 - m2 * m2) / (4.0 * m2**3)
        - mean * m3 / (m2 * m2)
    ) / n
    return math.sqrt(max(variance, 0.0))


def simulate_detection(cfg: SimConfig, workers: int = 1) -> SimOutcome:
    """Run the counting simulation for one config.

    Parameters
    ----------
    cfg : SimConfig
    workers : int, optional
        Thread count for block-parallel execution.  Any value >= 1
        produces bit-identical results; the default is serial.

    Returns
    -------
    SimOutcome
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ParameterError(f"workers must be an int >= 1, got {workers!r}")
    window = 1.0 / (2.0 * cfg.bandwidth)
    lam = cfg.on_current * window / CONSTANTS.e
    require(math.isfinite(lam), "on_current and bandwidth put the expected count outside "
            "the float range", lam)
    breakdown = noise_breakdown(OperatingPoint(current=cfg.on_current,
                                               conductance=cfg.conductance or 0.0,
                                               temperature=cfg.temperature,
                                               bandwidth=cfg.bandwidth), fano=cfg.fano)
    sigma = math.sqrt(breakdown.thermal_sq) * window / CONSTANTS.e
    gaussian = lam > kernels.LAMBDA_GAUSSIAN_CUTOFF or cfg.fano != 1.0
    sqrt_shot = math.sqrt(cfg.fano * lam)
    shift = lam if gaussian else float(math.floor(lam))  # a run of all-0 counts has m2 = 0
    if gaussian:
        k_lo, cdf, guide = 0, np.empty(0, dtype=np.float64), None
    else:
        k_lo, cdf = kernels.poisson_cdf_table(lam)
        guide = kernels.poisson_guide_table(k_lo, cdf, cfg.trials, None if sigma > 0.0 else shift)
    open_block, blocked_block = kernels.block_kernels()

    trials = cfg.trials
    n_blocks = (trials + rng.BLOCK - 1) // rng.BLOCK

    @float_range_checked
    def run_block(index: int):
        n_b = min(rng.BLOCK, trials - index * rng.BLOCK)
        with kernels.block_workspace() as ws:
            # the thermal words, if any, follow the count words
            x_open = rng.uniform_block(cfg.seed, _OPEN_STREAM, index, (1 + (sigma > 0.0)) * n_b)
            stats = open_block(
                x_open[:n_b], x_open[n_b:], cdf, k_lo, guide, gaussian, lam, sqrt_shot,
                sigma, shift, cfg.threshold, ws,
            )
            del x_open  # before the next draw, so that it reuses these pages
            false_open = blocked_block(
                rng.uniform_block(cfg.seed, _BLOCKED_STREAM, index, n_b),
                sigma, cfg.threshold, ws,
            ) if sigma > 0.0 else 0
        return stats + (false_open,)

    if workers == 1 or n_blocks == 1:
        partials = [run_block(index) for index in range(n_blocks)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # 10 ms of a one-block CLI call

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_block, range(n_blocks)))

    totals = (0.0, 0.0, 0.0, 0.0, 0, 0)
    for partial in partials:  # fixed block order
        totals = tuple(total + part for total, part in zip(totals, partial))
    s1, s2, s3, s4, below, false_open = totals

    try:  # Python's float ** raises where numpy's power gives inf
        mean, m2, m3, m4 = _central_moments(shift, trials, s1, s2, s3, s4)
        stderr = _snr_stderr(trials, mean, m2, m3, m4)
    except (OverflowError, ZeroDivisionError):  # or m2**3 underflows to 0
        stderr = math.inf
    require(math.isfinite(s4 + stderr), "on_current, bandwidth, fano, temperature and "
            "conductance put the charge moments outside the float range", s4 + stderr)
    require(m2 > 0.0 or not gaussian or lam == 0.0, "on_current and bandwidth put the "
            "Gaussian shot noise below the float resolution of the expected count", lam)
    sample_var = m2 * trials / (trials - 1) if trials > 1 else 0.0
    std = math.sqrt(max(sample_var, 0.0))
    empirical_snr = mean / std if std > 0.0 else 0.0

    err_open = below / trials
    # Without thermal noise the blocked charge is exactly zero (perfect
    # pinch-off), so its decision is deterministic.
    err_blocked = (false_open / trials if sigma > 0.0
                   else 1.0 if cfg.threshold <= 0.0 else 0.0)

    def _binomial_half_width(p: float) -> float:
        return Z95 * math.sqrt(p * (1.0 - p) / trials)

    return SimOutcome(
        empirical_snr=empirical_snr,
        analytic_snr=signal_to_noise(cfg.on_current, breakdown),
        err_open=err_open,
        err_blocked=err_blocked,
        balanced_err=0.5 * (err_open + err_blocked),
        snr_stderr=stderr,
        ci95=Ci95(
            snr=Z95 * stderr,
            err_open=_binomial_half_width(err_open),
            err_blocked=_binomial_half_width(err_blocked),
        ),
        mean_charge=mean,
        std_charge=std,
        expected_count=lam,
        trials=trials,
        threshold=cfg.threshold,
        gaussian_fallback=gaussian,
        seed_used=cfg.seed,
        generator=rng.GENERATOR_ID,
    )


def validate_device(device: DeviceSpec, bandwidth: float, trials: int, seed: int) -> SimOutcome:
    """Simulate a device at its on-state current and compare SNRs.

    Runs the counting simulation at T = 0, with the on-state sense
    current G*V that :func:`chargelimit.devices.device_snr` evaluates
    its noise at, at ``bandwidth``.
    The outcome's :meth:`SimOutcome.n_sigma` scores the empirical SNR
    against the analytic value in units of the estimator's standard
    error, and :meth:`SimOutcome.within_3_sigma` says whether they agree
    within 3 sigma; a run without spread is flagged ``zero-spread``.
    """
    result = device_snr(device, bandwidth)
    return simulate_detection(SimConfig(on_current=result.conductance * result.bias,
                                        bandwidth=bandwidth, trials=trials, seed=seed))
