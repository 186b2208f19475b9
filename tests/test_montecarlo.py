"""Counting simulator: reproducibility contract and statistical agreement."""

import math
import resource
import sys
import warnings

import pytest
from scipy.special import ndtr

from chargelimit import (
    GAAS_LIKE,
    ParameterError,
    SimConfig,
    SimOutcome,
    WireDevice,
    WireGeometry,
    simulate_detection,
    validate_device,
)
from chargelimit import kernels, rng
from chargelimit.constants import CONSTANTS

E = CONSTANTS.e
KB = CONSTANTS.k_B

# Mean count 10 per Nyquist window: I = 10 * 2 e df with df = 5e4 Hz.
LAM10 = SimConfig(
    on_current=1.602176634e-13,
    bandwidth=5e4,
    trials=20000,
    seed=12345,
)


def conductance_for_sigma(sigma, temperature, bandwidth):
    """Channel conductance that yields a thermal charge spread of sigma counts."""
    window = 1.0 / (2.0 * bandwidth)
    return (sigma * E / window) ** 2 / (4.0 * KB * temperature * bandwidth)


# -------------------------------------------------------- reproducibility


def test_outcome_is_pure_function_of_config():
    a = simulate_detection(LAM10)
    b = simulate_detection(LAM10)
    assert a == b


def test_workers_do_not_change_outputs():
    cfg = SimConfig(
        on_current=1.602176634e-13, bandwidth=5e4, trials=200000, seed=77
    )
    serial = simulate_detection(cfg, workers=1)
    threaded = simulate_detection(cfg, workers=4)
    assert serial == threaded


@pytest.mark.parametrize("regime", ["poisson", "poisson_thermal", "gaussian"])
def test_repeated_simulation_reuses_its_buffers(regime):
    # Every block's temporaries live in a reused workspace, so once one
    # simulation has run, the same one again touches no new pages.
    on_current = 1.602176634e-6 if regime == "gaussian" else 1.602176634e-13
    thermal = {}
    if regime == "poisson_thermal":
        thermal = dict(temperature=4.2, conductance=conductance_for_sigma(2.0, 4.2, 5e4))
    cfg = SimConfig(on_current=on_current, bandwidth=5e4, trials=4 * 65536, seed=3, **thermal)
    simulate_detection(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate_detection(cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 64


def test_concurrent_blocks_never_share_a_workspace():
    # More workers than cores and a thread switch every microsecond: a
    # workspace handed to two running blocks at once would mix their
    # buffers and change the outcome.
    cfg = SimConfig(on_current=1.602176634e-13, bandwidth=5e4, trials=12 * 65536, seed=5,
                    temperature=4.2, conductance=conductance_for_sigma(2.0, 4.2, 5e4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_detection(cfg, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == simulate_detection(cfg)
    idle = [id(ws) for ws in kernels._FREE]
    assert 1 <= len(idle) <= 8 and len(set(idle)) == len(idle)


def test_as_dict_key_order():
    outcome = simulate_detection(LAM10)
    assert list(outcome.as_dict()) == [
        "empirical_snr",
        "analytic_snr",
        "err_open",
        "err_blocked",
        "balanced_err",
        "snr_stderr",
        "ci95",
        "mean_charge",
        "std_charge",
        "expected_count",
        "trials",
        "threshold",
        "gaussian_fallback",
        "seed_used",
        "generator",
        "n_sigma",
        "within_3_sigma",
    ]
    assert list(outcome.as_dict()["ci95"]) == ["snr", "err_open", "err_blocked"]


# -------------------------------------------------- statistical agreement


def test_sqrt_count_snr_small_lambda():
    outcome = simulate_detection(LAM10)
    assert outcome.expected_count == pytest.approx(10.0, rel=1e-12)
    assert outcome.analytic_snr == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert abs(outcome.empirical_snr - outcome.analytic_snr) <= 3.0 * outcome.snr_stderr
    assert not outcome.gaussian_fallback


def test_sqrt_count_snr_lambda_100():
    cfg = SimConfig(on_current=1.602176634e-12, bandwidth=5e4, trials=50000, seed=4242)
    outcome = simulate_detection(cfg)
    assert outcome.analytic_snr == pytest.approx(10.0, rel=1e-12)
    assert abs(outcome.empirical_snr - outcome.analytic_snr) <= 3.0 * outcome.snr_stderr
    # Mean and spread individually track the Poisson law.
    assert outcome.mean_charge == pytest.approx(100.0, rel=3e-3)
    assert outcome.std_charge == pytest.approx(10.0, rel=2e-2)


def test_stderr_matches_poisson_theory():
    # For Poisson counts the delta method gives Var ~ (1 + 2 lam)/(4 n).
    cfg = SimConfig(on_current=1.602176634e-12, bandwidth=5e4, trials=50000, seed=4242)
    outcome = simulate_detection(cfg)
    theory = math.sqrt((1.0 + 2.0 * 100.0) / (4.0 * cfg.trials))
    assert 0.9 < outcome.snr_stderr / theory < 1.1


def test_zero_count_error_rate():
    # With threshold 0.5 the open state is missed only on a zero count,
    # which for lam = 10 happens with probability e^-10.
    cfg = SimConfig(on_current=1.602176634e-13, bandwidth=5e4, trials=100000, seed=12345)
    outcome = simulate_detection(cfg)
    p = math.exp(-10.0)
    spread = 3.0 * math.sqrt(p * (1.0 - p) / cfg.trials)
    assert abs(outcome.err_open - p) <= spread
    assert outcome.err_blocked == 0.0  # no thermal noise: exact


def test_zero_current_is_degenerate():
    cfg = SimConfig(on_current=0.0, bandwidth=5e4, trials=1000, seed=1)
    outcome = simulate_detection(cfg)
    assert outcome.mean_charge == 0.0
    assert outcome.std_charge == 0.0
    assert outcome.empirical_snr == 0.0
    assert outcome.analytic_snr == 0.0
    assert outcome.err_open == 1.0  # a zero count never crosses threshold 0.5


def test_zero_current_gaussian_path_is_degenerate():
    # No shot noise to resolve: a zero spread is the right answer here.
    cfg = SimConfig(on_current=0.0, bandwidth=5e4, trials=1000, seed=1, fano=0.5)
    outcome = simulate_detection(cfg)
    assert outcome.gaussian_fallback
    assert outcome.std_charge == 0.0
    assert outcome.empirical_snr == outcome.analytic_snr == 0.0


def test_thermal_noise_degrades_snr():
    sigma = 2.0
    g = conductance_for_sigma(sigma, 4.2, 5e4)
    cold = SimConfig(on_current=1.602176634e-12, bandwidth=5e4, trials=50000, seed=31)
    warm = SimConfig(
        on_current=1.602176634e-12,
        bandwidth=5e4,
        temperature=4.2,
        conductance=g,
        trials=50000,
        seed=31,
    )
    out_cold = simulate_detection(cold)
    out_warm = simulate_detection(warm)
    assert out_warm.analytic_snr < out_cold.analytic_snr
    assert out_warm.empirical_snr < out_cold.empirical_snr
    assert (
        abs(out_warm.empirical_snr - out_warm.analytic_snr)
        <= 4.0 * out_warm.snr_stderr
    )
    # Total spread should sit near sqrt(lam + sigma^2).
    assert out_warm.std_charge == pytest.approx(
        math.sqrt(100.0 + sigma**2), rel=3e-2
    )


def test_blocked_state_gaussian_tail():
    # With thermal spread sigma, the blocked state false-opens with
    # probability 1 - Phi(threshold/sigma).
    sigma = 0.5
    g = conductance_for_sigma(sigma, 300.0, 5e4)
    cfg = SimConfig(
        on_current=1.602176634e-12,
        bandwidth=5e4,
        temperature=300.0,
        conductance=g,
        trials=100000,
        seed=6006,
    )
    outcome = simulate_detection(cfg)
    p = float(ndtr(-0.5 / sigma))
    spread = 4.0 * math.sqrt(p * (1.0 - p) / cfg.trials)
    assert abs(outcome.err_blocked - p) <= spread


def test_gaussian_fallback_large_lambda():
    # lam = 6.2e8 >> the 1e7 cutoff.
    cfg = SimConfig(on_current=1e-3, bandwidth=5e4, trials=20000, seed=88)
    outcome = simulate_detection(cfg)
    assert outcome.gaussian_fallback
    assert outcome.expected_count > 1e7
    assert (
        abs(outcome.empirical_snr - outcome.analytic_snr)
        <= 4.0 * outcome.snr_stderr
    )


def test_gaussian_fallback_fano():
    cfg = SimConfig(
        on_current=1.602176634e-12, bandwidth=5e4, trials=50000, seed=55, fano=0.5
    )
    outcome = simulate_detection(cfg)
    assert outcome.gaussian_fallback
    # Sub-Poissonian partition noise raises the SNR by 1/sqrt(fano).
    assert outcome.analytic_snr == pytest.approx(math.sqrt(200.0), rel=1e-12)
    assert (
        abs(outcome.empirical_snr - outcome.analytic_snr)
        <= 4.0 * outcome.snr_stderr
    )


def test_threshold_moves_open_error():
    strict = simulate_detection(
        SimConfig(
            on_current=1.602176634e-13, bandwidth=5e4, trials=50000, seed=7, threshold=5.5
        )
    )
    loose = simulate_detection(
        SimConfig(
            on_current=1.602176634e-13, bandwidth=5e4, trials=50000, seed=7, threshold=0.5
        )
    )
    assert strict.err_open > loose.err_open
    # P(K <= 5) for lam = 10 is ~0.067.
    assert strict.err_open == pytest.approx(0.06708596287903189, abs=5e-3)


# -------------------------------------------------------------- validation


def test_config_validation():
    good = dict(on_current=1e-9, bandwidth=1e6, trials=10, seed=0)
    SimConfig(**good)
    for overrides in (
        {"on_current": -1e-9},
        {"on_current": math.nan},
        {"bandwidth": 0.0},
        {"temperature": -1.0},
        {"conductance": -1e-6},
        {"trials": 0},
        {"trials": 1.5},
        {"seed": -1},
        {"seed": 2**64},
        {"threshold": -0.5},
        {"fano": 0.0},
    ):
        with pytest.raises(ParameterError):
            SimConfig(**{**good, **overrides})


def test_a_temperature_above_0_k_needs_a_conductance():
    good = dict(on_current=1e-9, bandwidth=1e6, trials=10, seed=0)
    with pytest.raises(ParameterError, match="needs a conductance .*, got 4.2$"):
        SimConfig(**good, temperature=4.2)
    SimConfig(**good, temperature=4.2, conductance=0.0)
    SimConfig(**good, temperature=-0.0)


def test_out_of_range_noise_fails_before_any_block_is_drawn(monkeypatch):
    drawn = []
    uniform_block = rng.uniform_block

    def counted(*args):
        drawn.append(args[:3])
        return uniform_block(*args)

    monkeypatch.setattr(rng, "uniform_block", counted)
    cfg = SimConfig(on_current=1e-13, bandwidth=5e4, temperature=1e300, conductance=1e300,
                    trials=100, seed=1)
    with pytest.raises(ParameterError, match="temperature"):
        simulate_detection(cfg)
    assert drawn == []


def test_workers_validation():
    with pytest.raises(ParameterError):
        simulate_detection(LAM10, workers=0)
    with pytest.raises(ParameterError):
        simulate_detection(LAM10, workers=2.5)


# --------------------------------------------------------- device bridge


def test_validate_device_wire():
    device = WireDevice(WireGeometry(20e-9), GAAS_LIKE)
    check = validate_device(device, 1e9, trials=20000, seed=2024)
    assert isinstance(check, SimOutcome)
    assert check.within_3_sigma() is True
    assert check.n_sigma() <= 3.0
    assert check.flags() == []


def test_validate_device_without_spread_is_flagged_not_scored():
    # 1.3e-8 electrons per window: all 2 000 counts are 0, so the charge
    # has no spread and the run carries a flag instead of a verdict.
    device = WireDevice(WireGeometry(20e-9), GAAS_LIKE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = validate_device(device, 1e20, trials=2000, seed=5)
    assert check.std_charge == 0.0
    assert check.n_sigma() is None
    assert check.within_3_sigma() is None
    assert check.flags() == ["zero-spread"]


def test_n_sigma_score():
    outcome = simulate_detection(LAM10)
    gap = abs(outcome.empirical_snr - outcome.analytic_snr)
    assert outcome.n_sigma() == gap / outcome.snr_stderr
    exact = SimOutcome(**{**vars(outcome), "snr_stderr": 0.0,
                          "empirical_snr": outcome.analytic_snr})
    assert exact.n_sigma() == 0.0
    assert SimOutcome(**{**vars(outcome), "snr_stderr": 0.0}).n_sigma() == math.inf
