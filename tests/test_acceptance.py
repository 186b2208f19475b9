"""Acceptance gate: the eight headline guarantees of this package.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in the captured output of a failure) and then asserts.  Tolerances are
stated inline; none of them are relaxed relative to what the package
promises.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from chargelimit import (
    CONSTANTS,
    GAAS_LIKE,
    VACUUM,
    Material,
    QpcDevice,
    QpcGeometry,
    SetDevice,
    SetGeometry,
    SimConfig,
    WireGeometry,
    device_snr,
    qpc_pipeline_snr,
    set_pipeline_snr,
    simulate_detection,
    wire_pipeline_snr,
    wire_snr,
)

C = CONSTANTS


def rel(a, b):
    return abs(a - b) / abs(b)


def check(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_vacuum_wire_sensitivity():
    sens = wire_snr(VACUUM, 1.0).sensitivity
    # Recompute from the pinned constants by a separate arithmetic path.
    ry_freq = C.e**2 / (4.0 * math.pi * C.eps0) / (2.0 * C.bohr_radius) / C.h
    recomputed = 1.0 / math.sqrt(ry_freq)
    ratio = sens / 2.0e-8
    ok = (
        rel(sens, recomputed) < 1e-3
        and rel(sens, 1.744e-8) < 1e-3
        and max(ratio, 1.0 / ratio) <= 1.25
    )
    check(
        1,
        ok,
        f"vacuum wire sensitivity {sens:.6e} e/sqrt(Hz); recomputed "
        f"{recomputed:.6e}; within factor {max(ratio, 1.0 / ratio):.3f} of 2e-8",
    )


def test_criterion_2_gaas_wire_band():
    result = wire_snr(GAAS_LIKE, 1.0)
    ok = 0.5e12 <= result.f_unity <= 2.0e12 and 5e-7 <= result.sensitivity <= 2e-6
    check(
        2,
        ok,
        f"GaAs-like wire f_unity {result.f_unity:.4e} Hz in [0.5e12, 2e12], "
        f"sensitivity {result.sensitivity:.4e} in [5e-7, 2e-6]",
    )


def test_criterion_3_wire_radius_cancellation():
    radii = np.geomspace(1e-9, 1e-6, 31)
    snrs = np.array(
        [wire_pipeline_snr(WireGeometry(float(r)), GAAS_LIKE, 1e6).snr for r in radii]
    )
    spread = float((snrs.max() - snrs.min()) / snrs.min())
    ok = spread < 1e-12
    check(
        3,
        ok,
        f"pipeline SNR spread over R in [1 nm, 1 um] (31 log points) = "
        f"{spread:.3e} < 1e-12",
    )


def test_criterion_4_hydrogenic_identities():
    draws = np.random.default_rng(20180523)
    worst_qpc = worst_set = 0.0
    for _ in range(1000):
        length = 10.0 ** draws.uniform(-10.0, -4.0)  # 6 decades
        bandwidth = 10.0 ** draws.uniform(0.0, 6.0)
        mass_ratio = 10.0 ** draws.uniform(-2.0, 0.5)
        epsilon_r = 10.0 ** draws.uniform(0.0, 2.0)
        material = Material("draw", mass_ratio, epsilon_r)

        qpc = device_snr(QpcDevice(QpcGeometry(length), material), bandwidth)
        bohr_form = (
            3.0
            * math.pi**2
            * C.rydberg_frequency
            / mass_ratio
            * (C.bohr_radius / length) ** 2
        )
        worst_qpc = max(worst_qpc, rel(qpc.snr**2 * bandwidth, bohr_form))

        sett = device_snr(SetDevice(SetGeometry(length), epsilon_r), bandwidth)
        rydberg_form = (
            C.rydberg_frequency * math.pi * C.bohr_radius / (2.0 * epsilon_r * length)
        )
        worst_set = max(worst_set, rel(sett.snr**2 * bandwidth, rydberg_form))
    ok = worst_qpc < 1e-12 and worst_set < 1e-12
    check(
        4,
        ok,
        f"1000 random draws over 6 decades: worst QPC identity error "
        f"{worst_qpc:.3e}, worst SET identity error {worst_set:.3e} (< 1e-12)",
    )


def test_criterion_5_closed_form_vs_pipeline():
    draws = np.random.default_rng(42424242)
    worst = 0.0
    for _ in range(200):
        length = 10.0 ** draws.uniform(-9.0, -6.0)
        bandwidth = 10.0 ** draws.uniform(0.0, 9.0)
        mass_ratio = 10.0 ** draws.uniform(-2.0, 0.0)
        epsilon_r = 10.0 ** draws.uniform(0.0, 1.5)
        material = Material("draw", mass_ratio, epsilon_r)

        pairs = (
            (
                wire_snr(material, bandwidth).snr,
                wire_pipeline_snr(WireGeometry(length), material, bandwidth).snr,
            ),
            (
                device_snr(QpcDevice(QpcGeometry(length), material), bandwidth).snr,
                qpc_pipeline_snr(QpcGeometry(length), material, bandwidth).snr,
            ),
            (
                device_snr(SetDevice(SetGeometry(length), epsilon_r), bandwidth).snr,
                set_pipeline_snr(SetGeometry(length), epsilon_r, bandwidth).snr,
            ),
        )
        for closed, piped in pairs:
            worst = max(worst, rel(piped, closed))
    ok = worst < 1e-12
    check(
        5,
        ok,
        f"closed form vs pipeline over randomized wire/qpc/set parameters: "
        f"worst relative difference {worst:.3e} < 1e-12",
    )


def test_criterion_6_monte_carlo_sqrt_counts():
    cases = (
        (10.0, 1.602176634e-13, 101),
        (100.0, 1.602176634e-12, 202),
        (1000.0, 1.602176634e-11, 303),
    )
    details = []
    ok = True
    for lam, current, seed in cases:
        cfg = SimConfig(on_current=current, bandwidth=5e4, trials=100000, seed=seed)
        out = simulate_detection(cfg)
        n_sigma = abs(out.empirical_snr - math.sqrt(lam)) / out.snr_stderr
        ok = ok and n_sigma <= 3.0
        details.append(f"lam={lam:g}: {n_sigma:.2f} sigma")
        if lam == 10.0:
            p = math.exp(-10.0)
            half = 3.0 * math.sqrt(p * (1.0 - p) / cfg.trials)
            miss_ok = abs(out.err_open - p) <= half
            ok = ok and miss_ok
            details.append(
                f"lam=10 zero-count rate {out.err_open:.2e} vs e^-10 "
                f"{p:.2e} (3-sigma band {half:.2e})"
            )
    check(6, ok, "empirical SNR vs sqrt(lam), 1e5 trials: " + "; ".join(details))


def test_criterion_7_rydberg_cross_checks():
    # Route A (package): e^2/(4 pi eps0) chain.  Route B: m_e c^2 alpha^2 / 2
    # uses a disjoint subset of the pinned constants.
    independent = 0.5 * C.m_e * C.c**2 * C.alpha**2
    err_energy = rel(C.rydberg_energy, independent)
    # CODATA 2018 R_inf * c at full published precision.
    err_freq = rel(C.rydberg_frequency, 3.2898419602508e15)
    # The same comparison against the 8-significant-digit rounding of that
    # value only makes sense at that rounding's own quantization (~1.5e-8).
    err_truncated = rel(C.rydberg_frequency, 3.2898419e15)
    ok = err_energy < 1e-8 and err_freq < 1e-8 and err_truncated < 2e-8
    check(
        7,
        ok,
        f"Ry vs (1/2) m_e c^2 alpha^2: {err_energy:.3e} (< 1e-8); "
        f"Ry/h vs 3.2898419602508e15 Hz: {err_freq:.3e} (< 1e-8); "
        f"vs 8-digit 3.2898419e15: {err_truncated:.3e} (< 2e-8)",
    )


def test_criterion_8_deterministic_cli_reproducibility():
    args = [
        sys.executable,
        "-m",
        "chargelimit",
        "simulate",
        "--current",
        "1.602176634e-13",
        "--df",
        "5e4",
        "--trials",
        "150000",
        "--seed",
        "424242",
        "--deterministic",
    ]
    env = os.environ.copy()
    env.pop("CHARGE_LIMIT_MATERIALS", None)
    runs = [
        subprocess.run(
            args + ["--workers", str(workers)],
            capture_output=True,
            text=True,
            env=env,
        )
        for workers in (1, 1, 4)
    ]
    codes_ok = all(r.returncode == 0 for r in runs)
    repeat_ok = runs[0].stdout == runs[1].stdout
    workers_ok = runs[0].stdout == runs[2].stdout
    parsed = json.loads(runs[0].stdout) if codes_ok else {}
    ok = codes_ok and repeat_ok and workers_ok and parsed.get("seed") == 424242
    check(
        8,
        ok,
        f"deterministic simulate JSON byte-identical: repeat run {repeat_ok}, "
        f"workers 1 vs 4 {workers_ok}, exit codes {[r.returncode for r in runs]}",
    )
