"""The benchmark's four workloads, each a closed loop of checked operations.

An operation is one ``python -m chargelimit`` process, one in-process
``cli.main(["sweep", ...])`` call with stdout captured, or one
``montecarlo.simulate_detection`` call.  A workload yields its operations
in cycles with a fixed order; every cycle draws fresh inputs from a
``random.Random(seed)`` stream, so a seed fixes every input of a run.

Why these four (one exercises each planned optimisation, another
bypasses it):

* ``cli-oneshot`` pays interpreter start and imports on every call; it is
  the only workload a lazy import can speed up, apart from ``setup_s``.
* ``sweep`` is per-point device/noise evaluation plus CLI formatting,
  with no simulator, so kernel work must leave it unchanged.
* ``sim-poisson`` is Philox uniforms, Poisson CDF inversion and moment
  sums with no inverse normal.
* ``sim-noisy`` is dominated by the inverse normal (thermal noise on the
  Poisson path, and the Gaussian path that bypasses CDF inversion).

Every operation is checked after it is timed; a check returns ``None``
when the output is right and a one-line problem otherwise.  The package
is reached only through module attributes looked up at call time, so a
traced run can wrap them and later refactors of the internals do not
break the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from chargelimit import cli, constants, devices, materials, montecarlo

import env

NAMES = ("cli-oneshot", "sweep", "sim-poisson", "sim-noisy")

#: README headline values, (f_unity Hz, sensitivity e/sqrt(Hz)) at 3 s.f.
HEADLINES = {
    "wire vacuum": (3.29e15, 1.74e-8),
    "wire gaas": (1.32e12, 8.69e-7),
    "qpc 20nm gaas": (1.02e13, 3.13e-7),
    "set 50nm 12.9": (4.24e11, 1.54e-6),
}

#: Seeded `simulate --deterministic` records whose digests every result
#: carries: the README example, thermal noise, Gaussian fallback
#: (fano != 1) and a partial last block at a large Poisson mean.
GOLDEN = (
    ["simulate", "--current", "1.602176634e-13A", "--df", "5e4Hz",
     "--trials", "100000", "--seed", "101", "--deterministic"],
    ["simulate", "--current", "1.602176634e-13A", "--df", "5e4Hz",
     "--trials", "100000", "--seed", "7", "--temperature", "4.2K",
     "--conductance", "2e-12S", "--deterministic"],
    ["simulate", "--current", "1.602176634e-11A", "--df", "5e4Hz",
     "--trials", "100000", "--seed", "11", "--fano", "0.5", "--deterministic"],
    ["simulate", "--current", "1.602176634e-10A", "--df", "5e4Hz",
     "--trials", "70000", "--seed", "13", "--deterministic"],
)

_E = constants.CONSTANTS.e
_K_B = constants.CONSTANTS.k_B
_SIM_DF = 5.0e4
_PROCESS_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation and the check of its output."""

    cls: str  # operation class; medians are taken per class
    kind: str  # "cli-process", "sweep" or "simulate"
    items: int  # work items: trials, sweep points, or 1 per process
    run: Callable[[], object]
    check: Callable[[object], str | None]
    workers: int = 1
    regime: str | None = None
    argv: list[str] | None = None  # CLI arguments, for operations that have them


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _sig3(value: float) -> float:
    return float(f"{value:.3g}")


def _headline_problem(label: str, f_unity: float, sens: float) -> str | None:
    want_f, want_s = HEADLINES[label]
    if _sig3(f_unity) != want_f or _sig3(sens) != want_s:
        return f"{label}: got f_unity {f_unity!r}, sensitivity {sens!r}"
    return None


def _material(name: str) -> materials.Material:
    return materials.builtin_materials()[materials.canonical_name(name)]


def _capture_main(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def golden_digests() -> dict[str, str]:
    """sha256 of each GOLDEN record's stdout, run in process.

    A changed digest is reported, not failed: planned kernel work may
    change the Gaussian-path bits on purpose.
    """
    digests = {}
    for argv in GOLDEN:
        _, text = _capture_main(list(argv))
        digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


# --------------------------------------------------------------------------
# Sweep output checks (shared by cli-oneshot and sweep)
# --------------------------------------------------------------------------

def _sweep_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["outputs"]["rows"]
    lines = text.splitlines()
    header = lines[0].split(",")
    if tuple(header) != tuple(cli.SWEEP_HEADER):
        raise ValueError(f"unexpected sweep header {lines[0]!r}")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_sweep(text: str, fmt: str, points: int, df: float,
                 closed_form_f: float | None) -> str | None:
    rows = _sweep_rows(text, fmt)
    if len(rows) != points:
        return f"sweep gave {len(rows)} rows, wanted {points}"
    for row in rows:
        snr = float(row["snr"])
        f_unity = float(row["f_unity_hz"])
        if not (math.isfinite(f_unity) and f_unity > 0.0):
            return f"sweep row {row['value']}: f_unity {f_unity!r}"
        if not _rel_close(snr * snr * df, f_unity, 1e-12):
            return f"sweep row {row['value']}: snr^2*df {snr * snr * df!r} != f_unity {f_unity!r}"
        if closed_form_f is not None and not _rel_close(f_unity, closed_form_f, 1e-12):
            return f"sweep row {row['value']}: pipeline {f_unity!r} != closed form {closed_form_f!r}"
    return None


def _sweep_argv(device: str, axis: str, start: str, stop: str, points: int,
                spacing: str, fmt: str, extra: list[str]) -> list[str]:
    return [
        "sweep", "--device", device, "--axis", axis, "--start", start,
        "--stop", stop, "--points", str(points), "--spacing", spacing,
        "--format", fmt, "--deterministic", *extra,
    ]


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """Base: a seeded input stream plus a fixed per-cycle operation list."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(seed)

    def cycle(self, small: bool = False) -> list[Op]:
        """The next cycle of operations; ``small`` shrinks each for warm-up."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run one small untimed cycle so lazy set-up is paid before timing."""
        for op in self.cycle(small=True):
            problem = op.check(op.run())
            if problem:
                raise RuntimeError(f"warm-up failed: {problem}")


class CliOneshot(Workload):
    """One fresh ``python -m chargelimit`` process per operation."""

    name = "cli-oneshot"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.trials = 20_000 if tiny else 100_000
        self.sim_stdout: bytes | None = None
        self.digests: dict[str, str] = {}

    def _process(self, cls: str, argv: list[str], check, workers: int = 1) -> Op:
        command = [sys.executable, "-m", "chargelimit", *argv]

        def run():
            return subprocess.run(
                command, cwd=env.ROOT, capture_output=True,
                timeout=_PROCESS_TIMEOUT_S,
            )

        def checked(done):
            if done.returncode != 0:
                tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
                return f"{' '.join(argv)}: exit {done.returncode} {tail}"
            return check(done.stdout)

        return Op(cls=cls, kind="cli-process", items=1, run=run, check=checked,
                  workers=workers, argv=argv)

    def cycle(self, small: bool = False) -> list[Op]:
        r = self.rng
        material = r.choice(("vacuum", "gaas", "GaAs-like"))
        wire_material = r.choice(("vacuum", "gaas"))
        df = [f"{10 ** r.uniform(0, 9):.6g}Hz" for _ in range(4)]
        start_nm = r.uniform(1.0, 5.0)
        current = 1.602176634e-13 * r.uniform(0.5, 2.0)
        sim_seed = r.randrange(2**63)
        sweep = _sweep_argv(
            "wire", "R", f"{start_nm:.4g}nm", "1um", 31, "log", "csv",
            ["--material", "gaas", "--df", df[3]],
        )
        simulate = [
            "simulate", "--current", f"{current!r}A", "--df", "5e4Hz",
            "--trials", str(self.trials), "--seed", str(sim_seed),
            "--deterministic", "--workers",
        ]
        sweep_df = cli.parse_quantity(df[3], "frequency")
        gaas_f = devices.wire_snr(_material("gaas"), sweep_df).f_unity
        return [
            self._process("constants", ["constants", "--json"], self._check_constants),
            self._process("material", ["material", "show", material, "--json"],
                          lambda out: self._check_material(out, material)),
            self._process("wire", ["wire", "--material", wire_material, "--df", df[0], "--json"],
                          lambda out: self._check_device(out, f"wire {wire_material}")),
            self._process("qpc", ["qpc", "--width", "20nm", "--material", "gaas",
                                  "--df", df[1], "--json"],
                          lambda out: self._check_device(out, "qpc 20nm gaas")),
            self._process("set", ["set", "--radius", "50nm", "--epsr", "12.9",
                                  "--df", df[2], "--json"],
                          lambda out: self._check_device(out, "set 50nm 12.9")),
            self._process("report", ["report", "--json"], self._check_report),
            self._process("sweep", sweep,
                          lambda out: _check_sweep(out.decode(), "csv", 31, sweep_df, gaas_f)),
            self._process("simulate w1", [*simulate, "1"], self._check_sim_w1),
            self._process("simulate w2", [*simulate, "2"],
                          lambda out: self._check_sim_w2(out, " ".join(simulate)), workers=2),
        ]

    @staticmethod
    def _check_constants(out: bytes) -> str | None:
        value = json.loads(out)["outputs"]["e_C"]
        return None if value == _E else f"constants: e_C {value!r}"

    @staticmethod
    def _check_material(out: bytes, name: str) -> str | None:
        got = json.loads(out)["outputs"]["rydberg_frequency_Hz"]
        want = materials.effective_scales(_material(name)).rydberg_frequency
        return None if _rel_close(got, want, 1e-12) else f"material {name}: {got!r} != {want!r}"

    @staticmethod
    def _check_device(out: bytes, label: str) -> str | None:
        outputs = json.loads(out)["outputs"]
        return _headline_problem(label, outputs["f_unity_hz"], outputs["sensitivity_e_per_rthz"])

    @staticmethod
    def _check_report(out: bytes) -> str | None:
        rows = json.loads(out)["outputs"]["rows"]
        labels = ("wire vacuum", "wire gaas", "wire gaas", "set 50nm 12.9")
        if len(rows) != len(labels):
            return f"report: {len(rows)} rows"
        for row, label in zip(rows, labels):
            if not row["within_target"]:
                return f"report: {row['label']} outside its target"
            problem = _headline_problem(label, row["f_unity_hz"], row["sensitivity_e_per_rthz"])
            if problem:
                return f"report: {problem}"
        return None

    def _check_sim_w1(self, out: bytes) -> str | None:
        self.sim_stdout = out
        outputs = json.loads(out)["outputs"]
        if not outputs["n_sigma"] <= 5.0:
            return f"simulate: n_sigma {outputs['n_sigma']!r} > 5"
        return None

    def _check_sim_w2(self, out: bytes, command: str) -> str | None:
        first, self.sim_stdout = self.sim_stdout, None
        if not self.digests:
            self.digests[command] = hashlib.sha256(out).hexdigest()
        if out != first:
            return "simulate: stdout differs between --workers 1 and 2"
        return None

    def warm_up(self) -> None:
        """One process: the client itself has nothing else to warm."""
        op = self._process("constants", ["constants", "--json"], self._check_constants)
        problem = op.check(op.run())
        if problem:
            raise RuntimeError(f"warm-up failed: {problem}")


class Sweep(Workload):
    """In-process ``cli.main(["sweep", ...])`` over long axes."""

    name = "sweep"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.points = 40 if tiny else 2000

    def _op(self, cls: str, argv: list[str], fmt: str, df: float,
            closed_form_f: float | None = None) -> Op:
        points = int(argv[argv.index("--points") + 1])
        return Op(
            cls=cls, kind="sweep", items=points, argv=argv,
            run=lambda: _capture_main(argv),
            check=lambda out: (
                f"sweep exit {out[0]}" if out[0] != 0
                else _check_sweep(out[1], fmt, points, df, closed_form_f)
            ),
        )

    def cycle(self, small: bool = False) -> list[Op]:
        r = self.rng
        n = 31 if small else self.points
        host = r.choice(("gaas", "vacuum"))
        df = [10 ** r.uniform(0, 9) for _ in range(6)]
        dfs = [f"{value!r}Hz" for value in df]
        wire_f = [devices.wire_snr(_material(host), value).f_unity for value in df]
        r_lo = f"{r.uniform(0.5, 2.0):.4g}nm"
        w_lo = f"{r.uniform(5.0, 10.0):.4g}nm"
        island_lo = f"{r.uniform(5.0, 20.0):.4g}nm"
        t_hi = f"{r.uniform(100.0, 300.0):.4g}K"
        return [
            self._op("wire R csv", _sweep_argv(
                "wire", "R", r_lo, "1um", n, "log", "csv",
                ["--material", host, "--df", dfs[0]]), "csv", df[0], wire_f[0]),
            self._op("qpc W csv", _sweep_argv(
                "qpc", "W", w_lo, "200nm", n, "log", "csv",
                ["--material", "gaas", "--df", dfs[1]]), "csv", df[1]),
            self._op("set R_island csv", _sweep_argv(
                "set", "R_island", island_lo, "500nm", n, "log", "csv",
                ["--epsr", "12.9", "--df", dfs[2]]), "csv", df[2]),
            self._op("wire T csv", _sweep_argv(
                "wire", "T", "0K", t_hi, n, "linear", "csv",
                ["--material", host, "--radius", "20nm", "--df", dfs[3]]), "csv", df[3]),
            self._op("wire R json", _sweep_argv(
                "wire", "R", r_lo, "1um", n, "log", "json",
                ["--material", host, "--df", dfs[4]]), "json", df[4], wire_f[4]),
            self._op("qpc T json", _sweep_argv(
                "qpc", "T", "0K", t_hi, n, "linear", "json",
                ["--material", "gaas", "--width", "20nm", "--df", dfs[5]]), "json", df[5]),
        ]


@dataclass(frozen=True)
class _SimCase:
    regime: str
    lam: float
    temperature: float = 0.0
    sigma: float = 0.0  # thermal noise in electrons per window
    fano: float = 1.0


class _Simulation(Workload):
    """In-process ``simulate_detection``: each case at workers 1, then 2."""

    cases: tuple[_SimCase, ...] = ()

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        # Not a multiple of the 65 536-trial block: the last block is partial.
        self.trials = 140_000 if tiny else 1_000_000
        self.first: montecarlo.SimOutcome | None = None

    def _config(self, case: _SimCase, seed: int, trials: int) -> montecarlo.SimConfig:
        conductance = None
        if case.sigma > 0.0:
            # sigma = sqrt(4 k_B T G df) / (2 df e)  =>  G below
            conductance = (2.0 * _E * case.sigma) ** 2 * _SIM_DF / (4.0 * _K_B * case.temperature)
        return montecarlo.SimConfig(
            on_current=case.lam * 2.0 * _SIM_DF * _E, bandwidth=_SIM_DF,
            temperature=case.temperature, conductance=conductance,
            trials=trials, seed=seed, fano=case.fano,
        )

    def _check(self, outcome: montecarlo.SimOutcome, workers: int) -> str | None:
        if workers == 1:
            self.first = outcome
        else:
            first, self.first = self.first, None
            if outcome != first:
                return "simulate_detection: outcome differs between workers 1 and 2"
        gap = abs(outcome.empirical_snr - outcome.analytic_snr)
        if not gap <= 5.0 * outcome.snr_stderr:
            return (f"simulate_detection: |{outcome.empirical_snr!r} - "
                    f"{outcome.analytic_snr!r}| > 5 * {outcome.snr_stderr!r}")
        return None

    def cycle(self, small: bool = False) -> list[Op]:
        trials = 1000 if small else self.trials
        ops = []
        for case in self.cases:
            cfg = self._config(case, self.rng.randrange(2**63), trials)
            for workers in (1, 2):
                ops.append(Op(
                    cls=f"{case.regime} lam={case.lam:g} fano={case.fano:g} w{workers}",
                    kind="simulate", items=trials, workers=workers, regime=case.regime,
                    run=lambda cfg=cfg, workers=workers: montecarlo.simulate_detection(
                        cfg, workers=workers),
                    check=lambda out, workers=workers: self._check(out, workers),
                ))
        return ops


class SimPoisson(_Simulation):
    name = "sim-poisson"
    cases = (
        _SimCase("poisson", 0.5),
        _SimCase("poisson", 10.0),
        _SimCase("poisson", 1.0e3),
    )


class SimNoisy(_Simulation):
    name = "sim-noisy"
    cases = (
        _SimCase("poisson_thermal", 10.0, temperature=4.2, sigma=2.0),
        _SimCase("poisson_thermal", 1.0e3, temperature=4.2, sigma=20.0),
        _SimCase("gaussian", 1.0e8),
        _SimCase("gaussian", 200.0, fano=0.5),
    )


_CLASSES = {cls.name: cls for cls in (CliOneshot, Sweep, SimPoisson, SimNoisy)}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return _CLASSES[name](seed, tiny)
