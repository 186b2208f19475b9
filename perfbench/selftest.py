#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` for each workload untraced and traced and fails
(exit 1) unless every run ends with the result line, reports no failed
operation, and prints every metric of ``BENCHMARK.json`` by name with
its unit, plus the throughput figures that apply to the workload.  It
also runs one workload traced twice and requires the exact counts to
repeat exactly.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRAS = {
    "cli-oneshot": (),
    "sweep": ("sweep_points_per_s",),
    "sim-poisson": ("sim_trials_per_s_w1", "sim_trials_per_s_w2"),
    "sim-noisy": ("sim_trials_per_s_w1", "sim_trials_per_s_w2"),
}
EXACT_COUNTS = (
    "devices.pipeline_calls_per_point",
    "noise.breakdown_calls_per_point",
    "rng.uniforms_per_trial",
    "kernels.cdf_table_len",
    "kernels.bytes_moved_per_block",
)


def run(workload: str, trace: int) -> tuple[dict, list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(l for l in lines if l.startswith("# record: "))[10:])
    return result, lines[:-1], record


def check(workload: str, trace: int) -> dict:
    result, lines, record = run(workload, trace)
    where = f"{workload} trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs], where
    printed = {line.split()[0]: line.split()[1:] for line in lines if line.startswith("  ")}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metric = result["metrics"][name]
        assert metric["unit"] == unit, f"{where}: {name} unit {metric['unit']}"
        assert printed[name][1] == unit, f"{where}: {name} printed as {printed[name]}"
        value = metric["value"]
        if value is None:
            assert trace and name in record["absent"], f"{where}: {name} absent, no reason"
        else:
            assert math.isfinite(value), f"{where}: {name} = {value}"
            assert trace or value > 0.0, f"{where}: {name} = {value}"
    for name in EXTRAS[workload] if not trace else ():
        assert printed[name][1] == "1/s", f"{where}: {name} not printed"
    assert printed["failed_ratio"][0] == "0", f"{where}: failed_ratio {printed['failed_ratio']}"
    print(f"ok  {where}: {result['attempted']} operations")
    return result["metrics"]


def main() -> int:
    for workload in EXTRAS:
        check(workload, 0)
        first = check(workload, 1)
    second = check(workload, 1)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], f"{name}: {first[name]} then {second[name]}"
    print("ok  exact counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
