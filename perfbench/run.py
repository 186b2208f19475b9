#!/usr/bin/env python3
"""Benchmark of the chargelimit package, from CLI start-up to the simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``cli-oneshot``, ``sweep``, ``sim-poisson`` and ``sim-noisy``
(see ``workloads.py`` for what each exercises and why).  One client runs
operations in a closed loop, in whole cycles, for about ``--seconds``;
every operation's output is checked.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, and a ``# record:``
line with the environment, per-class timings, failures and the digests
of seeded ``simulate --deterministic`` records.

``--trace 0`` prints the end-to-end metrics.  They are taken over the
operations that run on one worker (``workers=2`` operations are run,
checked and reported as ``sim_trials_per_s_w2``, but not gated).  The
times of in-process operations are scaled to nominal machine speed by a
reference task timed after each operation (see ``reference.py``); the
raw figures are printed beside them and kept in the record.

* ``setup_s``: median over several fresh processes of the time from
  process start to the first timed operation (imports, inputs, warm-up).
* ``op_ms_p50``: mean over operation classes of each class's median wall
  time per operation (classes differ by command and regime).
* ``op_ms_tail``: the highest percentile of the operation times that has
  at least ten operations beyond it; the percentile and sample count are
  printed.
* ``items_per_s``: work items per second of busy time: simulated trials
  (sim-*), sweep points (sweep) or CLI processes (cli-oneshot).
* ``peak_rss_mb``: peak resident memory of the benchmark process and of
  its largest child.

``failed_ratio`` is the JSON line's ``failed`` over ``attempted``.
``--trace 1`` runs half the time untraced and half traced, and prints the
per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  ``--tiny`` shrinks every operation; the self-test
uses it.

Exits 2 without a result when the checkout holds no ``src/chargelimit``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import env
import reference

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
PROBE_REPEATS = 25


@dataclass
class Sample:
    op: object
    seconds: float
    problem: str | None
    reference: float | None = None  # seconds of the paired reference task


def _timed(op, recorder) -> Sample:
    context = (
        recorder.operation(kind=op.kind, items=op.items, workers=op.workers,
                           regime=op.regime)
        if recorder is not None else contextlib.nullcontext()
    )
    start = time.perf_counter()
    try:
        with context:
            out = op.run()
    except Exception as exc:  # an operation that raises counts as failed
        return Sample(op, time.perf_counter() - start, f"{op.cls}: raised {exc!r}")
    seconds = time.perf_counter() - start
    try:
        problem = op.check(out)
    except Exception as exc:  # so does output the check cannot read
        problem = f"{op.cls}: check raised {exc!r}"
    return Sample(op, seconds, problem)


def measure(workload, seconds: float, recorder=None, between=None,
            paired: bool = False) -> list[Sample]:
    """Run whole cycles until the operations have taken ``seconds`` in all.

    ``between(share)`` runs after each cycle with the share of ``seconds``
    used so far; its time is not counted.  With ``paired``, each operation
    is followed by its reference task (see ``reference.py``).
    """
    samples = []
    busy = 0.0
    while True:
        cycle = []
        for op in workload.cycle():
            cycle.append(_timed(op, recorder))
            if paired and op.kind in reference.FOR_OP:
                cycle[-1].reference = reference.time_task(reference.FOR_OP[op.kind])
        samples.extend(cycle)
        busy += sum(sample.seconds for sample in cycle)
        if between is not None:
            between(busy / seconds if seconds > 0 else 1.0)
        if busy >= seconds:
            return samples


def summarize(samples: list[Sample]) -> dict:
    by_class = defaultdict(list)
    for sample in samples:
        by_class[sample.op.cls].append(sample.seconds)
    medians = {cls: statistics.median(times) for cls, times in by_class.items()}
    times = sorted(s.seconds for s in samples)
    n = len(times)
    k = n - 11 if n >= 11 else n - 1
    summary = {
        "op_ms_p50": statistics.mean(medians.values()) * 1e3,
        "op_ms_tail": times[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_beyond": n - 1 - k,
        "ops": n,
        "items_per_s": sum(s.op.items for s in samples) / sum(s.seconds for s in samples),
        "classes": {cls: {"n": len(by_class[cls]), "median_ms": m * 1e3}
                    for cls, m in medians.items()},
    }
    for label, kind, workers in (
        ("sim_trials_per_s_w1", "simulate", 1),
        ("sim_trials_per_s_w2", "simulate", 2),
        ("sweep_points_per_s", "sweep", 1),
    ):
        chosen = [s for s in samples if s.op.kind == kind and s.op.workers == workers]
        if chosen:
            summary[label] = (sum(s.op.items for s in chosen)
                              / sum(s.seconds for s in chosen))
    return summary


def scaled(samples: list[Sample]) -> list[Sample]:
    """The samples with in-process times scaled to nominal machine speed."""
    by_kind = defaultdict(list)
    for sample in samples:
        by_kind[sample.op.kind].append(sample)
    out = []
    for kind, group in by_kind.items():
        if kind not in reference.FOR_OP:
            out.extend(group)
            continue
        factors = reference.factors(reference.FOR_OP[kind], [s.reference for s in group])
        out.extend(replace(s, seconds=s.seconds * f) for s, f in zip(group, factors))
    return out


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Process start to ready-for-first-operation, in a fresh interpreter."""
    command = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    if tiny:
        command.append("--tiny")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(command, cwd=env.ROOT,
                          capture_output=True, text=True, timeout=150)
    words = done.stdout.split()
    if done.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(words[1]) - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workloads, args) -> tuple[dict, list[Sample], dict]:
    repeats = 1 if args.tiny else SETUP_REPEATS
    setups: list[float] = []

    def probe_until(count: float) -> None:
        while len(setups) < min(repeats, count):
            setups.append(setup_seconds(args.workload, args.seed, args.tiny))

    # Set-ups are spread over the run, so that one slow spell on a shared
    # machine cannot shift all of them.
    workload = workloads.make(args.workload, args.seed, args.tiny)
    workload.warm_up()
    samples = measure(workload, args.seconds, paired=True,
                      between=lambda share: probe_until(math.ceil(repeats * share)))
    probe_until(repeats)
    summary = summarize(samples)
    # Only single-worker operations are gated: whether the second of two
    # shared cores is free varies from run to run far more than the code's
    # own cost does.  Two-worker figures stay in the record, unscaled.
    single = [sample for sample in samples if sample.op.workers == 1]
    raw = summarize(single)
    gated = summarize(scaled(single))
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": gated["op_ms_p50"],
        "op_ms_tail": gated["op_ms_tail"],
        "items_per_s": gated["items_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    is_scaled = any(sample.reference is not None for sample in single)

    def raw_note(key: str, unit: str) -> str:
        return f"scaled; raw {raw[key]:.4g} {unit}" if is_scaled else "unscaled"

    notes = {
        "setup_s": f"unscaled; median of {repeats} set-ups",
        "op_ms_p50": (f"{raw_note('op_ms_p50', 'ms')}; "
                      f"{len(gated['classes'])} single-worker operation classes"),
        "op_ms_tail": (f"{raw_note('op_ms_tail', 'ms')}; "
                       f"p{gated['tail_percentile']:.1f} of {gated['ops']} "
                       f"single-worker ops, {gated['tail_beyond']} beyond"),
        "items_per_s": raw_note("items_per_s", "1/s"),
    }
    extra = {"summary": summary, "single_worker_raw": raw, "single_worker_scaled": gated,
             "setup_s_samples": setups, "notes": notes,
             "digests": getattr(workload, "digests", {})}
    return metrics, samples, extra


def per_layer(workloads, tracing, args) -> tuple[dict, list[Sample], dict]:
    workload = workloads.make(args.workload, args.seed, args.tiny)
    workload.warm_up()
    untraced = measure(workload, args.seconds / 2)
    recorder = tracing.Recorder()
    recorder.install()
    coverage: list[Sample] = []
    try:
        traced = measure(workload, args.seconds / 2, recorder)
        own = tracing.span_metrics(tracing.Spans(recorder))
        recorder.clear()
        # Layers this workload never reaches are measured on one cycle of
        # each other in-process workload, so every metric has a value.
        if any(own.get(name) is None for name in tracing.NEEDS):
            for other in workloads.NAMES:
                if other not in (args.workload, "cli-oneshot"):
                    coverage += measure(workloads.make(other, args.seed, args.tiny), 0.0,
                                        recorder)
        covered = tracing.span_metrics(tracing.Spans(recorder))
    finally:
        recorder.restore()
        recorder.clear()

    repeats = 1 if args.tiny else IMPORT_REPEATS
    values: dict[str, float | str | None] = {
        f"imports.{k}_ms": v for k, v in tracing.import_ms(repeats).items()
    }
    argvs = [op.argv for op in workloads.make("cli-oneshot", args.seed, args.tiny).cycle()]
    values["cli.parse_ms"] = tracing.parse_ms(argvs, 3 if args.tiny else PROBE_REPEATS)
    values.update(tracing.kernel_ms(3 if args.tiny else PROBE_REPEATS))
    sources = {}
    for name, needs in tracing.NEEDS.items():
        gone = [recorder.absent[n] for n in needs if n in recorder.absent]
        if gone:
            values[name] = "; ".join(gone)
        elif own.get(name) is not None:
            values[name], sources[name] = own[name], args.workload
        elif covered.get(name) is not None:
            values[name], sources[name] = covered[name], "coverage cycle"
        else:
            values[name] = "no spans recorded"
    values["trace.overhead_ms"] = (summarize(traced)["op_ms_p50"]
                                   - summarize(untraced)["op_ms_p50"])
    extra = {"sources": sources,
             "notes": {"kernels.bytes_moved_per_block": "computed from array sizes"},
             "untraced": summarize(untraced), "traced": summarize(traced)}
    return values, untraced + traced + coverage, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every operation (self-test)")
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    if args.trace:
        values, samples, extra = per_layer(workloads, tracing, args)
    else:
        values, samples, extra = end_to_end(workloads, args)
    # Names, units and print order come from the benchmark's spec; a value
    # that is a string is the reason the metric is absent.
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    metrics, absent = {}, {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[metric["name"]]
        if isinstance(value, str):
            absent[metric["name"]] = value
            value = None
        metrics[metric["name"]] = (value, metric["unit"])
    extra["absent"] = absent
    failures = [s.problem for s in samples if s.problem is not None]
    attempted = len(samples)
    extra["digests"] = {**extra.get("digests", {}), **workloads.golden_digests()}

    print(f"# chargelimit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    notes = extra["notes"]
    for name, (value, unit) in metrics.items():
        text = "absent" if value is None else f"{value:.6g}"
        note = absent.get(name) or notes.get(name, "")
        print(f"  {name:<46} {text:>12} {unit:<10} {note}")
    for name, unit in (("sim_trials_per_s_w1", "1/s"), ("sim_trials_per_s_w2", "1/s"),
                       ("sweep_points_per_s", "1/s")):
        value = extra.get("summary", {}).get(name)
        if value is not None:
            print(f"  {name:<46} {value:>12.6g} {unit}")
    print(f"  {'failed_ratio':<46} {len(failures) / attempted:>12.6g} ratio      "
          f"{len(failures)} of {attempted} operations")
    for problem in failures[:5]:
        print(f"# failed: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env.describe(),
        "failed_ratio": {"failed": len(failures), "attempted": attempted},
        **{k: v for k, v in extra.items() if k != "notes"},
    }
    print("# record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
