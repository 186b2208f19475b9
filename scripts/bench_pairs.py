"""Alternate ``perfbench/run.py`` runs of two checkouts and summarise them.

Each seed gives one pair of runs, one per checkout, on the same workload
and for the same seconds; the order within a pair alternates, so that a
slow spell of a shared machine is not always paid by the same side.  For
every metric the benchmark declares (end-to-end, or per-layer with
``--trace 1``) the summary holds each side's median, quartiles and IQR,
the ratio of the medians and the number of pairs that the change wins.
Run from the root of the changed checkout, against a ``git clone`` of
the parent (a ``git archive`` copy records no commit); neither may
change while the runs last:

    python scripts/bench_pairs.py --base ../parent --workload sim-noisy \\
        --seeds 31-40 --seconds 20 --out BENCH_N.json

An existing ``--out`` file keeps the summaries of other workloads, so
several invocations fill one file (the ROADMAP's north star asks for
one ``BENCH_<n>.json`` per change).  Each run's metrics are kept in it with
the commit and source digest that the run itself reported, and each
side's env holds the versions, the machine, ``PYTHONDONTWRITEBYTECODE``
(when set, no process writes bytecode) and, under ``fresh_bytecode``,
the ``chargelimit`` modules of that side that had fresh bytecode before
and after its runs (a process reads fresh bytecode whatever that
variable says, and compiles every other module from source).  The script
says why, exits 1 and writes nothing when a ``perfbench/run.py`` run
exits non-zero, when the runs of one side report different source
digests (the side was not one program), or when a run's source digest
is not that of ``src/chargelimit`` at the commit it reports (the
checkout had changes that were not committed, or it is no git clone, so
its runs report no commit).

After the runs, the script also starts ``PROBE_REPEATS``
``python -X importtime -m chargelimit`` processes of a ``sweep`` and of
a ``simulate`` command on each side's sources, the two sides in turn and
in alternating order, and keeps in each side's env, under ``imports``,
each command's median self import time of numpy and of chargelimit,
split by ``perfbench/tracing.py``'s own parser.
``perfbench`` itself times only ``import chargelimit.cli``, which no
longer loads numpy.  A probe that cannot run is kept as the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
from oneshot_ms import fresh_bytecode  # noqa: E402
from tracing import parse_importtime  # noqa: E402

SIDES = ("base", "change")
_RUN_KEYS = ("commit", "source_sha256")
_ENV_KEYS = (*_RUN_KEYS, "python", "numpy", "scipy", "nproc", "machine")
PROBE_REPEATS = 5
_PROBES = {
    "sweep": ["sweep", "--device", "wire", "--axis", "R", "--start", "1nm", "--stop", "1um",
              "--points", "31", "--spacing", "log", "--df", "1MHz", "--deterministic"],
    "simulate": ["simulate", "--current", "1.602176634e-13A", "--df", "5e4Hz", "--trials",
                 "1000", "--seed", "1", "--deterministic"],
}


def parse_run(stdout: str) -> tuple[dict, dict]:
    """``(metrics, record)`` of one run: metric name -> value (None when
    absent) from the last line, and the ``# record:`` object."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    records = [line[len("# record: "):] for line in lines if line.startswith("# record: ")]
    if len(records) != 1:
        raise ValueError(f"expected one '# record:' line, found {len(records)}")
    if result["failed"]:
        raise ValueError(f"{result['failed']} of {result['attempted']} operations failed")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, json.loads(records[0])


def side_envs(records: dict[str, list[dict]], environ) -> dict:
    """Each side's env from the ``# record:`` objects of its runs: a key's
    value where every run agrees, else None, plus ``PYTHONDONTWRITEBYTECODE``
    from ``environ``.  Raises ValueError when one side's runs report more
    than one source digest."""
    envs = {}
    for side, side_records in records.items():
        runs = [record["env"] for record in side_records]
        sources = sorted({str(env.get("source_sha256")) for env in runs})
        if len(sources) > 1:
            raise ValueError(f"the {side} runs measured {len(sources)} different sources: "
                             + ", ".join(source[:12] for source in sources))
        envs[side] = {key: runs[0].get(key) if all(env.get(key) == runs[0].get(key) for env in runs)
                      else None for key in _ENV_KEYS}
        envs[side]["PYTHONDONTWRITEBYTECODE"] = environ.get("PYTHONDONTWRITEBYTECODE")
    return envs


def commit_digest(checkout: Path, commit: str) -> str:
    """sha256 of ``src/chargelimit`` at ``commit`` of the git clone
    ``checkout``, by the recipe of ``perfbench/env.py``: each file's path
    below ``src`` and its bytes, in path order, ``__pycache__`` left out."""
    done = subprocess.run(["git", "archive", "--format=tar", commit, "src/chargelimit"],
                          cwd=checkout, capture_output=True, timeout=60)
    if done.returncode != 0:
        raise ValueError(f"git archive {commit} in {checkout} failed: "
                         + done.stderr.decode(errors="replace").strip())
    files = {}
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        for member in archive.getmembers():
            parts = Path(member.name).parts[1:]  # the path below src, as a Path sorts it
            if member.isfile() and "__pycache__" not in parts:
                files[parts] = archive.extractfile(member).read()
    digest = hashlib.sha256()
    for parts in sorted(files):
        digest.update("/".join(parts).encode())
        digest.update(files[parts])
    return digest.hexdigest()


def check_source(checkout: Path, env: dict, digests: dict) -> None:
    """Raise ValueError unless a run's ``env`` reports the source digest of
    the commit it reports; ``digests`` keeps (checkout, commit) -> digest."""
    commit = env.get("commit")
    if commit is None:
        raise ValueError(f"a run in {checkout} reports no commit, so its source cannot be "
                         "checked; run it from a git clone")
    if (checkout, commit) not in digests:
        digests[checkout, commit] = commit_digest(checkout, commit)
    measured = str(env.get("source_sha256"))
    if digests[checkout, commit] != measured:
        raise ValueError(f"a run in {checkout} measured source {measured[:12]}, not "
                         f"{digests[checkout, commit][:12]} of its commit {commit[:12]}; "
                         "commit or drop the checkout's changes")


def import_medians(stderrs: dict[str, list[str]]) -> dict:
    """Per probe command, the median self import ms of numpy and of
    chargelimit over that command's ``-X importtime`` outputs."""
    return {command: {f"{package}_ms": statistics.median(parse_importtime(text)[package]
                                                        for text in texts)
                      for package in ("numpy", "chargelimit")}
            for command, texts in stderrs.items()}


def import_probe(checkouts: dict[str, Path]) -> dict:
    """Per side, ``import_medians`` of ``PROBE_REPEATS`` runs of each probe
    command on the sources of its checkout, or why one of its runs failed.

    Each repeat runs each command on every side in turn, and the side
    order alternates from one repeat to the next as in the pairs of runs,
    so that a slow spell of the machine falls on both sides alike.
    """
    stderrs = {side: {command: [] for command in _PROBES} for side in checkouts}
    reasons = {}
    for repeat in range(PROBE_REPEATS):
        for command, argv in _PROBES.items():
            for side in list(checkouts)[::-1 if repeat % 2 else 1]:
                if side in reasons:
                    continue
                env = {**os.environ, "PYTHONPATH": str(checkouts[side] / "src"),
                       "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
                try:
                    done = subprocess.run([sys.executable, "-X", "importtime", "-m",
                                           "chargelimit", *argv], cwd=checkouts[side], env=env,
                                          capture_output=True, text=True, timeout=120)
                except OSError as error:
                    reasons[side] = f"the {command} probe did not start: {error}"
                    continue
                if done.returncode != 0:
                    errors = [line for line in done.stderr.splitlines()
                              if not line.startswith("import time:")]
                    reasons[side] = (f"the {command} probe exited {done.returncode}: "
                                     + "".join(errors[-1:]))
                    continue
                stderrs[side][command].append(done.stderr)
    return {side: reasons.get(side) or import_medians(stderrs[side]) for side in checkouts}


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR (inclusive quartiles) of at least one value."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per metric of ``spec``: each side's spread, the median ratio and the
    change's wins over the pairs.  ``runs`` hold ``seed``, ``side`` and
    ``metrics``; a pair is the two runs of one seed."""
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [pair for pair in by_seed.values() if set(pair) == set(SIDES)]
    out = {}
    for metric in spec:
        name = metric["name"]
        values = {side: [pair[side][name] for pair in pairs if pair[side][name] is not None]
                  for side in SIDES}
        if not all(values.values()):
            out[name] = {"unit": metric["unit"], "absent": True}
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        both = [pair for pair in pairs if None not in (pair["base"][name], pair["change"][name])]
        base, change = spread(values["base"]), spread(values["change"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "change": change,
            "ratio": change["median"] / base["median"] if base["median"] else None,
            "wins": sum(sign * (p["change"][name] - p["base"][name]) > 0 for p in both),
            "pairs": len(both),
            "beyond_base_iqr": abs(change["median"] - base["median"]) > base["iqr"],
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=60 * seconds + 600)
    if done.returncode != 0:
        last = done.stderr.strip().splitlines()[-1:]
        raise ValueError(f"{checkout}: {' '.join(command)} exited {done.returncode}: "
                         + "".join(last))
    return done.stdout


def seed_list(text: str) -> list[int]:
    """``"31-35,40"`` -> [31, 32, 33, 34, 35, 40]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help='e.g. "31-40"')
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    runs, records, digests = [], {side: [] for side in SIDES}, {}
    packages = {side: checkout / "src" / "chargelimit" for side, checkout in checkouts.items()}
    fresh = {side: {"before": fresh_bytecode(package)} for side, package in packages.items()}
    try:
        for index, seed in enumerate(args.seeds):
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                stdout = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
                metrics, record = parse_run(stdout)
                check_source(checkouts[side], record["env"], digests)
                records[side].append(record)
                runs.append({"seed": seed, "side": side, "metrics": metrics,
                             **{key: record["env"].get(key) for key in _RUN_KEYS}})
                print(f"seed {seed} {side:<6} " + "  ".join(
                    f"{name}={value:.4g}" for name, value in metrics.items()
                    if isinstance(value, float)), file=sys.stderr)
        envs = side_envs(records, os.environ)
        for side, package in packages.items():
            envs[side]["fresh_bytecode"] = {**fresh[side], "after": fresh_bytecode(package)}
        for side, imports in import_probe(checkouts).items():
            envs[side]["imports"] = imports
    except ValueError as error:
        print(f"bench_pairs: {error}; {args.out} is not written", file=sys.stderr)
        return 1

    document = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    key = args.workload + ("/trace" if args.trace else "")
    document["workloads"][key] = {
        "env": envs,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "metrics": summarize(runs, spec["per_layer" if args.trace else "end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
