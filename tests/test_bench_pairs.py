"""``scripts/bench_pairs.py``, the paired summary behind each BENCH file."""

import compileall
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

SPEC = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower"},
    {"name": "items_per_s", "unit": "1/s", "better": "higher"},
    {"name": "imports.scipy_ms", "unit": "ms", "better": "lower"},
]


def load_script(path=SCRIPT, name="bench_pairs"):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_stdout(p50, items, failed=0, commit=None, source="0" * 64):
    """The tail of a perfbench/run.py run, as it prints it."""
    record = {"env": {"commit": commit, "source_sha256": source, "numpy": "2.4.6"}, "seed": 1}
    result = {
        "correct": not failed, "attempted": 40, "failed": failed,
        "metrics": {
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "items_per_s": {"value": items, "unit": "1/s"},
            "imports.scipy_ms": {"value": None, "unit": "ms"},
        },
    }
    return "\n".join([
        "# chargelimit benchmark: workload sim-noisy, seed 1, 20 s, trace 0",
        f"  op_ms_p50  {p50:.6g} ms",
        "# record: " + json.dumps(record),
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_metrics_and_the_record():
    metrics, record = load_script().parse_run(canned_stdout(50.0, 2e7))
    assert metrics == {"op_ms_p50": 50.0, "items_per_s": 2e7, "imports.scipy_ms": None}
    assert record["env"]["numpy"] == "2.4.6"


def test_parse_run_refuses_a_run_with_failures():
    with pytest.raises(ValueError, match="1 of 40"):
        load_script().parse_run(canned_stdout(50.0, 2e7, failed=1))


def test_summary_of_canned_pairs():
    module = load_script()
    base = [(70.0, 1.40e7), (72.0, 1.39e7), (74.0, 1.38e7), (76.0, 1.37e7), (60.0, 1.60e7)]
    change = [(50.0, 1.90e7), (52.0, 1.91e7), (54.0, 1.92e7), (56.0, 1.93e7), (80.0, 1.50e7)]
    runs = []
    for seed, (b, c) in enumerate(zip(base, change)):
        for side, (p50, items) in (("base", b), ("change", c)):
            metrics, _ = module.parse_run(canned_stdout(p50, items))
            runs.append({"seed": seed, "side": side, "metrics": metrics})
    runs.append({"seed": 99, "side": "base", "metrics": runs[0]["metrics"]})  # unpaired
    summary = module.summarize(runs, SPEC)

    items = summary["items_per_s"]
    assert items["base"] == {"median": 1.39e7, "q1": 1.38e7, "q3": 1.40e7,
                             "iqr": pytest.approx(2e5), "n": 5}
    assert items["change"]["median"] == 1.91e7
    assert items["ratio"] == pytest.approx(1.91 / 1.39)
    assert (items["wins"], items["pairs"]) == (4, 5)  # the last pair is lost
    assert items["beyond_base_iqr"]

    p50 = summary["op_ms_p50"]
    assert p50["better"] == "lower"
    assert (p50["base"]["median"], p50["change"]["median"]) == (72.0, 54.0)
    assert (p50["wins"], p50["pairs"]) == (4, 5)

    assert summary["imports.scipy_ms"] == {"unit": "ms", "absent": True}


def test_seed_list():
    assert load_script().seed_list("31-35,40") == [31, 32, 33, 34, 35, 40]


def run_main(monkeypatch, tmp_path, sources, commits, during=None):
    """``main`` over seeds 1-2 of canned runs: ``sources[side][seed]`` and
    ``commits[side][seed]`` are what each run reports; ``during``, if
    given, is called with each run's checkout."""
    module = load_script()
    base, change = tmp_path / "base", tmp_path / "change"
    change.mkdir(exist_ok=True)
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))

    def canned_run(checkout, workload, seed, seconds, trace):
        side = "base" if checkout == base.resolve() else "change"
        if during is not None:
            during(checkout)
        return canned_stdout(70.0 if side == "base" else 50.0, 1.4e7,
                             commit=commits[side][seed], source=sources[side][seed])

    monkeypatch.setattr(module, "run_once", canned_run)
    # each commit holds the source its runs report; git itself is tested below
    committed = {commits[side][seed]: sources[side][seed] for side in sources
                 for seed in sources[side]}
    monkeypatch.setattr(module, "commit_digest", lambda checkout, commit: committed[commit])
    out = tmp_path / "BENCH.json"
    code = module.main(["--base", str(base), "--change", str(change), "--workload", "sim-noisy",
                        "--seeds", "1-2", "--seconds", "1", "--out", str(out)])
    return code, out


def test_each_run_keeps_its_commit_and_source(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    sources = {"base": {1: "a" * 64, 2: "a" * 64}, "change": {1: "b" * 64, 2: "b" * 64}}
    commits = {"base": {1: "c1", 2: "c1"}, "change": {1: "c2", 2: "c3"}}  # a docs-only commit
    code, out = run_main(monkeypatch, tmp_path, sources, commits)
    assert code == 0
    entry = json.loads(out.read_text())["workloads"]["sim-noisy"]
    assert [(run["seed"], run["side"], run["commit"], run["source_sha256"])
            for run in entry["runs"]] == [
        (1, "base", "c1", "a" * 64), (1, "change", "c2", "b" * 64),
        (2, "change", "c3", "b" * 64), (2, "base", "c1", "a" * 64),
    ]
    env = entry["env"]
    assert (env["base"]["commit"], env["base"]["source_sha256"]) == ("c1", "a" * 64)
    assert (env["change"]["commit"], env["change"]["source_sha256"]) == (None, "b" * 64)
    assert env["base"]["numpy"] == "2.4.6"
    assert env["base"]["PYTHONDONTWRITEBYTECODE"] == env["change"]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_bytecode_setting_is_recorded_when_unset(monkeypatch, tmp_path):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    same = {side: {1: "a" * 64, 2: "a" * 64} for side in ("base", "change")}
    code, out = run_main(monkeypatch, tmp_path, same, same)
    assert code == 0
    env = json.loads(out.read_text())["workloads"]["sim-noisy"]["env"]
    assert "PYTHONDONTWRITEBYTECODE" in env["change"]
    assert env["change"]["PYTHONDONTWRITEBYTECODE"] is None


def test_fresh_bytecode_is_recorded_before_and_after_the_runs(monkeypatch, tmp_path):
    # The change's package gets fresh bytecode during its runs; the base
    # has no package at all.
    package = tmp_path / "change" / "src" / "chargelimit"
    package.mkdir(parents=True)
    for name in ("cli", "kernels"):
        (package / f"{name}.py").write_text("X = 1\n")

    def compile_change(checkout):
        if checkout.name == "change":
            compileall.compile_file(package / "kernels.py", quiet=1)

    same = {side: {1: "a" * 64, 2: "a" * 64} for side in ("base", "change")}
    code, out = run_main(monkeypatch, tmp_path, same, same, during=compile_change)
    assert code == 0
    env = json.loads(out.read_text())["workloads"]["sim-noisy"]["env"]
    assert env["base"]["fresh_bytecode"] == {"before": [], "after": []}
    assert env["change"]["fresh_bytecode"] == {"before": [], "after": ["kernels"]}


def test_a_side_with_mixed_sources_is_refused(monkeypatch, tmp_path, capsys):
    sources = {"base": {1: "a" * 64, 2: "a" * 64}, "change": {1: "b" * 64, 2: "d" * 64}}
    out = tmp_path / "BENCH.json"
    out.write_text("{}\n")
    code, _ = run_main(monkeypatch, tmp_path, sources, sources)
    assert code == 1
    assert out.read_text() == "{}\n"
    assert "the change runs measured 2 different sources" in capsys.readouterr().err


def git(checkout, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                           *args], cwd=checkout, check=True, capture_output=True,
                          text=True).stdout.strip()


def git_checkouts(tmp_path):
    """A base clone at one commit and a change clone one commit on, each
    with a package of two modules and a data file."""
    base, change = tmp_path / "base", tmp_path / "change"
    package = base / "src" / "chargelimit"
    (package / "data").mkdir(parents=True)
    (package / "__init__.py").write_text("from .cli import main\n")
    (package / "cli.py").write_text("def main():\n    return 0\n")
    (package / "data" / "materials.tab").write_text("vacuum 1 1\n")
    git(base, "init", "-q")
    git(base, "add", "-A")
    git(base, "commit", "-qm", "base")
    git(tmp_path, "clone", "-q", str(base), str(change))
    (change / "src" / "chargelimit" / "cli.py").write_text("def main():\n    return 1\n")
    git(change, "commit", "-qam", "change")
    return base, change


def run_git_main(monkeypatch, tmp_path, base, change):
    """``main`` over seeds 1-2, each run reporting its clone's HEAD and the
    digest that perfbench's own recipe gives for the clone's files."""
    module = load_script()
    env = load_script(ROOT / "perfbench" / "env.py", "perfbench_env")
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))

    def canned_run(checkout, workload, seed, seconds, trace):
        monkeypatch.setattr(env, "SRC", checkout / "src")
        monkeypatch.setattr(env, "PACKAGE", checkout / "src" / "chargelimit")
        return canned_stdout(50.0, 1.4e7, commit=git(checkout, "rev-parse", "HEAD"),
                             source=env._source_digest())

    monkeypatch.setattr(module, "run_once", canned_run)
    out = tmp_path / "BENCH.json"
    code = module.main(["--base", str(base), "--change", str(change), "--workload", "sim-noisy",
                        "--seeds", "1-2", "--seconds", "1", "--out", str(out)])
    return code, out


def test_committed_sides_pass_the_source_check(monkeypatch, tmp_path):
    base, change = git_checkouts(tmp_path)
    (change / "src" / "chargelimit" / "__pycache__").mkdir()
    (change / "src" / "chargelimit" / "__pycache__" / "cli.pyc").write_bytes(b"compiled")
    code, out = run_git_main(monkeypatch, tmp_path, base, change)
    assert code == 0
    env = json.loads(out.read_text())["workloads"]["sim-noisy"]["env"]
    assert env["base"]["commit"] == git(base, "rev-parse", "HEAD")
    assert env["base"]["source_sha256"] != env["change"]["source_sha256"]


@pytest.mark.parametrize("edit", ["modified", "untracked"])
def test_uncommitted_changes_are_refused(monkeypatch, tmp_path, capsys, edit):
    base, change = git_checkouts(tmp_path)
    name = "cli.py" if edit == "modified" else "extra.py"
    (change / "src" / "chargelimit" / name).write_text("def main():\n    return 2\n")
    code, out = run_git_main(monkeypatch, tmp_path, base, change)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"a run in {change.resolve()} measured source" in err
    assert "commit or drop the checkout's changes" in err


def test_a_run_without_a_commit_is_refused(monkeypatch, tmp_path, capsys):
    sources = {side: {1: "a" * 64, 2: "a" * 64} for side in ("base", "change")}
    commits = {"base": {1: None, 2: None}, "change": {1: "c1", 2: "c1"}}
    code, out = run_main(monkeypatch, tmp_path, sources, commits)
    assert code == 1
    assert not out.exists()
    assert "reports no commit" in capsys.readouterr().err


def importtime_stderr(numpy_us, chargelimit_us):
    """``-X importtime`` lines as Python prints them, imports before importers."""
    return "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       150 |        150 |   _io",
        "import time:        40 |         40 |       math",
        f"import time: {numpy_us:>9} | {numpy_us + 40:>10} |     numpy",
        f"import time: {chargelimit_us:>9} | {chargelimit_us:>10} |     chargelimit.cli",
        f"import time:        10 | {numpy_us + chargelimit_us + 50:>10} |   chargelimit",
        "some line the program printed",
    ]) + "\n"


def test_import_medians_of_canned_probes():
    stderrs = {
        "sweep": [importtime_stderr(90_000, 20_000), importtime_stderr(100_000, 25_000),
                  importtime_stderr(95_000, 21_000)],
        "simulate": [importtime_stderr(99_000, 30_000)],
    }
    assert load_script().import_medians(stderrs) == {
        "sweep": {"numpy_ms": pytest.approx(95.04), "chargelimit_ms": pytest.approx(21.01)},
        "simulate": {"numpy_ms": pytest.approx(99.04), "chargelimit_ms": pytest.approx(30.01)},
    }


def test_a_probe_that_cannot_run_is_kept_as_its_reason(tmp_path):
    # no directory, and no sources to import
    reasons = load_script().import_probe({"base": tmp_path / "absent", "change": tmp_path})
    assert reasons["base"].startswith("the sweep probe did not start")
    assert reasons["change"] == "the sweep probe exited 1: " + (
        f"{sys.executable}: No module named chargelimit")


def test_the_probe_times_this_checkout():
    imports = load_script().import_probe({"change": ROOT})["change"]
    assert set(imports) == {"sweep", "simulate"}
    for command in imports.values():
        assert command["numpy_ms"] > 0.0 and command["chargelimit_ms"] > 0.0


def test_probes_take_both_sides_in_turn_in_alternating_order(monkeypatch, tmp_path):
    module = load_script()
    monkeypatch.setattr(module, "PROBE_REPEATS", 3)
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        calls.append((Path(cwd).name, argv[argv.index("chargelimit") + 1]))
        return subprocess.CompletedProcess(argv, 0, "", importtime_stderr(90_000, 20_000))

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    imports = module.import_probe({"base": tmp_path / "base", "change": tmp_path / "change"})
    assert calls == [
        ("base", "sweep"), ("change", "sweep"), ("base", "simulate"), ("change", "simulate"),
        ("change", "sweep"), ("base", "sweep"), ("change", "simulate"), ("base", "simulate"),
        ("base", "sweep"), ("change", "sweep"), ("base", "simulate"), ("change", "simulate"),
    ]
    assert imports["base"] == imports["change"] == {
        command: {"numpy_ms": pytest.approx(90.04), "chargelimit_ms": pytest.approx(20.01)}
        for command in ("sweep", "simulate")}


def test_a_failed_run_is_refused_in_one_line(monkeypatch, tmp_path, capsys):
    module = load_script()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 1, "", "Traceback (most recent call last):\n"
                                           "  ...\nValueError: no such workload\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    code = module.main(["--base", str(tmp_path), "--change", str(tmp_path), "--workload", "nope",
                        "--seeds", "1", "--seconds", "1", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bench_pairs: "), err
    assert err.endswith(f"exited 1: ValueError: no such workload; {out} is not written\n")
