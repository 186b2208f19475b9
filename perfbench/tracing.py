"""Spans around the package's layer boundaries, and the per-layer metrics.

The recorder wraps public names at the binding each call site uses (for
example ``chargelimit.cli.wire_pipeline_snr``, which ``cmd_sweep`` calls,
or ``chargelimit.rng.uniform_block``, which ``montecarlo`` calls through
its ``rng`` module).  A wrapper records a span only while an operation
span is open, so checks run between operations leave no spans.  Spans
hold name, start, end and parent; a span opened on a worker thread with
no open span of its own gets the operation as parent, so the spans of
``workers=2`` pools are kept.  Spans live in compact arrays because a
traced sweep makes several per point.

A wrapped name that no longer exists is not an error: the metrics that
need it are reported absent with the reason.
"""

from __future__ import annotations

import functools
import itertools
import re
import statistics
import subprocess
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

import env

REGIMES = ("poisson", "poisson_thermal", "gaussian")
_BLOCK = 65536
_PIPELINES = tuple(
    f"chargelimit.cli.{name}"
    for name in ("wire_pipeline_snr", "qpc_pipeline_snr", "set_pipeline_snr")
)
_NOISE = ("chargelimit.devices.noise_breakdown", "chargelimit.noise.noise_breakdown")
_UNIFORM = ("chargelimit.rng.uniform_block",)
_CDF = ("chargelimit.kernels.poisson_cdf_table",)
_BLOCKS = ("chargelimit.kernels.block_kernels",)

#: Wrapped names each span-derived metric depends on.
NEEDS = {
    "cli.self_us_per_point": _PIPELINES,
    "devices.pipeline_us_per_call": _PIPELINES,
    "devices.pipeline_calls_per_point": _PIPELINES,
    "noise.breakdown_calls_per_point": _NOISE,
    "noise.self_us_per_point": _NOISE,
    "rng.uniform_block_ms_per_65536": _UNIFORM,
    "rng.uniforms_per_trial": _UNIFORM,
    "kernels.cdf_table_ms": _CDF,
    "kernels.cdf_table_len": _CDF,
    **{f"kernels.open_block_ms.{regime}": _BLOCKS for regime in REGIMES},
    "kernels.blocked_block_ms": _BLOCKS,
    "kernels.bytes_moved_per_block": _BLOCKS,
    "montecarlo.self_ms_per_call": _UNIFORM + _CDF + _BLOCKS,
    **{f"montecarlo.parallel_efficiency.{regime}": () for regime in REGIMES},
}


class Recorder:
    """In-memory spans; install() wraps the package, restore() unwraps."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.name_table: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self.clear()

    def clear(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs: dict[int, dict] = {}

    # ---------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span_id: int, parent: int, name: str, start: float,
               attrs: dict | None) -> None:
        end = time.perf_counter()
        name_id = self.name_table.setdefault(name, len(self.name_table))
        with self._lock:
            self.ids.append(span_id)
            self.parents.append(parent)
            self.name_ids.append(name_id)
            self.starts.append(start)
            self.ends.append(end)
            if attrs:
                self.attrs[span_id] = attrs

    @contextmanager
    def operation(self, **attrs):
        """Root span around one timed operation."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        self._root = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self._root = None
            self._close(span_id, 0, "operation", start, attrs)

    def _traced(self, name: str, func, attrs_of=None, wrap_result=None):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            root = recorder._root
            if root is None:
                return func(*args, **kwargs)
            span_id = next(recorder._ids)
            stack = recorder._stack()
            parent = stack[-1] if stack else root
            stack.append(span_id)
            start = time.perf_counter()
            attrs = None
            try:
                result = func(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, result)
            finally:
                stack.pop()
                recorder._close(span_id, parent, name, start, attrs)
            return wrap_result(result) if wrap_result is not None else result

        return traced

    def wrap(self, dotted: str, span: str, attrs_of=None, wrap_result=None) -> None:
        module_name, _, attr = dotted.rpartition(".")
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent[dotted] = f"{dotted} no longer exists"
            return
        setattr(module, attr, self._traced(span, original, attrs_of, wrap_result))
        self._patches.append((module, attr, original))

    def install(self) -> None:
        for dotted in _PIPELINES:
            self.wrap(dotted, "devices.pipeline")
        for dotted in _NOISE:
            self.wrap(dotted, "noise.noise_breakdown")
        self.wrap(_UNIFORM[0], "rng.uniform_block",
                  attrs_of=lambda args, out: {"count": int(np.size(out))})
        self.wrap(_CDF[0], "kernels.poisson_cdf_table",
                  attrs_of=lambda args, out: {"lam": args[0], "length": len(out[1])})

        def block_attrs(args, out):
            return {
                "n": len(args[0]),
                "bytes": sum(a.nbytes for a in args if isinstance(a, np.ndarray)),
            }

        def wrap_kernels(pair):
            open_block, blocked_block = pair
            return (
                self._traced("kernels.open_block", open_block, block_attrs),
                self._traced("kernels.blocked_block", blocked_block, block_attrs),
            )

        self.wrap(_BLOCKS[0], "kernels.block_kernels", wrap_result=wrap_kernels)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class Spans:
    """Read-only numpy view of a recorder's spans, indexed by position."""

    def __init__(self, recorder: Recorder):
        self.ids = np.array(recorder.ids, dtype=np.int64)
        self.parents = np.array(recorder.parents, dtype=np.int64)
        self.starts = np.array(recorder.starts, dtype=np.float64)
        self.ends = np.array(recorder.ends, dtype=np.float64)
        names = {index: name for name, index in recorder.name_table.items()}
        self.names = np.array([names[i] for i in range(len(names))], dtype=object)[
            np.array(recorder.name_ids, dtype=np.int64)]
        self.attrs = recorder.attrs
        position = np.full(int(self.ids.max(initial=0)) + 1, -1, dtype=np.int64)
        position[self.ids] = np.arange(self.ids.size)
        # Root operation of every span: follow parents until there are none.
        roots = self.ids.copy()
        parents = self.parents.copy()
        while np.any(parents):
            moving = parents != 0
            roots[moving] = parents[moving]
            parents[moving] = self.parents[position[parents[moving]]]
        unique, inverse = np.unique(roots, return_inverse=True)
        kinds = [self.attrs.get(int(r), {}).get("kind") for r in unique]
        self.roots = roots
        self.root_kinds = np.array(kinds, dtype=object)[inverse]
        children = np.flatnonzero(self.parents)
        self._children = children[np.argsort(self.parents[children], kind="stable")]
        self._child_parents = self.parents[self._children]

    def attrs_at(self, pos) -> dict:
        return self.attrs[int(self.ids[pos])]

    def select(self, name: str, root_kind: str) -> np.ndarray:
        """Positions of spans called ``name`` under operations of a kind."""
        return np.flatnonzero((self.names == name) & (self.root_kinds == root_kind))

    def operations(self, kind: str) -> np.ndarray:
        return self.select("operation", kind)

    def duration(self, positions) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        return self.ends[positions] - self.starts[positions]

    def self_times(self, positions) -> np.ndarray:
        """Duration minus the union of the intervals of direct children."""
        positions = np.asarray(positions, dtype=np.int64)
        out = self.duration(positions)
        ids = self.ids[positions]
        lo = np.searchsorted(self._child_parents, ids, side="left")
        hi = np.searchsorted(self._child_parents, ids, side="right")
        for i in np.flatnonzero(hi > lo):
            kids = self._children[lo[i]:hi[i]]
            out[i] -= _union(self.starts[kids], self.ends[kids])
        return out


def _union(starts: np.ndarray, ends: np.ndarray) -> float:
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.sum(np.maximum(0.0, ends - np.maximum(starts, before))))


def span_metrics(spans: Spans) -> dict[str, float | None]:
    """Per-layer metrics the spans can give; None where they hold none."""
    out: dict[str, float | None] = {}
    sweeps = spans.operations("sweep")
    points = sum(spans.attrs_at(p)["items"] for p in sweeps)
    if points:
        pipe = spans.select("devices.pipeline", "sweep")
        noise = spans.select("noise.noise_breakdown", "sweep")
        out["cli.self_us_per_point"] = float(np.sum(spans.self_times(sweeps))) / points * 1e6
        out["devices.pipeline_us_per_call"] = (
            float(np.mean(spans.duration(pipe))) * 1e6 if pipe.size else None
        )
        out["devices.pipeline_calls_per_point"] = pipe.size / points
        out["noise.breakdown_calls_per_point"] = noise.size / points
        out["noise.self_us_per_point"] = float(np.sum(spans.self_times(noise))) / points * 1e6

    sims = spans.operations("simulate")
    if sims.size == 0:
        return out
    sim_attrs = [spans.attrs_at(p) for p in sims]
    trials = sum(a["items"] for a in sim_attrs)
    uniforms = spans.select("rng.uniform_block", "simulate")
    if uniforms.size:
        counts = sum(spans.attrs_at(p)["count"] for p in uniforms)
        out["rng.uniform_block_ms_per_65536"] = (
            float(np.sum(spans.duration(uniforms))) / counts * _BLOCK * 1e3
        )
        out["rng.uniforms_per_trial"] = counts / trials
    tables = spans.select("kernels.poisson_cdf_table", "simulate")
    if tables.size:
        out["kernels.cdf_table_ms"] = float(np.mean(spans.duration(tables))) * 1e3
        lengths = {}
        for pos in tables:
            attrs = spans.attrs_at(pos)
            lengths[attrs["lam"]] = attrs["length"]
        out["kernels.cdf_table_len"] = sum(lengths.values()) / len(lengths)
    opens = spans.select("kernels.open_block", "simulate")
    blocked = spans.select("kernels.blocked_block", "simulate")

    def per_block_ms(positions) -> float | None:
        if len(positions) == 0:
            return None
        n = sum(spans.attrs_at(p)["n"] for p in positions)
        return float(np.sum(spans.duration(positions))) / n * _BLOCK * 1e3

    if opens.size:
        regime_of = [spans.attrs[int(spans.roots[p])]["regime"] for p in opens]
        for regime in REGIMES:
            mine = [p for p, r in zip(opens, regime_of) if r == regime]
            if mine:
                out[f"kernels.open_block_ms.{regime}"] = per_block_ms(mine)
        moved = sum(spans.attrs_at(p)["bytes"] for p in (*opens, *blocked))
        out["kernels.bytes_moved_per_block"] = moved / opens.size
    if blocked.size:
        out["kernels.blocked_block_ms"] = per_block_ms(blocked)
    out["montecarlo.self_ms_per_call"] = float(np.mean(spans.self_times(sims))) * 1e3
    wall = spans.duration(sims)
    for regime in REGIMES:
        by_workers = {1: [], 2: []}
        for seconds, attrs in zip(wall, sim_attrs):
            if attrs["regime"] == regime and attrs["workers"] in by_workers:
                by_workers[attrs["workers"]].append(seconds)
        if by_workers[1] and by_workers[2]:
            out[f"montecarlo.parallel_efficiency.{regime}"] = statistics.median(
                by_workers[1]) / (2.0 * statistics.median(by_workers[2]))
    return out


# --------------------------------------------------------------------------
# Layers measured directly rather than from spans
# --------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")
_OWNERS = ("numpy", "scipy", "chargelimit")


def _owner(module: str) -> str | None:
    for owner in _OWNERS:
        if module == owner or module.startswith(owner + "."):
            return owner
    return None


def parse_importtime(text: str) -> dict[str, float]:
    """Self import time in ms owned by numpy, scipy and chargelimit.

    Each module's self time goes to the nearest module, itself or one of
    its importers, named after one of the three packages: stdlib modules
    that numpy pulls in count as numpy, and numpy submodules first pulled
    in by scipy count as numpy too.
    """
    totals = dict.fromkeys(_OWNERS, 0.0)
    pending: list[tuple[int, int, str, list]] = []  # depth, self_us, module, children
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = len(match.group(3))
        # importtime prints a module's imports before it, one level deeper
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, int(match.group(1)), match.group(4), children))

    def assign(node, inherited):
        _, self_us, module, children = node
        owner = _owner(module) or inherited
        if owner is not None:
            totals[owner] += self_us
        for child in children:
            assign(child, owner)

    for node in pending:
        assign(node, None)
    return {owner: us / 1e3 for owner, us in totals.items()}


def import_ms(repeats: int) -> dict[str, float]:
    """Median interpreter start and per-package import times, in ms."""
    samples: dict[str, list[float]] = {"interpreter": [], **{o: [] for o in _OWNERS}}
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=env.ROOT,
                       check=True, timeout=60)
        samples["interpreter"].append((time.perf_counter() - start) * 1e3)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import chargelimit.cli"],
            cwd=env.ROOT, capture_output=True, text=True,
            check=True, timeout=60,
        )
        for owner, ms in parse_importtime(done.stderr).items():
            samples[owner].append(ms)
    return {name: statistics.median(values) for name, values in samples.items()}


def parse_ms(argvs: list[list[str]], repeats: int) -> float | str:
    """Mean over ``argvs`` of the median ms of build_parser() + parse_args()."""
    from chargelimit import cli

    build = getattr(cli, "build_parser", None)
    if build is None:
        return "chargelimit.cli.build_parser no longer exists"
    medians = []
    for argv in argvs:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            build().parse_args(argv)
            times.append(time.perf_counter() - start)
        medians.append(statistics.median(times))
    return statistics.mean(medians) * 1e3


def kernel_ms(repeats: int) -> dict[str, float | str]:
    """Median ms of the public inverse normal and log on 65 536 uniforms."""
    from chargelimit import kernels

    uniforms = np.random.Generator(np.random.Philox(12345)).random(_BLOCK)
    out: dict[str, float | str] = {}
    for metric, attr in (
        ("kernels.inverse_normal_ms_per_65536", "inverse_normal"),
        ("kernels.portable_log_ms_per_65536", "portable_log"),
    ):
        func = getattr(kernels, attr, None)
        if func is None:
            out[metric] = f"chargelimit.kernels.{attr} no longer exists"
            continue
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            func(uniforms)
            times.append(time.perf_counter() - start)
        out[metric] = statistics.median(times) * 1e3
    return out
