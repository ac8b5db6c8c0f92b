"""Measuring loop, statistics, checks bookkeeping and the result line.

Imported by ``run.py`` only after it has pinned the thread pools, because
importing this module imports numpy.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from perfbench import layers, workloads
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
# set-ups per run; setup_s is their median
SETUP_REPEATS = 3
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads_in_effect():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_record(seed: int, pinned: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": platform.python_version(),
        "nproc": nproc(),
        "threads_pinned": pinned,
        "threads_in_effect": blas_threads_in_effect(),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for any such percentile, the maximum is returned
    at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup_state(workload, seed: int, tracer=None):
    """Make inputs, then warm up, SETUP_REPEATS times; returns (state, times).

    Warm-up calls are untimed and uncounted; their cost is part of set-up.
    """
    times = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        if tracer is not None:
            tracer.iteration = f"setup-{i}"
        start = time.perf_counter()
        state = workload.setup(seed, OUT_DIR)
        for _ in range(workload.warmup):
            workload.run(state)
        times.append(time.perf_counter() - start)
    return state, times


class NoMeasurement(RuntimeError):
    """No timed call completed, so there is nothing to report."""


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    lines: list[str]
    report: dict
    spans: list = field(default_factory=list)


class Loop:
    """Closed loop: the next call starts only after the previous returned."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.samples_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.reference_ok = False

    def call(self, tracer=None) -> None:
        """One timed call, then its untimed checks; a call that raises or
        fails a check counts as one failed call and the loop goes on."""
        w = self.workload
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            if tracer is None:
                result = w.run(self.state)
            else:
                tracer.iteration = f"op-{self.attempted}"
                with tracer.span("harness.op"):
                    result = w.run(self.state)
                tracer.iteration = "check"
            self.samples_ms.append((time.perf_counter_ns() - start) / 1e6 / w.units)
            problems = self._verify(w.outputs(self.state, result))
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems:
                self.problems.append(f"call {self.attempted}: {p}")
                print(f"check failed: call {self.attempted}: {p}", file=sys.stderr)

    def _verify(self, outputs) -> list[str]:
        """Check the first output; every later one must repeat it byte for byte."""
        if self.reference is None:
            self.reference = outputs
            problems = self.workload.check(self.state, outputs)
            self.reference_ok = not problems
            return problems
        if not self.reference_ok:
            return ["repeats a failed output"]
        if not workloads.same_bytes(outputs, self.reference):
            return ["output differs from the first call's"]
        return []

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.attempted == 0 or time.perf_counter() < deadline:
            self.call()


def digest(outputs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in outputs or ():
        h.update(a.tobytes())
    return h.hexdigest()


def run_untraced(workload, seed: int, seconds: float) -> Outcome:
    state, setup_times = setup_state(workload, seed)
    loop = Loop(workload, state)
    try:
        loop.run_for(seconds)
    finally:
        workload.close(state)
    samples = loop.samples_ms
    if not samples:
        raise NoMeasurement(f"no call completed: {loop.problems[:3]}")
    tail_ms, tail_pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": statistics.median(samples),
        "op_ms.tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # what op_ms means on this workload, under its own name and unit
    label, n = workload.metric, len(samples)
    scale, unit = (1e-3, "s") if label.endswith("_s") else (1.0, "ms")
    p50 = metrics["op_ms.p50"]
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s [median of {SETUP_REPEATS} set-ups, "
        f"each with {workload.warmup} warm-up calls]",
        f"op_ms.p50 = {p50:.4f} ms [{label}.p50 = {p50 * scale:.6g} {unit}; n={n}]",
        f"op_ms.tail = {tail_ms:.4f} ms [{label}.tail = {tail_ms * scale:.6g} {unit} "
        f"at p{tail_pct:.1f}; n={n}]",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB [peak of this process; n=1]",
        f"fail_ratio = {loop.failed / max(loop.attempted, 1):.4f} ratio "
        f"[{loop.failed} failed of {loop.attempted} calls]",
    ]
    report = {"samples_ms": loop.samples_ms, "setup_s": setup_times,
              "output_digest": digest(loop.reference), "problems": loop.problems}
    return Outcome(loop.attempted, loop.failed, metrics, END_TO_END, lines, report)


def run_traced(workload, seed: int, seconds: float) -> Outcome:
    """Half the time untraced, then the same number of calls traced."""
    tracer = Tracer()
    layers.install_all(tracer)
    try:
        state, _ = setup_state(workload, seed, tracer)
    finally:
        tracer.uninstall()
    untraced = Loop(workload, state)
    traced = Loop(workload, state)
    try:
        untraced.run_for(seconds / 2)
        # traced outputs must be byte-identical to the untraced ones
        traced.reference, traced.reference_ok = untraced.reference, untraced.reference_ok
        layers.install_all(tracer)
        try:
            for _ in range(untraced.attempted):
                traced.call(tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close(state)
    if not traced.samples_ms:
        raise NoMeasurement(f"no traced call completed: {traced.problems[:3]}")
    units = len(traced.samples_ms) * workload.units
    untraced_ms, traced_ms = sum(untraced.samples_ms), sum(traced.samples_ms)
    overhead = traced_ms / untraced_ms if untraced_ms else 0.0
    metrics, absent = layers.per_layer_metrics(tracer, units, SETUP_REPEATS, overhead)
    lines = [f"{key} = {value:.6g} {layers.PER_LAYER[key]}" for key, value in metrics.items()]
    lines += [
        f"per-layer figures are per unit of work ({workload.units} per call) over "
        f"{len(traced.samples_ms)} traced calls; synth.* per set-up over {SETUP_REPEATS}; "
        f"macs and bytes are computed from array shapes",
        f"trace overhead: traced total {traced_ms:.1f} ms against untraced total "
        f"{untraced_ms:.1f} ms over {untraced.attempted} calls each",
        "absent functions: " + (", ".join(absent) or "none"),
        "calls whose counts could not be read: " + (", ".join(sorted(tracer.unobserved)) or "none"),
        f"fail_ratio = {(untraced.failed + traced.failed) / (2 * untraced.attempted):.4f} ratio",
    ]
    report = {"absent": absent, "unobserved": sorted(tracer.unobserved),
              "overhead_ratio": overhead,
              "output_digest": digest(untraced.reference),
              "problems": untraced.problems + traced.problems}
    return Outcome(untraced.attempted + traced.attempted, untraced.failed + traced.failed,
                   metrics, layers.PER_LAYER, lines, report, tracer.spans)


def run_one(name: str, seed: int, seconds: float, trace: bool, pinned: int) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    env = env_record(seed, pinned)
    if env["threads_in_effect"] != pinned:
        print(f"warning: {pinned} BLAS threads pinned, {env['threads_in_effect']} in effect",
              file=sys.stderr)
    workload = workloads.WORKLOADS[name]
    try:
        out = (run_traced if trace else run_untraced)(workload, seed, seconds)
    except NoMeasurement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    out.report.update(env=env, workload=name, seconds=seconds, metrics=out.metrics,
                      attempted=out.attempted, failed=out.failed)
    stem.with_suffix(".json").write_text(json.dumps(out.report, indent=1) + "\n")
    if out.spans:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for s in out.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    print("env " + json.dumps(env))
    print(f"workload {name}: closed loop, 1 client, {out.attempted} calls")
    for line in out.lines:
        print("  " + line)
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": out.units[k]} for k, v in out.metrics.items()},
    }))
    return 0
