"""Closed-loop op runner, metric definitions and the environment stamp.

One caller issues each op after the previous one returns, from the main
thread; the op loop starts no threads or processes. With tracing on, even-numbered ops run traced
and odd-numbered ops untraced, so the traced run measures its own overhead
against untraced ops of the same process.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

TAIL_BEYOND = 10

# (name, unit) of every metric a run prints; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

EVALUATE_SPANS = ("curves.StaticCurve.evaluate", "curves.GeneratedCurve.evaluate", "curves.SampledCurve.evaluate")

# Time metrics: (name, "total" or "self", span names or a span-name prefix),
# seconds per traced op.
LAYER_TIMES = (
    ("measurement.run_measurement_s", "total", ("measurement.run_measurement",)),
    ("measurement.run_measurement_self_s", "self", ("measurement.run_measurement",)),
    ("measurement.evolve_by_channels_self_s", "self", ("measurement.evolve_by_channels",)),
    ("measurement.path_enumeration_s", "total", ("measurement.leakage_by_path_enumeration",)),
    ("channels.apply_unitary_channel_s", "total", ("channels.apply_unitary_channel",)),
    ("channels.apply_projection_channel_s", "total", ("channels.apply_projection_channel",)),
    ("channels.rank1_family_s", "total", ("channels.rank1_family",)),
    ("states.density_matrix_s", "total", ("states.DensityMatrix.__post_init__",)),
    ("states.entropy_s", "total", ("states.von_neumann_entropy", "states.fannes_bound")),
    ("curves.evaluate_s", "total", EVALUATE_SPANS),
    ("curves.curve_bounds_s", "total", ("curves.curve_bounds",)),
    ("curves.drift_sum_s", "total", ("curves.BasisCurve.drift_sum",)),
    ("linalg.eigendecompose_s", "total", ("linalg.hermitian_eigendecompose",)),
    ("linalg.trace_norm_s", "total", ("linalg.trace_norm",)),
    ("bounds.self_s", "self", "bounds."),
    ("scenario.build_curve_s", "total", ("scenario.build_curve",)),
    ("sweep.run_sweep_self_s", "self", ("sweep.run_sweep",)),
    ("sweep.csv_write_s", "total", ("sweep.write_csv",)),
    ("sweep.csv_read_s", "total", ("sweep.read_csv",)),
    ("sweep.fit_rate_s", "total", ("sweep.fit_rate",)),
    ("corpus.build_scenario_s", "total", ("corpus.build_scenario",)),
    ("corpus.run_battery_self_s", "self", ("corpus.run_battery",)),
)

# Counts are taken over the traced ops of the first pass (the first op of a
# sweep workload, the traced half of the first 200 corpus scenarios), so they
# repeat exactly between runs with the same seed.
LAYER_COUNTS = (
    ("measurement.steps", "count"),
    ("channels.projectors_built_per_step", "count/step"),
    ("states.density_matrices_per_step", "count/step"),
    ("curves.evaluations_per_time", "count/time"),
    ("linalg.eigendecompose_calls", "count"),
    ("linalg.require_cons_calls", "count"),
    ("bounds.calls", "count"),
    ("scenario.curve_builds_per_op", "count"),
    ("scenario.frames_bytes", "bytes"),
    ("sweep.csv_bytes", "bytes"),
    ("corpus.checks_run", "count"),
)

PER_LAYER = (
    tuple((name, "s") for name, _, _ in LAYER_TIMES)
    + (("scenario.load_s", "s"),)
    + LAYER_COUNTS
    + (("trace.overhead_ratio", "ratio"),)
)


def blas_info() -> dict:
    """OpenBLAS version and the thread count it runs with in this process."""
    info = {"env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    info["threads"] = None
    return info


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: str, workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "zenolab_threads": os.environ.get("ZENOLAB_THREADS"),
        "git_sha": git_sha(root),
        "seed": seed,
        "sizes": workload.sizes(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    smallest sample is returned with percentile 0.
    """
    ordered = sorted(samples)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        return ordered[0], 0.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


@dataclass
class Run:
    """Everything one measurement loop produced."""

    op_seconds: list = field(default_factory=list)
    traced_seconds: list = field(default_factory=list)
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    window_calls: dict = field(default_factory=dict)
    window_counts: dict = field(default_factory=dict)
    window_ops: int = 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _checked(workload, i, outcome) -> list[str]:
    try:
        return workload.check(i, outcome)
    except Exception as exc:  # a gate that cannot evaluate the output fails the op
        return [f"op {i} output check raised {type(exc).__name__}: {exc}"]


def run_ops(workload, seconds: float, tracer=None) -> Run:
    """Issue ops until `seconds` have passed and the first pass is complete."""
    run = Run()
    min_ops = max(workload.pass_ops, 2 if tracer else 1)
    begin = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - begin < seconds:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op_id = i
            tracer.install()
        error = None
        start = perf_counter()
        try:
            outcome = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"op {i} raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        (run.traced_seconds if traced else run.op_seconds).append(elapsed)
        problems = [error] if error else _checked(workload, i, outcome)
        run.attempted += 1
        if problems:
            run.failed += 1
            run.problems.extend(problems[:5])
        else:
            run.steps += workload.steps(outcome)
        if tracer is not None and i == workload.pass_ops - 1:
            run.window_calls = dict(tracer.calls)
            run.window_counts = dict(tracer.counts)
            run.window_ops = (i + 2) // 2
        i += 1
    return run


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes that state their sample counts."""
    samples = run.op_seconds
    value, pct = tail(samples)
    notes = {"op_samples": len(samples), "tail_percentile": pct, "failed_ratio": run.failed_ratio}
    metrics = {
        "setup_s": setup_s,
        "steps_per_s": run.steps / sum(samples),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, notes


def per_layer(run: Run, tracer, load_s: float) -> dict:
    """Per-layer metrics from the tracer's aggregates and the count window."""
    traced_ops = len(run.traced_seconds)
    metrics = {}
    for name, kind, spans in LAYER_TIMES:
        table = tracer.total if kind == "total" else tracer.self_time
        if isinstance(spans, str):
            picked = sum(v for k, v in table.items() if k.startswith(spans))
        else:
            picked = sum(table.get(s, 0.0) for s in spans)
        metrics[name] = picked / traced_ops
    metrics["scenario.load_s"] = load_s

    calls, counts, ops = run.window_calls, run.window_counts, run.window_ops
    steps = counts.get("steps", 0)
    per_step = lambda n: n / steps if steps else 0.0  # noqa: E731
    metrics.update({
        "measurement.steps": steps / ops,
        "channels.projectors_built_per_step": per_step(counts.get("projectors", 0)),
        "states.density_matrices_per_step": per_step(calls.get("states.DensityMatrix.__post_init__", 0)),
        "curves.evaluations_per_time":
            sum(calls.get(s, 0) for s in EVALUATE_SPANS) / counts["times"] if counts.get("times") else 0.0,
        "linalg.eigendecompose_calls": calls.get("linalg.hermitian_eigendecompose", 0) / ops,
        "linalg.require_cons_calls": calls.get("linalg.require_cons", 0) / ops,
        "bounds.calls": sum(v for k, v in calls.items() if k.startswith("bounds.")) / ops,
        "scenario.curve_builds_per_op": calls.get("scenario.build_curve", 0) / ops,
        "scenario.frames_bytes": counts.get("frames_bytes", 0) / ops,
        "sweep.csv_bytes": counts.get("csv_bytes", 0) / ops,
        "corpus.checks_run": counts.get("checks", 0) / ops,
        "trace.overhead_ratio": statistics.median(run.traced_seconds) / statistics.median(run.op_seconds),
    })
    return metrics
