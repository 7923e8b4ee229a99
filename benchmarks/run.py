"""zenolab benchmark: one workload, one seed, one timed closed-loop run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload refine_long --seed 42 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. Lines before it state the environment,
the input sizes and the sample count behind each figure. A fuller result,
and the span records of a traced run, go to benchmarks/results/.

BLAS is pinned to one thread before numpy is imported, and ZENOLAB_THREADS is
removed, so sweeps run serially on one core.
"""

import os
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ZENOLAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
SETUP_REPEATS = 3
STARTUP_REPEATS = 9
WORKLOAD_NAMES = ("refine_long", "corpus", "wide_sampled")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_zenolab():
    """Import zenolab from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "zenolab", "__init__.py")):
        sys.exit(f"benchmark: no zenolab sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import zenolab

    if os.path.dirname(os.path.dirname(os.path.abspath(zenolab.__file__))) != SRC:
        sys.exit(f"benchmark: imported zenolab from {zenolab.__file__}, expected {SRC}")
    from zenobench import harness, tracing, workloads

    return harness, tracing, workloads


def startup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports zenolab and exits."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import zenolab"
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls for the child's exit in steps
        # of up to 50 ms, and the time read would move in those steps.
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def format_metrics(values: dict, specs) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    harness, tracing, workloads = import_zenolab()

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        load_s = 0.0
        if tracer is not None:
            tracer.uninstall()
            loads = tracer.calls["scenario.load_scenario"]
            load_s = tracer.total["scenario.load_scenario"] / loads if loads else 0.0
            tracer.clear()
        startup_s = startup_seconds() if tracer is None else 0.0
        setup_s = startup_s + statistics.median(setup_times)

        run = harness.run_ops(workload, args.seconds, tracer)
        env = harness.environment(ROOT, workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, notes = harness.end_to_end(run, setup_s)
        metrics = format_metrics(values, harness.END_TO_END)
        notes["setup_parts_s"] = {"startup_and_import": startup_s, "inputs_and_ingest": setup_times}
    else:
        values = harness.per_layer(run, tracer, load_s)
        metrics = format_metrics(values, harness.PER_LAYER)
        notes = {"traced_ops": len(run.traced_seconds), "untraced_ops": len(run.op_seconds),
                 "count_window_ops": run.window_ops, "failed_ratio": run.failed_ratio}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
                   "notes": notes, "op_seconds": run.op_seconds, "traced_op_seconds": run.traced_seconds,
                   "problems": run.problems[:50], "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.npz")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    print("notes " + json.dumps(notes))
    for problem in run.problems[:10]:
        print("problem " + problem)
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
