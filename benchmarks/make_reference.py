"""Regenerate the stored reference outputs that the benchmark's output gate
compares against.

    python3 benchmarks/make_reference.py

For each seed in REFERENCE_SEEDS it runs one op of each sweep workload and
the first corpus pass, and writes benchmarks/reference/<workload>.json:
every sweep record field, and the per-scenario corpus verdicts. Run it only
on a commit whose outputs are known to be right; a later change must
reproduce these records within 1e-12 and these verdicts exactly.
"""

import json
import os
import shutil
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from zenobench import workloads  # noqa: E402

REFERENCE_SEEDS = list(range(10)) + [42]


def reference_for(name: str, seed: int, workdir: str):
    workload = workloads.make_workload(name, seed, workdir)
    workload.setup()
    return workload.reference_data([workload.op(i) for i in range(workload.pass_ops)])


def main():
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    workdir = os.path.join(BENCH_DIR, ".work", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in ("refine_long", "corpus", "wide_sampled"):
            data = {str(seed): reference_for(name, seed, workdir) for seed in REFERENCE_SEEDS}
            with open(os.path.join(workloads.REFERENCE_DIR, f"{name}.json"), "w") as fh:
                json.dump(data, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"{name}: {len(data)} seeds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
