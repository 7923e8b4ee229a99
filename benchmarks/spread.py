"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload corpus --seeds 1 2 3 4 5

For each metric it prints the median over the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median. Runs are made one after another, each in its own process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name}: median {med:.6g} spread {spread:.4f} min {min(vals):.6g} max {max(vals):.6g}")


if __name__ == "__main__":
    main()
