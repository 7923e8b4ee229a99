"""Stress tier: long runs at large N and d, minutes each. The `stress`
marker keeps them out of the default selection; run them with

    PYTHONPATH=src python -m pytest -m stress
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# One d = 64, N = 1e5 run in a fresh process, which prints its own peak RSS in KiB.
LONG_RUN = """
import resource

import numpy as np

from zenolab import (GeneratedCurve, hermitian_eigendecompose, run_measurement, seeded_cons, seeded_hermitian,
                     uniform_partition)

d, n = 64, 100_000
base = seeded_cons(d, 1)
w = np.random.default_rng(2).exponential(size=d)
curve = GeneratedCurve(seeded_hermitian(d, 3), base, 1.0)
run_measurement(w / w.sum(), hermitian_eigendecompose(seeded_hermitian(d, 4)), curve, uniform_partition(1.0, n))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.stress
def test_d64_n1e5_run_peaks_below_300_mib():
    # A run streams its trajectory in blocks, so its memory does not grow
    # with N; the whole (N+1, d, d) frame stack alone would take 6.6 GB here.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-c", LONG_RUN], env=env, capture_output=True, text=True, check=True)
    peak_kib = int(out.stdout.split()[-1])
    assert peak_kib < 300 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"
