"""Tests of the benchmark itself: seeded inputs, printed metric names and
units, and the output gate.

    python3 -m pytest benchmarks/tests -q
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import zenolab
from zenobench import harness, tracing, workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_inputs_repeat_for_a_seed_and_differ_for_another():
    assert workloads.refine_long_inputs(7) == workloads.refine_long_inputs(7)
    assert workloads.refine_long_inputs(7) != workloads.refine_long_inputs(8)
    assert workloads.wide_sampled_inputs(7) == workloads.wide_sampled_inputs(7)
    scenario7, files7 = workloads.wide_sampled_inputs(7)
    scenario8, files8 = workloads.wide_sampled_inputs(8)
    assert scenario7 != scenario8 and files7["frames.json"]["frames"] != files8["frames.json"]["frames"]
    assert workloads.corpus_inputs(7) == workloads.corpus_inputs(7)
    assert workloads.corpus_inputs(7) != workloads.corpus_inputs(8)


def test_corpus_starts_with_the_check_corpus():
    seeds = workloads.corpus_inputs(42)
    assert seeds[: workloads.CORPUS_PASS] == zenolab.scenario_seeds(42, workloads.CORPUS_PASS)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "refine_long",
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[3] for line in out.splitlines() if line.startswith("metric ")}
    assert printed == expected


def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_perturbed_reference_record_fails_the_op(tmp_path):
    workload = workloads.make_workload("refine_long", 42, str(tmp_path))
    assert workload.reference is not None
    workload.setup()
    assert harness.run_ops(workload, 0).failed_ratio == 0
    workload.reference = copy.deepcopy(workload.reference)
    workload.reference[5]["trace_distance"] += 1e-9
    run = harness.run_ops(workload, 0)
    assert run.failed_ratio > 0
    assert any("trace_distance" in p for p in run.problems)


def _inject_fail(report):
    return dataclasses.replace(report, failures=report.failures + (("injected", "forced FAIL"),))


@pytest.mark.parametrize("inject", ["verdict", "reference"])
def test_injected_fail_verdict_fails_the_op(tmp_path, monkeypatch, inject):
    workload = workloads.make_workload("corpus", 42, str(tmp_path))
    workload.pass_ops = 1
    workload.setup()
    assert harness.run_ops(workload, 0).failed_ratio == 0
    if inject == "verdict":
        battery = zenolab.run_battery
        monkeypatch.setattr(zenolab, "run_battery", lambda s: _inject_fail(battery(s)))
    else:
        workload.reference = copy.deepcopy(workload.reference)
        workload.reference[0][2] = "FAIL"
    assert harness.run_ops(workload, 0).failed_ratio > 0


def test_tail_has_ten_samples_beyond_it():
    value, pct = harness.tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)
    assert harness.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_tracer_patches_imported_names_and_restores_them(tmp_path):
    original = zenolab.measurement.trace_norm
    assert original is zenolab.linalg.trace_norm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zenolab.measurement.trace_norm is not original
        assert zenolab.measurement.trace_norm.__wrapped__ is original
        rho = zenolab.DensityMatrix.maximally_mixed(2)
        zenolab.von_neumann_entropy(rho)
    finally:
        tracer.uninstall()
    assert zenolab.measurement.trace_norm is original
    assert tracer.calls["states.DensityMatrix.maximally_mixed"] == 1
    assert tracer.calls["states.DensityMatrix.__post_init__"] == 1
    assert tracer.calls["states.von_neumann_entropy"] == 1
    tracer.write_spans(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        names = list(spans["names"])
        ints, times = spans["ints"], spans["times"]
    assert len(ints) == len(times) == sum(tracer.calls.values())
    recorded = [names[row[1]] for row in ints]
    assert recorded.count("states.DensityMatrix.__post_init__") == 1
    post_init = recorded.index("states.DensityMatrix.__post_init__")
    parent = ints[post_init][2]
    assert names[ints[ints[:, 0] == parent][0][1]] == "states.DensityMatrix.maximally_mixed"
    assert (times[:, 0] <= times[:, 1]).all()
