"""Corpus generator and battery tests: determinism, coverage, and the
structured failure path."""

import os

import numpy as np
import pytest

from zenolab.corpus import (
    CorpusScenario,
    build_scenario,
    check_suite,
    run_battery,
    scenario_seeds,
)
from zenolab.curves import StaticCurve
from zenolab.linalg import hermitian_eigendecompose
from zenolab.measurement import uniform_partition

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestScenarioSeeds:
    def test_deterministic_and_distinct(self):
        a = scenario_seeds(42, 50)
        b = scenario_seeds(42, 50)
        assert a == b
        assert len(set(a)) == 50

    def test_different_master_seeds_differ(self):
        assert scenario_seeds(1, 10) != scenario_seeds(2, 10)


class TestBuildScenario:
    def test_rebuild_from_seed_is_identical(self):
        seed = scenario_seeds(7, 5)[2]
        a = build_scenario(seed)
        b = build_scenario(seed)
        assert a.describe() == b.describe()
        np.testing.assert_array_equal(a.hamiltonian.matrix, b.hamiltonian.matrix)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.partition.times, b.partition.times)

    def test_corpus_covers_all_variants_and_dims(self):
        scenarios = [build_scenario(s) for s in scenario_seeds(42, 60)]
        assert {s.variant for s in scenarios} == {"static", "generated", "sampled"}
        assert {s.partition_kind for s in scenarios} == {"uniform", "random"}
        assert {s.dim for s in scenarios} >= {2, 3, 4, 5, 6, 7, 8} - {5}

    def test_battery_decomposes_the_hamiltonian_once(self, validations):
        # H is validated and decomposed where build_scenario makes it; the run,
        # curve_bounds and the path-enumeration oracle take that HermitianEigen.
        # The only other decomposition is a generated or sampled curve's generator.
        names, eighs = validations
        reports = [run_battery(build_scenario(seed)) for seed in scenario_seeds(42, 60)]
        assert all(r.passed for r in reports)
        assert any(r.scenario.dim == 2 and r.scenario.partition.n <= 6 for r in reports)
        assert names.count("hamiltonian") == len(reports)
        assert "matrix" not in names
        assert len(eighs) == len(reports) + sum(r.scenario.variant != "static" for r in reports)

    def test_zero_weight_padding_occurs(self):
        scenarios = [build_scenario(s) for s in scenario_seeds(42, 40)]
        assert any(np.min(s.weights) == 0.0 for s in scenarios)


class TestRunBattery:
    def test_small_slice_passes(self):
        for seed in scenario_seeds(3, 5):
            report = run_battery(build_scenario(seed))
            assert report.passed, report.render()
            assert report.checks_run > 5

    def test_broken_scenario_reports_structured_failure(self):
        # Weight vector does not match the basis dimension, so the battery
        # must report a failure instead of raising.
        good = build_scenario(scenario_seeds(3, 1)[0])
        bad = CorpusScenario(
            seed=good.seed,
            dim=2,
            variant="static",
            partition_kind="uniform",
            tau=1.0,
            weights=np.array([0.5, 0.3, 0.2]),
            hamiltonian=hermitian_eigendecompose(np.eye(2)),
            curve=StaticCurve(np.eye(2, dtype=complex), 1.0),
            partition=uniform_partition(1.0, 2),
        )
        report = run_battery(bad)
        assert not report.passed
        assert report.failures[0] == ("run_measurement", "weights have shape (3,), the curve has dimension 2")
        assert "FAIL" in report.render()

    def test_failed_row_is_listed_under_its_name(self, monkeypatch):
        import zenolab.bounds as bounds_mod

        scenario = build_scenario(scenario_seeds(3, 1)[0])
        monkeypatch.setattr(bounds_mod.CheckInputs, "eps_bounds", property(lambda self: np.full(self.dim, -1.0)))
        report = run_battery(scenario)
        assert [name for name, _ in report.failures] == ["leakage_bound"] * scenario.dim
        assert report.failures[0][1].startswith("k=1 leakage=")
        assert report.failures[0][1].endswith("bound=-1.0")
        assert "leakage_bound: k=1" in report.render()

    def test_trace_distance_bound_fails_as_its_row_with_every_check_run(self, monkeypatch):
        import zenolab.bounds as bounds_mod

        scenario = build_scenario(scenario_seeds(3, 1)[0])
        checks_run = run_battery(scenario).checks_run
        monkeypatch.setattr(bounds_mod, "trace_distance_bound", lambda weights, survivals: -1.0)
        report = run_battery(scenario)
        assert "trace_distance_bound" in [name for name, _ in report.failures]
        assert report.checks_run == checks_run

    def test_suite_result_render_is_stable(self):
        a = check_suite(5, 6).render()
        b = check_suite(5, 6).render()
        assert a == b
        assert a.endswith("result: PASS\n")

    def test_seeded_report_matches_golden_file(self):
        # Pins every scenario line, including each checks_run count.
        with open(os.path.join(DATA, "check_seed42_size20.txt"), "rb") as fh:
            assert check_suite(42, 20).render().encode() == fh.read()
