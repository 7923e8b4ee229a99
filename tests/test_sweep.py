"""Sweep, CSV round-trip, and rate-fitting tests."""

import math
import os

import numpy as np
import pytest

from zenolab.errors import ValidationError
from zenolab.scenario import load_scenario
from zenolab.states import fannes_bound_at
from zenolab.sweep import (
    SweepRecord,
    fit_loglog,
    fit_rate,
    read_csv,
    record_column,
    run_sweep,
    write_csv,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def rotated_scenario(tmp_path, plan=None):
    """d=4 generated curve over a random basis: the state is diagonal there only up to rounding."""
    import json

    path = tmp_path / "rotated.json"
    path.write_text(
        json.dumps(
            {
                "dim": 4,
                "hamiltonian": {"random": {"seed": 1, "norm": 1.0}},
                "state": {"eigenvalues": [0.4, 0.3, 0.2, 0.1], "basis": {"random": {"seed": 2}}},
                "curve": {"generated": {"generator": {"random": {"seed": 3, "norm": 1.0}}}},
                "tau": 1.0,
                "partitions": plan or {"uniform": [2, 4, 8]},
            }
        )
    )
    return load_scenario(str(path))


def small_qubit_scenario(tmp_path, ns=(2, 4, 8, 16, 32, 64)):
    import json

    path = tmp_path / "qubit.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "hamiltonian": "pauli_x",
                "state": {"eigenvalues": [0.7, 0.3], "basis": "standard"},
                "curve": {"static": {}},
                "tau": 1.0,
                "partitions": {"uniform": list(ns)},
            }
        )
    )
    return load_scenario(str(path))


class TestRunSweep:
    def test_zeno_scenario_distances_vanish(self):
        scenario = load_scenario(os.path.join(SCENARIOS, "zeno_diagonal.json"))
        records = run_sweep(scenario)
        assert [r.n for r in records] == [1, 7, 100]
        for r in records:
            # Exact freezing makes the distance 0. Error model: each channel
            # step rounds the state by about d * eps, and the steps are
            # contractions, so the residual stays below N * d * eps.
            assert r.trace_distance <= r.n * r.dim * np.finfo(float).eps
            assert r.entropy_gap <= 1e-10

    def test_qubit_distances_strictly_decreasing(self, tmp_path):
        records = run_sweep(small_qubit_scenario(tmp_path))
        distances = [r.trace_distance for r in records]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        for r in records:
            assert r.trace_distance <= r.trace_bound + 1e-9

    def test_records_carry_per_index_blocks(self, tmp_path):
        records = run_sweep(small_qubit_scenario(tmp_path, ns=(4,)))
        r = records[0]
        assert r.dim == 2
        assert r.lambdas[0] + r.lambdas[1] == pytest.approx(1.0, abs=1e-9)
        assert r.eps_bounds[0] == pytest.approx(0.5, abs=1e-12)
        assert r.a3s == (0.0, 0.0)

    @pytest.mark.parametrize(
        "plan, per_partition", [({"uniform": [2, 4, 8]}, 4), ({"random": {"seed": 5, "n": [2, 4, 8]}}, 0)]
    )
    def test_drift_decay_row_compares_on_uniform_plans_only(self, tmp_path, monkeypatch, plan, per_partition):
        import zenolab.sweep as sweep_mod

        run_checks = sweep_mod.run_checks
        counts = []

        def counting(inputs):
            outcomes = run_checks(inputs)
            counts.append(sum(name == "drift_decay_bound_uniform" for name, _, _ in outcomes))
            return outcomes

        monkeypatch.setattr(sweep_mod, "run_checks", counting)
        run_sweep(rotated_scenario(tmp_path, plan))
        assert counts == [per_partition] * 3

    def test_deterministic_across_runs(self, tmp_path):
        scenario = small_qubit_scenario(tmp_path)
        a = run_sweep(scenario)
        b = run_sweep(scenario)
        assert a == b

    # Each id names the row's bound family, then the row.
    @pytest.mark.parametrize(
        "name",
        [
            pytest.param("trace_distance_equals_weight_gap", id="trace_bound-trace_distance_equals_weight_gap"),
            pytest.param("leakage_bound", id="leakage_bound-leakage_bound"),
            pytest.param("survival_lower_bound", id="survival_bounds-survival_lower_bound"),
            pytest.param("weight_error_bound", id="survival_bounds-weight_error_bound"),
            pytest.param("trace_distance_bound", id="trace_bound-trace_distance_bound"),
            pytest.param("fannes_bound", id="fannes-fannes_bound"),
            pytest.param("sigma_domination", id="sigma-sigma_domination"),
            pytest.param("dominator_entropy", id="sigma-dominator_entropy"),
            pytest.param("drift_bound", id="drift-drift_bound"),
        ],
    )
    def test_violated_bound_aborts_with_named_diagnostic(self, tmp_path, monkeypatch, name):
        import dataclasses

        import zenolab.bounds as bounds_mod
        import zenolab.sweep as sweep_mod
        from zenolab.curves import GeneratedCurve, drift_sums, half_square_sums
        from zenolab.errors import InvariantViolation
        from zenolab.measurement import FrameSummary
        from zenolab.states import FannesBound

        measure = sweep_mod.run_measurement

        def moving_frames(rho, h, curve, partition):
            # Frames of a rotating curve under a static one: the drift identity
            # still holds for them, but the static curve's eta = 0 bounds the drift by 0.
            rotating = GeneratedCurve(np.array([[0, -1j], [1j, 0]]), curve.base, curve.tau)
            frames = rotating.frames_at(partition.times)
            summary = FrameSummary(frames[-1], drift_sums(frames), half_square_sums(frames))
            result = measure(rho, h, curve, partition)
            return dataclasses.replace(result, frames=summary)

        def shifted_distance(rho, h, curve, partition):
            result = measure(rho, h, curve, partition)
            return dataclasses.replace(result, trace_distance_to_target=result.trace_distance_to_target + 1e-6)

        # One poisoned formula per named inequality; every earlier row still passes.
        # dominator_entropy has no formula of its own to poison: per-index
        # subadditivity within 1e-12 implies the sum within d * 1e-12, so its row is.
        poison = {
            "trace_distance_equals_weight_gap": (sweep_mod, "run_measurement", shifted_distance),
            "leakage_bound": (bounds_mod, "leakage_upper_bound", lambda xi, eta, p: np.full(np.shape(xi), -1.0)),
            "survival_lower_bound": (bounds_mod, "survival_lower_bound", lambda xi, *args: np.full(np.shape(xi), 2.0)),
            "weight_error_bound": (bounds_mod, "weight_error_bound", lambda w, *args: np.full(np.shape(w), -1.0)),
            "trace_distance_bound": (bounds_mod, "trace_distance_bound", lambda w, g: -1.0),
            "fannes_bound": (bounds_mod, "fannes_bound_at", lambda t, d: FannesBound(t, True, -1.0)),
            "sigma_domination": (bounds_mod, "dominating_operator", lambda *args: np.zeros((2, 2))),
            "dominator_entropy": (
                bounds_mod,
                "CHECKS",
                tuple(c._replace(tol=-np.inf) if c.name == "dominator_entropy" else c for c in bounds_mod.CHECKS),
            ),
            "drift_bound": (sweep_mod, "run_measurement", moving_frames),
        }
        monkeypatch.setattr(*poison[name])
        with pytest.raises(InvariantViolation, match=name) as excinfo:
            run_sweep(small_qubit_scenario(tmp_path, ns=(4,)))
        assert excinfo.value.name == name
        assert "N=4" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["projection_family", "leakage_path_enumeration"])
    def test_sweep_runs_the_rows_the_corpus_runs(self, tmp_path, monkeypatch, name):
        import zenolab.bounds as bounds_mod
        from zenolab.errors import InvariantViolation

        poison = {
            "projection_family": ("orthonormality_defect", lambda frame: 1.0),
            "leakage_path_enumeration": ("leakage_by_path_enumeration", lambda *args: np.array([0.5, 0.5])),
        }
        monkeypatch.setattr(bounds_mod, *poison[name])
        with pytest.raises(InvariantViolation, match=name) as excinfo:
            run_sweep(small_qubit_scenario(tmp_path, ns=(4,)))
        assert excinfo.value.name == name
        assert "N=4" in str(excinfo.value)

    def test_protocol_violation_carries_scenario_context(self, tmp_path, monkeypatch):
        from zenolab.errors import InvariantViolation

        import zenolab.sweep as sweep_mod

        scenario = small_qubit_scenario(tmp_path, ns=(4,))

        def explode(*args, **kwargs):
            raise InvariantViolation("dual_oracle_agreement", gap=0.5)

        monkeypatch.setattr(sweep_mod, "run_measurement", explode)
        with pytest.raises(InvariantViolation, match="dual_oracle_agreement") as excinfo:
            run_sweep(scenario)
        assert "N=4" in str(excinfo.value)


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        for load in (small_qubit_scenario, rotated_scenario):
            records = run_sweep(load(tmp_path))
            path = str(tmp_path / "out.csv")
            write_csv(records, path)
            assert read_csv(path) == records

    def test_round_trip_is_exact_for_last_ulp_fannes_distance(self, tmp_path):
        # At this distance a log-based recomputation differing from the
        # entropy kernel's lands one ulp away from the stored bound.
        t = 0.05658778652591252
        fannes = fannes_bound_at(t, 2)
        record = SweepRecord(
            n=4, mesh=0.25, sumsq=0.25, trace_distance=t, trace_bound=0.5, entropy=0.6, entropy_gap=0.01,
            fannes_applicable=fannes.applicable, fannes_bound=fannes.bound,
            lambdas=(0.7, 0.3), gammas=(0.9, 0.8), eps=(0.01, 0.02), eps_bounds=(0.5, 0.5),
            gamma_lbs=(0.6, 0.6), a3s=(0.0, 0.0),
        )
        path = str(tmp_path / "one.csv")
        write_csv([record], path)
        assert read_csv(path) == [record]

    def test_header_and_schema_line(self, tmp_path):
        records = run_sweep(small_qubit_scenario(tmp_path, ns=(2,)))
        path = str(tmp_path / "out.csv")
        write_csv(records, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1].startswith("N,mesh,sumsq,trace_distance,trace_bound,entropy,entropy_gap,lambda_1")
        assert lines[1].endswith("gamma_lb_2,a3_2")

    def test_identical_bytes_across_runs(self, tmp_path):
        scenario = small_qubit_scenario(tmp_path)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(run_sweep(scenario), p1)
        write_csv(run_sweep(scenario), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("blocks", [{"eps": (0.01,)}, {"a3s": (0.0, 0.0, 0.0)}], ids=["short", "long"])
    def test_ragged_blocks_rejected(self, tmp_path, blocks):
        full = dict(lambdas=(0.7, 0.3), gammas=(0.9, 0.8), eps=(0.01, 0.02), eps_bounds=(0.5, 0.5),
                    gamma_lbs=(0.6, 0.6), a3s=(0.0, 0.0))
        records = [SweepRecord(n=2, **full), SweepRecord(n=4, **{**full, **blocks})]
        with pytest.raises(ValidationError, match="every record needs 2 entries in each per-index block"):
            write_csv(records, str(tmp_path / "ragged.csv"))

    def test_missing_schema_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("N,mesh\n1,1.0\n")
        with pytest.raises(ValidationError, match="#schema=1"):
            read_csv(str(bad))


class TestRecordColumn:
    def test_scalar_and_block_columns(self):
        record = SweepRecord(n=4, mesh=0.25, trace_distance=0.5, lambdas=(0.6, 0.4), gammas=(0.9, 0.8))
        assert record_column(record, "N") == 4.0
        assert record_column(record, "trace_distance") == 0.5
        assert record_column(record, "lambda_2") == 0.4
        assert record_column(record, "gamma_1") == 0.9

    def test_unknown_column_rejected(self):
        with pytest.raises(ValidationError, match="unknown column"):
            record_column(SweepRecord(), "nonsense")
        with pytest.raises(ValidationError, match="unknown column"):
            record_column(SweepRecord(lambdas=(1.0,)), "lambda_2")


class TestFitRate:
    def test_exact_first_order_sequence(self):
        ns = [2, 4, 8, 16, 32]
        fit = fit_loglog(ns, [3.0 / n for n in ns])
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
        assert fit.residual_norm <= 1e-12

    def test_exact_second_order_sequence(self):
        ns = [2, 4, 8, 16, 32]
        fit = fit_loglog(ns, [5.0 / n**2 for n in ns])
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)

    def test_qubit_sweep_rate_near_first_order(self, tmp_path):
        records = run_sweep(small_qubit_scenario(tmp_path, ns=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)))
        fit = fit_rate(records, "trace_distance")
        assert -1.15 <= fit.slope <= -0.85

    def test_synthetic_records_through_fit_rate(self):
        records = [SweepRecord(n=n, trace_distance=2.0 / n) for n in (2, 4, 8, 16)]
        fit = fit_rate(records, "trace_distance")
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_needs_four_positive_points(self):
        with pytest.raises(ValidationError, match="at least 4"):
            fit_loglog([1, 2, 3], [1.0, 0.5, 0.25])
        with pytest.raises(ValidationError, match="positive"):
            fit_loglog([1, 2, 3, 4], [1.0, 0.5, 0.0, 0.25])
