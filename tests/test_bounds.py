"""Bound and condition-checker tests.

Scalar expectations come from independent math.log/exp computations; the
protocol quantities they dominate come from run_measurement.
"""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from zenolab.bounds import (
    CHECKS,
    CheckInputs,
    dominating_operator,
    leakage_upper_bound,
    mesh_condition,
    run_checks,
    survival_lower_bound,
    trace_distance_bound,
    weight_error_bound,
)
from zenolab.curves import (GeneratedCurve, SampledCurve, StaticCurve, curve_bounds, drift_sums,
                            partition_lipschitz_estimate)
from zenolab.errors import ValidationError
from zenolab.linalg import hermitian_eigendecompose, seeded_cons, seeded_hermitian
from zenolab.measurement import run_measurement, uniform_partition
from zenolab.states import DensityMatrix, entr, von_neumann_entropy

from conftest import PAULI_X, state_matrix

E_INV = math.exp(-1)


def qubit_static():
    curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
    return np.array([0.7, 0.3]), hermitian_eigendecompose(PAULI_X), curve


class TestLeakageUpperBound:
    def test_single_step_qubit(self):
        # xi = ||X e_0|| = 1, eta = 0, sum dt^2 = 1
        bound = leakage_upper_bound(1.0, 0.0, uniform_partition(1.0, 1))
        assert bound == pytest.approx(2.0, abs=1e-14)
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 1))
        assert result.leakage[0] == pytest.approx(0.21242202548207134, abs=1e-12)
        assert result.leakage[0] <= bound

    def test_four_steps(self):
        assert leakage_upper_bound(1.0, 0.0, uniform_partition(1.0, 4)) == pytest.approx(0.5, abs=1e-14)

    def test_frozen_case_is_zero(self):
        assert leakage_upper_bound(0.0, 0.0, uniform_partition(1.0, 3)) == 0.0

    def test_rejects_negative_constants(self):
        with pytest.raises(ValidationError):
            leakage_upper_bound(-1.0, 0.0, uniform_partition(1.0, 1))


class TestMeshCondition:
    def test_threshold_solve(self):
        # xi=1, eta=0, a=2: true exactly when mesh <= sqrt(ln 2 / 2)
        threshold = math.sqrt(math.log(2) / 2)  # 0.5887050112577373
        assert mesh_condition(1.0, 0.0, 2.0, threshold - 1e-12)
        assert not mesh_condition(1.0, 0.0, 2.0, threshold + 1e-12)

    def test_zero_mesh_always_passes(self):
        for a in (1.5, 2.0, 4.0):
            assert mesh_condition(3.0, 5.0, a, 0.0)

    def test_monotone_in_lipschitz_constant(self):
        assert mesh_condition(1.0, 0.0, 2.0, 0.1)
        assert not mesh_condition(1.0, 50.0, 2.0, 0.1)

    def test_rejects_a_below_one(self):
        with pytest.raises(ValidationError, match="exceed 1"):
            mesh_condition(1.0, 0.0, 1.0, 0.1)


class TestSurvivalLowerBound:
    def test_static_qubit_two_steps(self):
        partition = uniform_partition(1.0, 2)
        assert mesh_condition(1.0, 0.0, 2.0, partition.mesh)
        lower = survival_lower_bound(1.0, 0.0, 2.0, partition, drift=0.0)
        assert lower == pytest.approx(E_INV, abs=1e-14)
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, partition)
        assert lower <= result.survivals[0] == pytest.approx(0.5931327983656772, abs=1e-12)

    def test_frozen_case(self):
        partition = uniform_partition(1.0, 4)
        assert survival_lower_bound(0.0, 0.0, 2.0, partition, drift=0.0) == pytest.approx(1.0, abs=1e-14)

    def test_bound_rises_toward_one_under_refinement(self):
        values = [
            survival_lower_bound(1.0, 0.0, 2.0, uniform_partition(1.0, n), drift=0.0)
            for n in (2, 4, 8, 16, 32, 64)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(math.exp(-2 / 64), abs=1e-12)


def weight_error_bound_of(weight, xi, eta, a, partition, drift):
    return weight_error_bound(
        weight, survival_lower_bound(xi, eta, a, partition, drift), leakage_upper_bound(xi, eta, partition)
    )


class TestWeightErrorBound:
    def test_frozen_case_is_zero(self):
        bound = weight_error_bound_of(0.7, 0.0, 0.0, 2.0, uniform_partition(1.0, 4), drift=0.0)
        assert bound == pytest.approx(0.0, abs=1e-14)

    def test_static_qubit_four_steps(self):
        partition = uniform_partition(1.0, 4)
        bound = weight_error_bound_of(0.7, 1.0, 0.0, 2.0, partition, drift=0.0)
        # 0.7 (1 - e^{-1/2}) + 0.5 by scalar oracle
        assert bound == pytest.approx(0.7754285382011565, abs=1e-12)
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, partition)
        assert abs(result.weights_out[0] - 0.7) <= bound

    def test_zero_weight_leaves_leakage_term(self):
        partition = uniform_partition(1.0, 4)
        bound = weight_error_bound_of(0.0, 1.0, 0.0, 2.0, partition, drift=0.0)
        assert bound == pytest.approx(leakage_upper_bound(1.0, 0.0, partition), abs=1e-14)


class TestTraceDistanceBound:
    def test_perfect_survival_gives_zero(self):
        assert trace_distance_bound([0.4, 0.6], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_qubit_single_step(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 1))
        bound = trace_distance_bound([0.7, 0.3], result.survivals)
        assert bound == pytest.approx(1.4161468365471421, abs=1e-12)
        assert result.trace_distance_to_target == pytest.approx(0.5664587346188568, abs=1e-12)
        assert result.trace_distance_to_target <= bound

    @pytest.mark.parametrize("seed", range(5))
    def test_always_in_unit_interval_times_two(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.exponential(size=4)
        w /= w.sum()
        g = rng.uniform(0.0, 1.0, size=4)
        assert 0.0 <= trace_distance_bound(w, g) <= 2.0

    @pytest.mark.parametrize("weights", [[0.7, 0.7], [0.7, 0.3 + 5e-10]], ids=["far", "beyond_state_tol"])
    def test_holds_weights_to_the_run_rule(self, weights):
        # The same rule, and message, that run_measurement applies to its weights.
        w, h, curve = qubit_static()
        with pytest.raises(ValidationError) as run_error:
            run_measurement(weights, h, curve, uniform_partition(1.0, 1))
        with pytest.raises(ValidationError) as bound_error:
            trace_distance_bound(weights, [1.0, 1.0])
        assert str(bound_error.value) == str(run_error.value) == f"weights sum to {sum(weights)!r}, expected 1"


class TestConvergenceConditionsReport:
    """The finite-sample footprint of the convergence conditions along a
    refinement family: drift sums that vanish, and per-partition Lipschitz
    estimates that settle instead of growing with N."""

    @staticmethod
    def refine(curve, k, sizes):
        partitions = [uniform_partition(curve.tau, n) for n in sizes]
        frames = [curve.frames_at(p.times) for p in partitions]
        drifts = [float(drift_sums(f)[k]) for f in frames]
        estimates = [float(partition_lipschitz_estimate(f, p.steps)[k]) for f, p in zip(frames, partitions)]
        return drifts, estimates

    def test_static_curve_passes_with_zero_drift(self):
        curve = StaticCurve(seeded_cons(3, 1), 1.0)
        drifts, estimates = self.refine(curve, 0, (2, 8, 32))
        assert curve_bounds(curve, hermitian_eigendecompose(seeded_hermitian(3, 2)))[1][0] == 0.0
        assert all(v == 0.0 for v in drifts)
        assert all(v == 0.0 for v in estimates)

    def test_generated_curve_passes_at_fine_refinement(self):
        curve = GeneratedCurve(seeded_hermitian(3, 5), seeded_cons(3, 6), 1.0)
        eta = float(curve_bounds(curve, hermitian_eigendecompose(seeded_hermitian(3, 7)))[1][1])
        drifts, estimates = self.refine(curve, 1, (2, 8, 32, 128, 512))
        assert abs(drifts[-1]) <= 1e-3 * eta**2 * curve.tau**2
        assert estimates[-1] <= 1.5 * estimates[-2]
        # drift shrinks roughly like lipschitz^2 tau^2 / (2 N)
        assert abs(drifts[-1]) <= eta**2 / (2 * 512) + 1e-9

    def test_discontinuous_sampled_curve_is_flagged(self):
        # A basis swap at t = 1/2: the per-partition Lipschitz estimates
        # double at every refinement instead of stabilizing.
        grid = np.linspace(0.0, 1.0, 257)
        before = np.eye(2, dtype=complex)
        after = np.array([[0, 1], [1, 0]], dtype=complex)
        frames = [before if t < 0.5 else after for t in grid]
        curve = SampledCurve(grid, frames)
        _, estimates = self.refine(curve, 0, (4, 16, 64, 256))
        assert estimates[-1] > 3 * estimates[-2] / 2


class TestDominatingOperator:
    def test_frozen_case_reduces_to_target(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        sigma = dominating_operator([0.7, 0.3], [0.0, 0.0], [0.0, 0.0], curve.frames_at(1.0)[0])
        np.testing.assert_allclose(sigma, np.diag([0.7, 0.3]), atol=1e-14)

    def test_static_qubit_majorant(self):
        w, h, curve = qubit_static()
        sigma = dominating_operator([0.7, 0.3], [1.0, 1.0], [0.0, 0.0], curve.frames_at(1.0)[0])
        np.testing.assert_allclose(sigma, np.diag([1.7, 1.3]), atol=1e-14)
        result = run_measurement(w, h, curve, uniform_partition(1.0, 4))
        assert np.min(np.linalg.eigvalsh(sigma - result.rho_final.matrix)) >= -1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_identity(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        curve = GeneratedCurve(seeded_hermitian(dim, seed), seeded_cons(dim, seed + 1), 1.0)
        w = rng.exponential(size=dim)
        w /= w.sum()
        xis = rng.uniform(0.0, 1.0, size=dim)
        etas = rng.uniform(0.0, 1.0, size=dim)
        sigma = dominating_operator(w, xis, etas, curve.frames_at(0.8)[0])
        expected = 1.0 + float(np.sum(xis**2 + etas**2))
        assert np.trace(sigma).real == pytest.approx(expected, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-12


class TestEntropyConditionReport:
    """The three entropy rows on chosen weights, xis and etas, against scalar sums."""

    @staticmethod
    def inputs(w, xis, etas) -> CheckInputs:
        x = generated_inputs(dim=len(w))
        w, xis, etas = (np.asarray(v, dtype=float) for v in (w, xis, etas))
        return dataclasses.replace(x, result=dataclasses.replace(x.result, weights=w), xis=xis, etas=etas)

    def test_zero_constants_collapse_to_state_entropy(self):
        x = self.inputs([0.7, 0.3], [0.0, 0.0], [0.0, 0.0])
        [(passed, sums)] = row_outcomes(x, "dominator_entropy")
        assert passed
        assert sums["sum_entr_combined"] == pytest.approx(sums["state_entropy"], abs=1e-14)
        assert [passed for passed, _ in row_outcomes(x, "entropy_subadditivity")] == [True]

    def test_four_level_example_against_scalar_sums(self):
        w = [0.4, 0.3, 0.2, 0.1]
        xis = [0.1, 0.05, 0.02, 0.01]
        etas = [0.0, 0.0, 0.0, 0.0]
        x = self.inputs(w, xis, etas)
        s_rho = -sum(v * math.log(v) for v in w)
        s_x = -sum((xi * xi) * math.log(xi * xi) for xi in xis)
        combined = [v + xi * xi for v, xi in zip(w, xis)]
        s_c = -sum(c * math.log(c) for c in combined)
        [(passed, sums)] = row_outcomes(x, "dominator_entropy")
        assert passed
        assert sums["state_entropy"] == pytest.approx(s_rho, abs=1e-12)
        assert sums["sum_entr_xi_sq"] == pytest.approx(s_x, abs=1e-12)
        assert sums["sum_entr_eta_sq"] == 0.0
        assert sums["sum_entr_combined"] == pytest.approx(s_c, abs=1e-12)
        assert [passed for passed, _ in row_outcomes(x, "entropy_subadditivity")] == [True]
        # Only the first combined value 0.41 exceeds 1/e.
        assert x.tail_index == 1
        [(passed, tail)] = row_outcomes(x, "entropy_tail_monotone")
        assert passed
        assert tail["tail_index"] == 1
        assert tail["tail_combined"] == pytest.approx(-sum(c * math.log(c) for c in combined[1:]), abs=1e-12)

    def test_all_arguments_outside_monotone_region(self):
        x = self.inputs([0.5, 0.5], [1.0, 1.0], [1.0, 1.0])
        assert x.tail_index is None
        assert row_outcomes(x, "entropy_tail_monotone") == []


def generated_inputs(dim=3, n=8, seed=0, constants=(1.5, 2.0, 4.0)) -> CheckInputs:
    h = hermitian_eigendecompose(seeded_hermitian(dim, 11))
    curve = GeneratedCurve(seeded_hermitian(dim, 12), seeded_cons(dim, 13), 1.0)
    weights = np.linspace(1.0, 2.0, dim) / np.linspace(1.0, 2.0, dim).sum()
    result = run_measurement(weights, h, curve, uniform_partition(1.0, n))
    xis, etas = curve_bounds(curve, h)
    return CheckInputs(result, curve, h, xis, etas, constants, seed=seed)


def row_outcomes(inputs: CheckInputs, name: str) -> list:
    row = next(c for c in CHECKS if c.name == name)
    return list(row.compare(inputs, row.tol))


class TestCheckRowsReadTheRun:
    def test_projection_family_fails_on_a_scaled_column_of_the_final_frame(self):
        x = generated_inputs()
        [(passed, _)] = row_outcomes(x, "projection_family")
        assert passed
        final = x.result.frames.final.copy()
        final[:, 1] *= 1.0 + 1e-6
        frames = dataclasses.replace(x.result.frames, final=final)
        broken = dataclasses.replace(x, result=dataclasses.replace(x.result, frames=frames))
        [(passed, fields)] = row_outcomes(broken, "projection_family")
        assert not passed
        assert fields["orthonormality_defect"] == pytest.approx(2e-6, rel=1e-5)

    def test_a_skewed_final_frame_fails_its_row_and_raises_nowhere(self):
        # The frame at tau is a value the run computed: sigma_domination builds
        # its majorant from it as given, and only projection_family judges it.
        x = generated_inputs()
        final = x.result.frames.final.copy()
        final[:, 1] *= 1.0 + 1e-6
        frames = dataclasses.replace(x.result.frames, final=final)
        broken = dataclasses.replace(x, result=dataclasses.replace(x.result, frames=frames))
        outcomes = run_checks(broken)
        assert len(outcomes) == len(run_checks(x)) == 28
        assert [name for name, passed, _ in outcomes if not passed] == ["projection_family"]

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_target_entropy_is_the_weight_entropy(self, dim):
        # Each computed eigenvalue of the target is off by about delta = d * eps,
        # and entr has slope at most 1 + |ln delta| on [delta, 1], a zero weight included.
        delta = dim * np.finfo(float).eps
        tol = dim * delta * (1.0 + abs(math.log(delta)))
        curve = GeneratedCurve(seeded_hermitian(dim, 1), seeded_cons(dim, 2), 1.0)
        for seed in range(20):
            w = np.random.default_rng(seed).exponential(size=dim)
            if seed % 2:
                w[seed % dim] = 0.0
            w = w / w.sum()
            target = von_neumann_entropy(DensityMatrix(state_matrix(w, curve.frames_at(0.7)[0])))
            assert abs(target - float(np.sum(entr(w)))) <= tol

    def test_entropy_gap_is_the_distance_to_the_target_entropy(self):
        x = generated_inputs(dim=4)
        target = von_neumann_entropy(DensityMatrix(state_matrix(x.result.weights, x.result.frames.final)))
        delta = 4 * np.finfo(float).eps
        assert x.entropy_gap == pytest.approx(abs(x.entropy - target), rel=0, abs=4 * delta * (1 - math.log(delta)))
        [(passed, fields)] = row_outcomes(x, "fannes_bound")
        assert fields["gap"] == x.entropy_gap

    def test_lipschitz_witness_draws_the_pairs_of_eight_two_time_draws(self):
        x = generated_inputs()
        for seed in range(50):
            rng = np.random.default_rng(seed ^ 0x5EED)
            pairs = [sorted(float(t) for t in rng.uniform(0.0, x.curve.tau, size=2)) for _ in range(8)]
            outcomes = row_outcomes(dataclasses.replace(x, seed=seed), "lipschitz_witness")
            assert [[f["t0"], f["t1"]] for _, f in outcomes] == pairs
            for (t0, t1), (passed, _) in zip(pairs, outcomes):
                steps = np.linalg.norm(x.curve.frames_at(t1)[0] - x.curve.frames_at(t0)[0], axis=0)
                assert passed == bool(np.all(steps <= x.etas * (t1 - t0) + 1e-9))


class TestCheckInputsOverArrays:
    def test_vectors_match_the_scalar_formulas(self):
        x = generated_inputs(dim=5, n=3)
        xis, etas, p = x.xis, x.etas, x.result.partition
        for k in range(x.dim):
            assert x.eps_bounds[k] == leakage_upper_bound(float(xis[k]), float(etas[k]), p)
            for a in x.constants:
                exponent = -a * ((xis[k] ** 2 + 2 * xis[k] * etas[k]) * p.sumsq - 2.0 * x.drifts[k])
                assert x.gamma_lbs[a][k] == pytest.approx(math.exp(exponent), rel=4 * np.finfo(float).eps)
                scalar = x.result.weights[k] * (1.0 - math.exp(exponent)) + 2.0 * (xis[k] ** 2 + etas[k] ** 2) * p.sumsq
                assert x.weight_error_bounds[a][k] == pytest.approx(scalar, rel=4 * np.finfo(float).eps)

    def test_gated_pairs_are_k_major(self):
        x = generated_inputs(dim=5, n=16)
        expected = [
            (k, a)
            for k in range(x.dim)
            for a in x.constants
            if mesh_condition(float(x.xis[k]), float(x.etas[k]), a, x.result.partition.mesh)
        ]
        assert 0 < len(expected) < x.dim * len(x.constants)
        assert x.gated == expected

    def test_negative_entry_of_a_vector_is_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            leakage_upper_bound(np.array([1.0, -1e-300]), np.zeros(2), uniform_partition(1.0, 2))


class TestEntropySemicontinuityAlongSweeps:
    def test_limit_entropy_below_tail_minimum(self):
        w, h, curve = qubit_static()
        entropies = []
        for n in (32, 64, 128, 256, 512, 1024):
            result = run_measurement(w, h, curve, uniform_partition(1.0, n))
            entropies.append(von_neumann_entropy(result.rho_final))
        limit = von_neumann_entropy(DensityMatrix(np.diag(w)))
        tail = entropies[len(entropies) // 2 :]
        assert limit <= min(tail) + 1e-6


class TestCheckTable:
    def test_every_row_compares_with_its_own_tol(self):
        # With tol = -inf no comparison can pass. Every row compares on this run:
        # d = 2 with N = 6, a uniform plan, a generated curve slow enough for the
        # mesh gate and a small trace distance, and a last weight that leaves a tail.
        h = hermitian_eigendecompose(0.1 * seeded_hermitian(2, 11))
        curve = GeneratedCurve(0.1 * seeded_hermitian(2, 12), seeded_cons(2, 13), 1.0)
        result = run_measurement([0.9, 0.1], h, curve, uniform_partition(1.0, 6))
        xis, etas = curve_bounds(curve, h)
        x = CheckInputs(result, curve, h, xis, etas, (1.5, 2.0, 4.0))
        for row in CHECKS:
            outcomes = list(row.compare(x, row.tol))
            assert outcomes and all(passed for passed, _ in outcomes), row.name
            assert not any(passed for passed, _ in row.compare(x, -math.inf)), row.name

    def test_names_unique(self):
        names = [c.name for c in CHECKS]
        assert len(set(names)) == len(names)

    def test_readme_table_matches_the_code(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Checks", 1)[1].split("\n## ", 1)[0]
        rows = []
        for line in section.splitlines():
            m = re.match(r"\| `(\w+)`[^|]*\| (\S+)[^|]* \|$", line)
            if m:
                rows.append((m.group(1), float(m.group(2))))
        assert rows == [(c.name, c.tol) for c in CHECKS]
