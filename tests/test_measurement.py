"""Protocol tests: partitions, the channel-composition route, the transfer
route, survival and leakage, and the cross-checks between them.

The qubit expectations are frozen from the scalar closed form: one step of
spin-flip evolution measured in the computational basis mixes the weights
through cos^2/sin^2 of the step length.
"""

import math

import numpy as np
import pytest

from zenolab.curves import GeneratedCurve, SampledCurve, StaticCurve
from zenolab.errors import InvariantViolation, ValidationError
from zenolab.linalg import seeded_cons, seeded_hermitian
from zenolab.measurement import (
    Partition,
    evolve_by_channels,
    leakage_by_path_enumeration,
    propagate_weights,
    random_partition,
    run_measurement,
    step_transition_matrix,
    survival_probability,
    target_state,
    uniform_partition,
)
from zenolab.states import DensityMatrix

from conftest import PAULI_X

COS2 = math.cos(1.0) ** 2  # 0.2919265817264289
SIN2 = math.sin(1.0) ** 2
LAM1 = 0.7 * COS2 + 0.3 * SIN2  # 0.4167706326905716
DIST1 = 2 * abs(LAM1 - 0.7)  # 0.5664587346188568


def qubit_static():
    rho = DensityMatrix.diagonal([0.7, 0.3])
    curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
    return rho, PAULI_X, curve


class TestPartitions:
    def test_uniform_single_step(self):
        p = uniform_partition(1.0, 1)
        np.testing.assert_array_equal(p.times, [0.0, 1.0])
        assert p.n == 1 and p.mesh == 1.0

    def test_uniform_sumsq(self):
        assert uniform_partition(1.0, 4).sumsq == pytest.approx(0.25, abs=1e-15)

    def test_uniform_mesh(self):
        assert uniform_partition(2.0, 8).mesh == pytest.approx(0.25, abs=1e-15)

    def test_uniform_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            uniform_partition(1.0, 0)
        with pytest.raises(ValidationError):
            uniform_partition(0.0, 4)

    def test_random_single_step_ignores_seed(self):
        p = random_partition(0.7, 1, seed=999)
        np.testing.assert_array_equal(p.times, [0.0, 0.7])

    def test_random_reproducible(self):
        a = random_partition(1.0, 20, seed=5)
        b = random_partition(1.0, 20, seed=5)
        np.testing.assert_array_equal(a.times, b.times)

    def test_random_sumsq_below_mesh(self):
        # sum dt^2 <= mesh * sum dt = mesh * tau with tau = 1
        p = random_partition(1.0, 100, seed=3)
        assert p.sumsq < p.mesh

    def test_step_quantities_computed_once_and_steps_read_only(self):
        p = random_partition(1.0, 9, seed=4)
        assert p.steps is p.steps
        np.testing.assert_array_equal(p.steps, np.diff(p.times))
        assert p.mesh == float(np.max(np.diff(p.times)))
        assert p.sumsq == float(np.sum(np.diff(p.times) ** 2))
        with pytest.raises(ValueError, match="read-only"):
            p.steps[0] = 0.5

    def test_partition_invariants(self):
        with pytest.raises(ValidationError, match="ascending"):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValidationError, match="start at 0"):
            Partition(np.array([0.1, 1.0]))

    def test_only_uniform_partition_sets_the_uniform_flag(self):
        # The flag tolerates 2 eps tau per step; linspace grids stay under eps tau.
        for tau in np.geomspace(1e-3, 1e3, 13):
            assert all(uniform_partition(tau, n).uniform for n in (1, 3, 1023, 99991))
        assert not random_partition(1.0, 1, seed=3).uniform
        assert not Partition(np.linspace(0.0, 1.0, 5)).uniform

    def test_uniform_flag_rejects_unequal_steps(self):
        times = np.linspace(0.0, 1.0, 5)
        assert Partition(times, uniform=True).uniform
        times[2] += 4 * np.finfo(float).eps
        with pytest.raises(ValidationError, match="unequal steps"):
            Partition(times, uniform=True)
        with pytest.raises(ValidationError, match="unequal steps"):
            Partition(np.array([0.0, 0.4, 1.0]), uniform=True)

    @pytest.mark.parametrize("times, bad", [([0.0, math.nan, 1.0], "nan"), ([0.0, 1.0, math.inf], "inf")])
    def test_rejects_non_finite_time(self, times, bad):
        with pytest.raises(ValidationError, match=f"partition time {bad} is not finite"):
            Partition(np.array(times))


class TestStepTransitionMatrix:
    def test_free_hamiltonian_static_curve(self):
        curve = StaticCurve(np.eye(3, dtype=complex), 1.0)
        m = step_transition_matrix(curve, np.zeros((3, 3), dtype=complex), 0.0, 0.5)
        np.testing.assert_allclose(m, np.eye(3), atol=1e-14)

    def test_qubit_closed_form(self):
        _, h, curve = qubit_static()
        m = step_transition_matrix(curve, h, 0.0, 1.0)
        np.testing.assert_allclose(m, [[COS2, SIN2], [SIN2, COS2]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_doubly_stochastic(self, seed):
        dim = 5
        curve = GeneratedCurve(seeded_hermitian(dim, seed), seeded_cons(dim, seed + 1), 1.0)
        m = step_transition_matrix(curve, seeded_hermitian(dim, seed + 2), 0.2, 0.9)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(dim), atol=1e-9)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(dim), atol=1e-9)
        assert np.all(m >= 0)


class TestBatchedTransfer:
    @pytest.mark.parametrize("partition", [uniform_partition(1.0, 12), random_partition(1.0, 12, seed=4)])
    def test_equals_stepwise_loop_bit_for_bit(self, partition):
        from zenolab.linalg import hermitian_eigendecompose
        from zenolab.measurement import _partition_trajectory, _transfer_matrices

        curve = GeneratedCurve(seeded_hermitian(4, 3), seeded_cons(4, 1), 1.0)
        h = seeded_hermitian(4, 2)
        eig = hermitian_eigendecompose(h)
        times = [float(t) for t in partition.times]
        loop = [
            np.abs(curve.evaluate(t1).conj().T @ eig.propagator(t1 - t0) @ curve.evaluate(t0)) ** 2
            for t0, t1 in zip(times, times[1:])
        ]
        np.testing.assert_array_equal(_transfer_matrices(*_partition_trajectory(curve, h, partition)), loop)

    @pytest.mark.parametrize(
        "partition",
        [uniform_partition(1.0, n) for n in (64, 100, 1000, 3000)] + [random_partition(1.0, 300, seed=1)],
        ids=["uniform-64", "uniform-100", "uniform-1000", "uniform-3000", "random-300"],
    )
    def test_one_unitary_per_step_from_its_own_length(self, partition):
        from zenolab.linalg import hermitian_eigendecompose
        from zenolab.measurement import _partition_trajectory

        curve = StaticCurve(seeded_cons(3, 1), 1.0)
        h = seeded_hermitian(3, 2)
        unitaries = _partition_trajectory(curve, h, partition)[1]
        propagator = hermitian_eigendecompose(h).propagator
        assert len(unitaries) == partition.n
        np.testing.assert_array_equal(unitaries, np.stack([propagator(float(dt)) for dt in partition.steps]))


class TestPropagateWeights:
    def test_single_step_matches_closed_form(self):
        _, h, curve = qubit_static()
        out = propagate_weights([0.7, 0.3], curve, h, uniform_partition(1.0, 1))
        np.testing.assert_allclose(out, [LAM1, 1 - LAM1], atol=1e-12)

    def test_free_hamiltonian_keeps_weights(self):
        curve = StaticCurve(seeded_cons(4, 2), 1.0)
        w = [0.4, 0.3, 0.2, 0.1]
        out = propagate_weights(w, curve, np.zeros((4, 4), dtype=complex), uniform_partition(1.0, 7))
        np.testing.assert_allclose(out, w, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative_and_normalized(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        curve = GeneratedCurve(seeded_hermitian(dim, seed + 5), seeded_cons(dim, seed), 1.0)
        w = rng.exponential(size=dim)
        w /= w.sum()
        out = propagate_weights(w, curve, seeded_hermitian(dim, seed + 9), uniform_partition(1.0, 12))
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unnormalized_weights(self):
        _, h, curve = qubit_static()
        with pytest.raises(ValidationError, match="sum"):
            propagate_weights([0.7, 0.7], curve, h, uniform_partition(1.0, 1))

    @pytest.mark.parametrize(
        "partition",
        [uniform_partition(1.0, n) for n in (1, 2, 3, 5, 257)] + [random_partition(1.0, 257, seed=8)],
        ids=["n1", "n2", "n3", "n5", "n257", "random257"],
    )
    def test_log_depth_chain_equals_sequential_loop(self, partition):
        # The product tree and the in-order loop each multiply stochastic
        # matrices whose entries lie in [0, 1]: about d * eps of rounding per
        # product, N products in all.
        dim = 3
        curve = GeneratedCurve(seeded_hermitian(dim, 5), seeded_cons(dim, 6), 1.0)
        h = seeded_hermitian(dim, 7)
        w = np.array([0.5, 0.3, 0.2])
        loop = w
        for t0, t1 in zip(partition.times, partition.times[1:]):
            loop = step_transition_matrix(curve, h, float(t0), float(t1)) @ loop
        np.testing.assert_allclose(
            propagate_weights(w, curve, h, partition), loop, rtol=0, atol=partition.n * dim * np.finfo(float).eps
        )


class TestSurvival:
    def test_commuting_case_is_one(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        h = np.diag([0.3, 1.7]).astype(complex)
        assert survival_probability(curve, h, uniform_partition(1.0, 5), 0) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_two_steps(self):
        _, h, curve = qubit_static()
        got = survival_probability(curve, h, uniform_partition(1.0, 2), 0)
        assert got == pytest.approx(0.5931327983656772, abs=1e-12)

    def test_monotone_toward_one_under_refinement(self):
        # cos^2(1) < cos^4(1/2) < cos^8(1/4): more frequent measurement
        # freezes the state harder.
        _, h, curve = qubit_static()
        values = [survival_probability(curve, h, uniform_partition(1.0, n), 0) for n in (1, 2, 4)]
        assert values[0] < values[1] < values[2]
        np.testing.assert_allclose(
            values, [COS2, 0.5931327983656772, 0.7767409281794002], atol=1e-12
        )


class TestEvolveByChannels:
    def test_zeno_exact_for_commuting_hamiltonian(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        rho = DensityMatrix.diagonal([0.7, 0.3])
        h = np.diag([0.5, 2.5]).astype(complex)
        for partition in (uniform_partition(1.0, 1), uniform_partition(1.0, 16), random_partition(1.0, 9, 2)):
            out = evolve_by_channels(rho, h, curve, partition)
            assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_qubit_single_step_matches_oracle(self):
        rho, h, curve = qubit_static()
        out = evolve_by_channels(rho, h, curve, uniform_partition(1.0, 1))
        np.testing.assert_allclose(out.matrix, np.diag([LAM1, 1 - LAM1]), atol=1e-12)

    def test_matches_transfer_route_tightly(self):
        rho, h, curve = qubit_static()
        partition = uniform_partition(1.0, 1)
        out = evolve_by_channels(rho, h, curve, partition)
        via_transfer = propagate_weights([0.7, 0.3], curve, h, partition)
        np.testing.assert_allclose(np.diag(out.matrix).real, via_transfer, atol=1e-12)

    def test_rejects_state_not_diagonal_in_base(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        with pytest.raises(ValidationError, match="diagonal in the curve"):
            evolve_by_channels(rho, PAULI_X, curve, uniform_partition(1.0, 1))

    def test_sampled_curve_requires_partition_on_grid(self):
        gen = GeneratedCurve(seeded_hermitian(2, 1), np.eye(2, dtype=complex), 1.0)
        times = np.linspace(0.0, 1.0, 5)
        curve = SampledCurve(times, [gen.evaluate(t) for t in times])
        rho = DensityMatrix.diagonal([0.7, 0.3])
        with pytest.raises(ValidationError, match="grid"):
            evolve_by_channels(rho, PAULI_X, curve, uniform_partition(1.0, 3))

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stepwise_equals_one_pass(self, dim, kind):
        # Composing the channels step by step gives the same state. Error
        # model: each step of either computation is a few d-term products of
        # entries bounded by 1, about d * eps of rounding per step, and the
        # channels are contractions, so the errors add over the N steps.
        # N = 300 leaves a partial second block of steps.
        from zenolab.channels import apply_projection_channel, apply_unitary_channel, rank1_family
        from zenolab.linalg import unitary_exponential

        n = 300
        rng = np.random.default_rng(12)
        base = seeded_cons(dim, 1)
        w = rng.exponential(size=dim)
        w /= w.sum()
        rho = DensityMatrix.from_weights(w, base)
        h = seeded_hermitian(dim, 2)
        curve = GeneratedCurve(seeded_hermitian(dim, 3), base, 1.0)
        partition = uniform_partition(1.0, n) if kind == "uniform" else random_partition(1.0, n, seed=7)

        one_pass = evolve_by_channels(rho, h, curve, partition)
        state = rho
        for j in range(1, len(partition.times)):
            dt = float(partition.times[j] - partition.times[j - 1])
            state = apply_unitary_channel(unitary_exponential(h, dt), state)
            state = apply_projection_channel(rank1_family(curve.evaluate(float(partition.times[j]))), state)
        np.testing.assert_allclose(one_pass.matrix, state.matrix, rtol=0, atol=n * dim * np.finfo(float).eps)


class TestLeakage:
    def test_qubit_single_step_leakage(self):
        rho, h, curve = qubit_static()
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 1))
        assert result.leakage[0] == pytest.approx(0.3 * SIN2, abs=1e-12)

    def test_zeno_leakage_zero(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        rho = DensityMatrix.diagonal([0.7, 0.3])
        h = np.diag([1.0, -1.0]).astype(complex)
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 4))
        np.testing.assert_allclose(result.leakage, [0.0, 0.0], atol=1e-12)

    def test_leakage_below_outgoing_weight(self):
        rho, h, curve = qubit_static()
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 3))
        assert np.all(result.leakage <= result.weights_out + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_path_enumeration_matches_residual(self, n):
        rho, h, curve = qubit_static()
        partition = uniform_partition(1.0, n)
        result = run_measurement(rho, h, curve, partition)
        brute = leakage_by_path_enumeration([0.7, 0.3], curve, h, partition)
        assert brute.shape == (2,)
        for k in range(2):
            assert abs(brute[k] - result.leakage[k]) <= 1e-10


class TestTargetState:
    def test_static_target_is_initial_state(self):
        curve = StaticCurve(seeded_cons(3, 4), 1.0)
        w = [0.5, 0.3, 0.2]
        rho = DensityMatrix.from_weights(w, curve.base)
        out = target_state(curve, w, 0.7)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_generated_target_is_conjugated_state(self):
        from zenolab.linalg import unitary_exponential

        a = seeded_hermitian(3, 8)
        base = seeded_cons(3, 9)
        curve = GeneratedCurve(a, base, 1.0)
        w = [0.6, 0.3, 0.1]
        rho = DensityMatrix.from_weights(w, base)
        u = unitary_exponential(a, 1.0)
        np.testing.assert_allclose(
            target_state(curve, w, 1.0).matrix, u @ rho.matrix @ u.conj().T, atol=1e-12
        )

    def test_concentrated_weights_give_pure_state(self):
        curve = GeneratedCurve(seeded_hermitian(3, 1), seeded_cons(3, 2), 1.0)
        out = target_state(curve, [1.0, 0.0, 0.0], 1.0)
        psi = curve.evaluate(1.0)[:, 0]
        np.testing.assert_allclose(out.matrix, np.outer(psi, psi.conj()), atol=1e-12)


class TestRunMeasurement:
    def test_zeno_distance_vanishes(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        rho = DensityMatrix.diagonal([0.7, 0.3])
        h = np.diag([0.4, 1.9]).astype(complex)
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 8))
        assert result.trace_distance_to_target <= 1e-10

    def test_qubit_single_step_distance(self):
        rho, h, curve = qubit_static()
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 1))
        assert result.trace_distance_to_target == pytest.approx(DIST1, abs=1e-12)

    def test_refinement_shrinks_distance(self):
        rho, h, curve = qubit_static()
        coarse = run_measurement(rho, h, curve, uniform_partition(1.0, 2))
        fine = run_measurement(rho, h, curve, uniform_partition(1.0, 1024))
        assert fine.trace_distance_to_target < coarse.trace_distance_to_target

    def test_weight_split_identity(self):
        rho, h, curve = qubit_static()
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 5))
        recombined = 0.7 * result.survivals[0] + result.leakage[0]
        assert result.weights_out[0] == pytest.approx(recombined, abs=1e-9)

    def test_result_arrays_are_read_only(self):
        rho, h, curve = qubit_static()
        result = run_measurement(rho, h, curve, uniform_partition(1.0, 2))
        with pytest.raises(ValueError):
            result.weights_out[0] = 0.0

    def test_result_carries_the_weights_and_partition_it_ran_on(self):
        rho, h, curve, partition = four_level_run()
        result = run_measurement(rho, h, curve, partition)
        in_base = np.real(np.diag(curve.base.conj().T @ rho.matrix @ curve.base))
        np.testing.assert_array_equal(result.weights, np.clip(in_base, 0.0, None))
        assert result.partition is partition
        with pytest.raises(ValueError, match="read-only"):
            result.weights[0] = 0.5

    def test_scheduling_independence(self):
        # Two identical runs are bitwise equal; nothing stateful leaks across.
        rho, h, curve = qubit_static()
        a = run_measurement(rho, h, curve, uniform_partition(1.0, 17))
        b = run_measurement(rho, h, curve, uniform_partition(1.0, 17))
        np.testing.assert_array_equal(a.weights_out, b.weights_out)
        np.testing.assert_array_equal(a.rho_final.matrix, b.rho_final.matrix)


def four_level_run(n=8):
    base = seeded_cons(4, 1)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    curve = GeneratedCurve(seeded_hermitian(4, 3), base, 1.0)
    return DensityMatrix.from_weights(w, base), seeded_hermitian(4, 2), curve, uniform_partition(1.0, n)


class TestTrajectoryCorruption:
    """The per-step state and unitarity checks are gone; the end-of-run
    invariants must still name a corrupted input."""

    def test_scaled_frame_column_is_named(self, monkeypatch):
        rho, h, curve, partition = four_level_run()
        frames_at = curve.frames_at

        def corrupted(times):
            frames = frames_at(times).copy()
            frames[3, :, 1] *= 1.5
            return frames

        monkeypatch.setattr(curve, "frames_at", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(rho, h, curve, partition)
        assert excinfo.value.name == "step_doubly_stochastic"
        assert excinfo.value.details["step"] == 3

    def test_nan_frame_fails_closed(self, monkeypatch):
        rho, h, curve, partition = four_level_run()
        frames_at = curve.frames_at

        def corrupted(times):
            frames = frames_at(times).copy()
            frames[3, 0, 0] = np.nan
            return frames

        monkeypatch.setattr(curve, "frames_at", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(rho, h, curve, partition)
        assert excinfo.value.name == "step_doubly_stochastic"
        assert excinfo.value.details["step"] == 3

    def test_corrupted_step_unitary_is_named(self, monkeypatch):
        from zenolab.linalg import HermitianEigen

        rho, h, curve, partition = four_level_run()
        propagator = HermitianEigen.propagator
        monkeypatch.setattr(HermitianEigen, "propagator", lambda self, t: 1.05 * propagator(self, t))
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(rho, h, curve, partition)
        assert excinfo.value.name in ("step_doubly_stochastic", "dual_oracle_agreement")

    def test_perturbed_transfer_matrices_break_dual_oracle_only(self, monkeypatch):
        import zenolab.measurement as measurement_mod

        rho, h, curve, partition = four_level_run()
        before = evolve_by_channels(rho, h, curve, partition)
        transfer_matrices = measurement_mod._transfer_matrices

        def perturbed(*trajectory):
            # A row permutation keeps the step doubly stochastic.
            mats = transfer_matrices(*trajectory)
            mats[2] = mats[2][::-1]
            return mats

        monkeypatch.setattr(measurement_mod, "_transfer_matrices", perturbed)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(rho, h, curve, partition)
        assert excinfo.value.name == "dual_oracle_agreement"
        # The channel route never reads the transfer matrices.
        np.testing.assert_array_equal(evolve_by_channels(rho, h, curve, partition).matrix, before.matrix)

    def test_one_frame_stack_per_run(self, monkeypatch):
        rho, h, curve, partition = four_level_run(n=16)
        calls = []
        frames_at = curve.frames_at
        monkeypatch.setattr(curve, "frames_at", lambda times: calls.append(len(times)) or frames_at(times))
        result = run_measurement(rho, h, curve, partition)
        assert calls == [17]
        np.testing.assert_array_equal(result.frames, frames_at(partition.times))
        assert not result.frames.flags.writeable


class TestLeakageResidualGuard:
    def test_negative_residual_beyond_floor_raises(self):
        from zenolab.measurement import leakage_residual

        with pytest.raises(InvariantViolation, match="leakage_nonnegative"):
            leakage_residual(np.array([0.1]), np.array([0.5]), np.array([0.5]))

    def test_tiny_negative_residual_clamps(self):
        from zenolab.measurement import leakage_residual

        out = leakage_residual(np.array([0.25 - 5e-11]), np.array([0.5]), np.array([0.5]))
        assert out[0] == 0.0
