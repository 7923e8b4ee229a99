"""Protocol tests: partitions, the channel-composition route, the transfer
route, survival and leakage, and the cross-checks between them.

The qubit expectations are frozen from the scalar closed form: one step of
spin-flip evolution measured in the computational basis mixes the weights
through cos^2/sin^2 of the step length.
"""

import math
import tracemalloc

import numpy as np
import pytest

from zenolab.curves import GeneratedCurve, SampledCurve, StaticCurve, drift_sums, half_square_sums
from zenolab.errors import InvariantViolation, ValidationError
from zenolab.linalg import hermitian_eigendecompose, seeded_cons, seeded_hermitian, trace_norm
from zenolab.measurement import (
    TRANSFER_BLOCK,
    Partition,
    _channel_route,
    _trajectory_blocks,
    _transfer_matrices,
    leakage_by_path_enumeration,
    random_partition,
    run_measurement,
    uniform_partition,
)
from zenolab.states import DensityMatrix

from conftest import PAULI_X, state_matrix

COS2 = math.cos(1.0) ** 2  # 0.2919265817264289
SIN2 = math.sin(1.0) ** 2
LAM1 = 0.7 * COS2 + 0.3 * SIN2  # 0.4167706326905716
DIST1 = 2 * abs(LAM1 - 0.7)  # 0.5664587346188568


def qubit_static():
    curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
    return np.array([0.7, 0.3]), hermitian_eigendecompose(PAULI_X), curve


def step_matrix(curve, hamiltonian, t0, t1):
    """The transfer route's matrix of the one step from t0 to t1."""
    unitary = hamiltonian.propagator([t1 - t0])
    return _transfer_matrices(curve.frames_at([t0, t1]), unitary)[0]


def block_transfer_matrices(curve, hamiltonian, partition):
    """The transfer matrices of every step, gathered over the trajectory's blocks."""
    return np.concatenate([_transfer_matrices(*block) for block in _trajectory_blocks(curve, hamiltonian, partition)])


def block_channel_state(m, blocks):
    """The channel route's state carried over a trajectory's blocks."""
    for block in blocks:
        m = _channel_route(m, *block)
    return m


def stepwise_channels(m, hamiltonian, curve, partition):
    """The channel composition on the state m one step at a time, a reference
    apart from the route: U m U* with U = e^{-i dt H}, then dephasing in the
    frame at t."""
    times = [float(t) for t in partition.times]
    for t0, t1 in zip(times, times[1:]):
        u, f = hamiltonian.propagator(t1 - t0), curve.frames_at(t1)[0]
        m = u @ m @ u.conj().T
        m = (f * np.real(np.diag(f.conj().T @ m @ f))) @ f.conj().T
    return m


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

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_uniform_rejects_a_non_finite_tau(self, tau):
        with pytest.raises(ValidationError, match=f"tau must be a finite positive number, got {tau}"):
            uniform_partition(tau, 3)

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_random_rejects_a_non_finite_tau(self, tau):
        with pytest.raises(ValidationError, match=f"tau must be a finite positive number, got {tau}"):
            random_partition(tau, 3, 1)

    def test_random_single_step_ignores_seed(self):
        p = random_partition(0.7, 1, seed=999)
        np.testing.assert_array_equal(p.times, [0.0, 0.7])

    def test_random_reproducible(self):
        a = random_partition(1.0, 20, seed=5)
        b = random_partition(1.0, 20, seed=5)
        np.testing.assert_array_equal(a.times, b.times)

    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_random_small_n_keeps_the_first_draw_past_the_floor(self, n):
        # The draw the partition made before its large-n fallback existed.
        for tau, seed in [(1.0, 0), (1.0, 5), (2.5, 11), (1e-3, 2)]:
            rng = np.random.default_rng(seed)
            while True:
                times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, tau, size=n - 1)), [tau]))
                if np.min(np.diff(times)) >= tau * 1e-6:
                    break
            np.testing.assert_array_equal(random_partition(tau, n, seed).times, times)

    @pytest.mark.parametrize("n", [4000, 20000])
    def test_random_large_n_keeps_the_gap_floor(self, n):
        # A uniform draw of 4000 points clears a 1e-6 tau gap floor on almost no seed.
        for tau, seed in [(1.0, 0), (1e3, 1)]:
            p = random_partition(tau, n, seed)
            assert p.n == n and p.tau == tau
            assert np.min(p.steps) >= tau * 1e-6
            np.testing.assert_array_equal(random_partition(tau, n, seed).times, p.times)
        assert not np.array_equal(random_partition(1.0, n, 0).times, random_partition(1.0, n, 2).times)

    def test_random_beyond_the_fixed_floor_keeps_its_own_floor(self):
        # The fallback spaces points two floors apart, which a floor of
        # tau * 1e-6 cannot do past n = 5e5; above n = 250000 the floor is tau / (4 n).
        n, tau = 600_000, 1.0
        p = random_partition(tau, n, 1)
        assert p.n == n and p.tau == tau
        assert np.min(p.steps) >= tau / (4 * n)

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
        m = step_matrix(curve, hermitian_eigendecompose(np.zeros((3, 3))), 0.0, 0.5)
        np.testing.assert_allclose(m, np.eye(3), atol=1e-14)

    def test_qubit_closed_form(self):
        _, h, curve = qubit_static()
        m = step_matrix(curve, h, 0.0, 1.0)
        np.testing.assert_allclose(m, [[COS2, SIN2], [SIN2, COS2]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_doubly_stochastic(self, seed):
        dim = 5
        curve = GeneratedCurve(seeded_hermitian(dim, seed), seeded_cons(dim, seed + 1), 1.0)
        m = step_matrix(curve, hermitian_eigendecompose(seeded_hermitian(dim, seed + 2)), 0.2, 0.9)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(dim), atol=1e-9)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(dim), atol=1e-9)
        assert np.all(m >= 0)


class TestBatchedTransfer:
    @pytest.mark.parametrize("partition", [uniform_partition(1.0, 12), random_partition(1.0, 12, seed=4)])
    def test_equals_stepwise_loop_bit_for_bit(self, partition):
        curve = GeneratedCurve(seeded_hermitian(4, 3), seeded_cons(4, 1), 1.0)
        h = hermitian_eigendecompose(seeded_hermitian(4, 2))
        times = [float(t) for t in partition.times]
        loop = [
            np.abs(curve.frames_at(t1)[0].conj().T @ h.propagator(t1 - t0) @ curve.frames_at(t0)[0]) ** 2
            for t0, t1 in zip(times, times[1:])
        ]
        np.testing.assert_array_equal(block_transfer_matrices(curve, h, partition), loop)

    @pytest.mark.parametrize(
        "partition",
        [uniform_partition(1.0, n) for n in (64, 100, 1000, 3000)] + [random_partition(1.0, 300, seed=1)],
        ids=["uniform-64", "uniform-100", "uniform-1000", "uniform-3000", "random-300"],
    )
    def test_one_unitary_per_step_from_its_own_length(self, partition):
        curve = StaticCurve(seeded_cons(3, 1), 1.0)
        h = hermitian_eigendecompose(seeded_hermitian(3, 2))
        unitaries = np.concatenate([u for _, u in _trajectory_blocks(curve, h, partition)])
        propagator = h.propagator
        assert len(unitaries) == partition.n
        np.testing.assert_array_equal(unitaries, np.stack([propagator(float(dt)) for dt in partition.steps]))


class TestPropagateWeights:
    def test_single_step_matches_closed_form(self):
        w, h, curve = qubit_static()
        out = run_measurement(w, h, curve, uniform_partition(1.0, 1)).weights_out
        np.testing.assert_allclose(out, [LAM1, 1 - LAM1], atol=1e-12)

    def test_free_hamiltonian_keeps_weights(self):
        curve = StaticCurve(seeded_cons(4, 2), 1.0)
        w = [0.4, 0.3, 0.2, 0.1]
        h = hermitian_eigendecompose(np.zeros((4, 4)))
        out = run_measurement(w, h, curve, uniform_partition(1.0, 7)).weights_out
        np.testing.assert_allclose(out, w, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative_and_normalized(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        curve = GeneratedCurve(seeded_hermitian(dim, seed + 5), seeded_cons(dim, seed), 1.0)
        w = rng.exponential(size=dim)
        w /= w.sum()
        h = hermitian_eigendecompose(seeded_hermitian(dim, seed + 9))
        out = run_measurement(w, h, curve, uniform_partition(1.0, 12)).weights_out
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unnormalized_weights(self):
        _, h, curve = qubit_static()
        with pytest.raises(ValidationError, match="weights sum to 1.4"):
            run_measurement([0.7, 0.7], h, curve, uniform_partition(1.0, 1))

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
        h = hermitian_eigendecompose(seeded_hermitian(dim, 7))
        result = run_measurement([0.5, 0.3, 0.2], h, curve, partition)
        loop = result.weights
        for mat in block_transfer_matrices(curve, h, partition):
            loop = mat @ loop
        np.testing.assert_allclose(result.weights_out, loop, rtol=0, atol=partition.n * dim * np.finfo(float).eps)


class TestSurvival:
    def test_commuting_case_is_one(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        h = hermitian_eigendecompose(np.diag([0.3, 1.7]))
        result = run_measurement([0.7, 0.3], h, curve, uniform_partition(1.0, 5))
        assert result.survivals[0] == pytest.approx(1.0, abs=1e-12)

    def test_qubit_two_steps(self):
        w, h, curve = qubit_static()
        got = run_measurement(w, h, curve, uniform_partition(1.0, 2)).survivals[0]
        assert got == pytest.approx(0.5931327983656772, abs=1e-12)

    def test_monotone_toward_one_under_refinement(self):
        # cos^2(1) < cos^4(1/2) < cos^8(1/4): more frequent measurement
        # freezes the state harder.
        w, h, curve = qubit_static()
        values = [run_measurement(w, h, curve, uniform_partition(1.0, n)).survivals[0] for n in (1, 2, 4)]
        assert values[0] < values[1] < values[2]
        np.testing.assert_allclose(
            values, [COS2, 0.5931327983656772, 0.7767409281794002], atol=1e-12
        )


class TestEvolveByChannels:
    def test_zeno_exact_for_commuting_hamiltonian(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        h = hermitian_eigendecompose(np.diag([0.5, 2.5]))
        for partition in (uniform_partition(1.0, 1), uniform_partition(1.0, 16), random_partition(1.0, 9, 2)):
            out = run_measurement([0.7, 0.3], h, curve, partition).rho_final
            assert np.max(np.abs(out.matrix - np.diag([0.7, 0.3]))) <= 1e-12
        # Long runs in a rotated base, with H diagonal in that base, on both
        # step forms (d = 3 and 6 up to KRON_MAX_DIM, d = 8 above it). Error
        # model: about d * eps of rounding per contracting step, N steps.
        # The channel route runs alone here: at this N run_measurement's fixed
        # 1e-12 survival_above_one tolerance is below the survivals' rounding.
        n = 10_000
        for dim in (3, 6, 8):
            base = seeded_cons(dim, dim)
            curve = StaticCurve(base, 1.0)
            rho = state_matrix(np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2), base)
            h = hermitian_eigendecompose((base * np.linspace(0.3, 2.4, dim)) @ base.conj().T)
            out = block_channel_state(rho, _trajectory_blocks(curve, h, uniform_partition(1.0, n)))
            assert np.max(np.abs(out - rho)) <= n * dim * np.finfo(float).eps

    def test_qubit_single_step_matches_oracle(self):
        w, h, curve = qubit_static()
        out = run_measurement(w, h, curve, uniform_partition(1.0, 1)).rho_final
        np.testing.assert_allclose(out.matrix, np.diag([LAM1, 1 - LAM1]), atol=1e-12)

    def test_matches_transfer_route_tightly(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 1))
        np.testing.assert_allclose(np.diag(result.rho_final.matrix).real, result.weights_out, atol=1e-12)

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.3, 0.2], r"weights have shape \(3,\), the curve has dimension 2"),
        ([[0.7, 0.3]], r"weights have shape \(1, 2\)"),
        ([1.2, -0.2], "weights must be finite and nonnegative"),
        ([math.nan, 1.0], "weights must be finite and nonnegative"),
        ([math.inf, 0.0], "weights must be finite and nonnegative"),
        ([0.7, 0.3 + 2e-9], "weights sum to 1.000000002"),
        ([0.7, 0.3 + 5e-10], "weights sum to 1.0000000005"),
    ], ids=["long", "two-dim", "negative", "nan", "inf", "sum-2e-9", "sum-5e-10"])
    def test_rejects_malformed_weights(self, weights, message):
        # The sum is held to the trace tolerance of the final state, which keeps the start state's trace.
        _, h, curve = qubit_static()
        with pytest.raises(ValidationError, match=message):
            run_measurement(weights, h, curve, uniform_partition(1.0, 1))

    def test_accepts_weights_within_the_trace_tolerance(self):
        _, h, curve = qubit_static()
        result = run_measurement([0.7, 0.3 + 5e-11], h, curve, uniform_partition(1.0, 1))
        np.testing.assert_array_equal(result.weights, [0.7, 0.3 + 5e-11])

    def test_sampled_curve_requires_partition_on_grid(self):
        gen = GeneratedCurve(seeded_hermitian(2, 1), np.eye(2, dtype=complex), 1.0)
        times = np.linspace(0.0, 1.0, 5)
        curve = SampledCurve(times, [gen.frames_at(t)[0] for t in times])
        with pytest.raises(ValidationError, match="grid"):
            run_measurement([0.7, 0.3], hermitian_eigendecompose(PAULI_X), curve, uniform_partition(1.0, 3))

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stepwise_equals_one_pass(self, dim, kind):
        # Composing the channels step by step gives the same state. Error
        # model: each step of either computation is a few d-term products of
        # entries bounded by 1, about d * eps of rounding per step, and the
        # channels are contractions, so the errors add over the N steps.
        # N = 300 leaves a partial second block of steps.
        n = 300
        rng = np.random.default_rng(12)
        base = seeded_cons(dim, 1)
        w = rng.exponential(size=dim)
        w /= w.sum()
        h = hermitian_eigendecompose(seeded_hermitian(dim, 2))
        curve = GeneratedCurve(seeded_hermitian(dim, 3), base, 1.0)
        partition = uniform_partition(1.0, n) if kind == "uniform" else random_partition(1.0, n, seed=7)

        one_pass = run_measurement(w, h, curve, partition).rho_final
        stepwise = stepwise_channels(state_matrix(w, base), h, curve, partition)
        np.testing.assert_allclose(one_pass.matrix, stepwise, rtol=0, atol=n * dim * np.finfo(float).eps)

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 6, 8])
    def test_both_step_forms_agree(self, dim, kind, monkeypatch):
        # The same trajectory through the two mat-vecs and through the d x d
        # step. Error model as in test_stepwise_equals_one_pass: about
        # d * eps of rounding per contracting step in each form.
        import zenolab.measurement as measurement_mod

        n = 300
        base = seeded_cons(dim, 4)
        w = np.random.default_rng(dim).exponential(size=dim)
        rho = state_matrix(w / w.sum(), base)
        curve = GeneratedCurve(seeded_hermitian(dim, 5), base, 1.0)
        partition = uniform_partition(1.0, n) if kind == "uniform" else random_partition(1.0, n, seed=3)
        trajectory = list(_trajectory_blocks(curve, hermitian_eigendecompose(seeded_hermitian(dim, 6)), partition))

        monkeypatch.setattr(measurement_mod, "KRON_MAX_DIM", dim)
        kron = block_channel_state(rho, trajectory)
        monkeypatch.setattr(measurement_mod, "KRON_MAX_DIM", dim - 1)
        square = block_channel_state(rho, trajectory)
        np.testing.assert_allclose(kron, square, rtol=0, atol=n * dim * np.finfo(float).eps)


class TestLeakage:
    def test_qubit_single_step_leakage(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 1))
        assert result.leakage[0] == pytest.approx(0.3 * SIN2, abs=1e-12)

    def test_zeno_leakage_zero(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        h = hermitian_eigendecompose(np.diag([1.0, -1.0]))
        result = run_measurement([0.7, 0.3], h, curve, uniform_partition(1.0, 4))
        np.testing.assert_allclose(result.leakage, [0.0, 0.0], atol=1e-12)

    def test_leakage_below_outgoing_weight(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 3))
        assert np.all(result.leakage <= result.weights_out + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_path_enumeration_matches_residual(self, n):
        w, h, curve = qubit_static()
        partition = uniform_partition(1.0, n)
        result = run_measurement(w, h, curve, partition)
        brute = leakage_by_path_enumeration([0.7, 0.3], curve, h, partition)
        assert brute.shape == (2,)
        for k in range(2):
            assert abs(brute[k] - result.leakage[k]) <= 1e-10


class TestTargetState:
    """The target of trace_distance_to_target is sum_k w_k |Psi_k(tau)><Psi_k(tau)|."""

    def test_static_target_is_initial_state(self):
        curve = StaticCurve(seeded_cons(3, 4), 1.0)
        h = hermitian_eigendecompose(seeded_hermitian(3, 5))
        result = run_measurement([0.5, 0.3, 0.2], h, curve, uniform_partition(1.0, 4))
        expected = trace_norm(result.rho_final.matrix - state_matrix([0.5, 0.3, 0.2], curve.base))
        assert expected > 1e-3
        assert result.trace_distance_to_target == pytest.approx(expected, abs=1e-12)

    def test_generated_target_is_conjugated_state(self):
        a = seeded_hermitian(3, 8)
        base = seeded_cons(3, 9)
        curve = GeneratedCurve(a, base, 1.0)
        u = hermitian_eigendecompose(a).propagator(1.0)
        h = hermitian_eigendecompose(seeded_hermitian(3, 10))
        result = run_measurement([0.6, 0.3, 0.1], h, curve, uniform_partition(1.0, 4))
        expected = trace_norm(result.rho_final.matrix - u @ state_matrix([0.6, 0.3, 0.1], base) @ u.conj().T)
        assert result.trace_distance_to_target == pytest.approx(expected, abs=1e-12)

    def test_concentrated_weights_give_pure_state(self):
        curve = GeneratedCurve(seeded_hermitian(3, 1), seeded_cons(3, 2), 1.0)
        h = hermitian_eigendecompose(seeded_hermitian(3, 3))
        result = run_measurement([1.0, 0.0, 0.0], h, curve, uniform_partition(1.0, 4))
        psi = curve.frames_at(1.0)[0, :, 0]
        expected = trace_norm(result.rho_final.matrix - np.outer(psi, psi.conj()))
        assert result.trace_distance_to_target == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_equals_the_validated_target_bit_for_bit(self, dim, kind):
        # The reference builds the target as a validated DensityMatrix from the
        # run's own weights and final frame.
        base = seeded_cons(dim, 14)
        w = np.random.default_rng(dim).exponential(size=dim)
        curve = GeneratedCurve(seeded_hermitian(dim, 15), base, 1.0)
        partition = uniform_partition(1.0, 20) if kind == "uniform" else random_partition(1.0, 20, seed=16)
        result = run_measurement(w / w.sum(), hermitian_eigendecompose(seeded_hermitian(dim, 17)), curve, partition)
        final = result.final_frame
        target = DensityMatrix((final * result.weights) @ final.conj().T)
        assert result.trace_distance_to_target == trace_norm(result.rho_final.matrix - target.matrix)


class TestRunMeasurement:
    def test_zeno_distance_vanishes(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        h = hermitian_eigendecompose(np.diag([0.4, 1.9]))
        result = run_measurement([0.7, 0.3], h, curve, uniform_partition(1.0, 8))
        assert result.trace_distance_to_target <= 1e-10

    def test_qubit_single_step_distance(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 1))
        assert result.trace_distance_to_target == pytest.approx(DIST1, abs=1e-12)

    def test_refinement_shrinks_distance(self):
        w, h, curve = qubit_static()
        coarse = run_measurement(w, h, curve, uniform_partition(1.0, 2))
        fine = run_measurement(w, h, curve, uniform_partition(1.0, 1024))
        assert fine.trace_distance_to_target < coarse.trace_distance_to_target

    def test_weight_split_identity(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 5))
        recombined = 0.7 * result.survivals[0] + result.leakage[0]
        assert result.weights_out[0] == pytest.approx(recombined, abs=1e-9)

    def test_result_arrays_are_read_only(self):
        w, h, curve = qubit_static()
        result = run_measurement(w, h, curve, uniform_partition(1.0, 2))
        with pytest.raises(ValueError):
            result.weights_out[0] = 0.0

    def test_result_carries_the_weights_and_partition_it_ran_on(self):
        w, h, curve, partition = four_level_run()
        result = run_measurement(w, h, curve, partition)
        np.testing.assert_array_equal(result.weights, w)
        assert result.partition is partition
        with pytest.raises(ValueError, match="read-only"):
            result.weights[0] = 0.5
        # The result holds a copy: the caller's array stays its own.
        assert result.weights is not w and w.flags.writeable

    def test_scheduling_independence(self):
        # Two identical runs are bitwise equal; nothing stateful leaks across.
        w, h, curve = qubit_static()
        a = run_measurement(w, h, curve, uniform_partition(1.0, 17))
        b = run_measurement(w, h, curve, uniform_partition(1.0, 17))
        np.testing.assert_array_equal(a.weights_out, b.weights_out)
        np.testing.assert_array_equal(a.rho_final.matrix, b.rho_final.matrix)


def four_level_run(n=8):
    base = seeded_cons(4, 1)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    curve = GeneratedCurve(seeded_hermitian(4, 3), base, 1.0)
    h = hermitian_eigendecompose(seeded_hermitian(4, 2))
    return w, h, curve, uniform_partition(1.0, n)


class TestTrajectoryCorruption:
    """The per-step state and unitarity checks are gone; the end-of-run
    invariants must still name a corrupted input."""

    def test_scaled_frame_column_is_named(self, monkeypatch):
        w, h, curve, partition = four_level_run()
        frames_at = curve.frames_at

        def corrupted(times):
            frames = frames_at(times).copy()
            frames[3, :, 1] *= 1.5
            return frames

        monkeypatch.setattr(curve, "frames_at", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(w, h, curve, partition)
        assert excinfo.value.name == "step_doubly_stochastic"
        assert excinfo.value.details["step"] == 3

    def test_nan_frame_fails_closed(self, monkeypatch):
        w, h, curve, partition = four_level_run()
        frames_at = curve.frames_at

        def corrupted(times):
            frames = frames_at(times).copy()
            frames[3, 0, 0] = np.nan
            return frames

        monkeypatch.setattr(curve, "frames_at", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(w, h, curve, partition)
        assert excinfo.value.name == "step_doubly_stochastic"
        assert excinfo.value.details["step"] == 3

    def test_corrupted_step_unitary_is_named(self, monkeypatch):
        from zenolab.linalg import HermitianEigen

        w, h, curve, partition = four_level_run()
        propagator = HermitianEigen.propagator
        monkeypatch.setattr(HermitianEigen, "propagator", lambda self, t: 1.05 * propagator(self, t))
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(w, h, curve, partition)
        assert excinfo.value.name in ("step_doubly_stochastic", "dual_oracle_agreement")

    def test_perturbed_transfer_matrices_break_dual_oracle_only(self, monkeypatch):
        import zenolab.measurement as measurement_mod

        w, h, curve, partition = four_level_run()
        channel_route = measurement_mod._channel_route
        routes = []

        def recorded(*args):
            routes.append(channel_route(*args))
            return routes[-1]

        monkeypatch.setattr(measurement_mod, "_channel_route", recorded)
        run_measurement(w, h, curve, partition)
        transfer_matrices = measurement_mod._transfer_matrices

        def perturbed(*trajectory):
            # A row permutation keeps the step doubly stochastic.
            mats = transfer_matrices(*trajectory)
            mats[2] = mats[2][::-1]
            return mats

        monkeypatch.setattr(measurement_mod, "_transfer_matrices", perturbed)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(w, h, curve, partition)
        assert excinfo.value.name == "dual_oracle_agreement"
        # The channel route never reads the transfer matrices: the failed run's state is unchanged.
        assert len(routes) == 2
        np.testing.assert_array_equal(routes[1], routes[0])

    def test_one_frame_stack_per_run(self, monkeypatch):
        # Every partition time is evaluated exactly once across the blocks, in
        # order: a block boundary's frame is carried, not evaluated again.
        n = 3 * TRANSFER_BLOCK + 5
        w, h, curve, partition = four_level_run(n=n)
        calls = []
        frames_at = curve.frames_at
        monkeypatch.setattr(curve, "frames_at", lambda times: calls.append(np.copy(times)) or frames_at(times))
        result = run_measurement(w, h, curve, partition)
        assert [len(t) for t in calls] == [TRANSFER_BLOCK + 1, TRANSFER_BLOCK, TRANSFER_BLOCK, 5]
        np.testing.assert_array_equal(np.concatenate(calls), partition.times)
        np.testing.assert_array_equal(result.final_frame, frames_at(partition.times[-1:])[0])
        assert not result.final_frame.flags.writeable

    def test_frame_corrupted_in_a_later_block_names_its_global_step(self, monkeypatch):
        w, h, curve, partition = four_level_run(n=3 * TRANSFER_BLOCK)
        bad_time = partition.times[TRANSFER_BLOCK + 7]
        frames_at = curve.frames_at

        def corrupted(times):
            frames = frames_at(times).copy()
            frames[times == bad_time, :, 1] *= 1.5
            return frames

        monkeypatch.setattr(curve, "frames_at", corrupted)
        with pytest.raises(InvariantViolation) as excinfo:
            run_measurement(w, h, curve, partition)
        assert excinfo.value.name == "step_doubly_stochastic"
        assert excinfo.value.details["step"] == TRANSFER_BLOCK + 7


def whole_stack_run(weights, hamiltonian, curve, partition):
    """The protocol from the whole (N+1, d, d) frame stack at once: each step's
    transfer matrix applied to the weights in order, the in-order survival
    products, the channel route over every step, and the drift summary."""
    frames = curve.frames_at(partition.times)
    unitaries = hamiltonian.propagator(partition.steps)
    mats = _transfer_matrices(frames, unitaries)
    weights_out = weights
    for mat in mats:
        weights_out = mat @ weights_out
    survivals = np.prod(np.diagonal(mats, axis1=1, axis2=2), axis=0)
    m = _channel_route(state_matrix(weights, curve.base), frames, unitaries)
    return weights_out, survivals, (m + m.conj().T) / 2, drift_sums(frames), half_square_sums(frames)


class TestStreamedTrajectory:
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [3, 8])
    def test_blocks_agree_with_the_whole_stack(self, dim, kind):
        # Error model as in test_stepwise_equals_one_pass: about d * eps of
        # rounding per step in either computation, N steps.
        n = 3 * TRANSFER_BLOCK + 17
        base = seeded_cons(dim, 21)
        w = np.random.default_rng(dim).exponential(size=dim)
        w /= w.sum()
        h = hermitian_eigendecompose(seeded_hermitian(dim, 22))
        curve = GeneratedCurve(seeded_hermitian(dim, 23), base, 1.0)
        partition = uniform_partition(1.0, n) if kind == "uniform" else random_partition(1.0, n, seed=24)
        result = run_measurement(w, h, curve, partition)
        weights_out, survivals, rho_final, drifts, half_sq = whole_stack_run(w, h, curve, partition)
        tol = n * dim * np.finfo(float).eps
        np.testing.assert_allclose(result.weights_out, weights_out, rtol=0, atol=tol)
        np.testing.assert_allclose(result.survivals, survivals, rtol=0, atol=tol)
        np.testing.assert_allclose(result.rho_final.matrix, rho_final, rtol=0, atol=tol)
        np.testing.assert_allclose(result.drifts, drifts, rtol=0, atol=tol)
        np.testing.assert_allclose(result.half_square_sums, half_sq, rtol=0, atol=tol)
        np.testing.assert_array_equal(result.final_frame, curve.frames_at(1.0)[0])

    def test_traced_peak_is_flat_in_n(self):
        # Every block is dropped once the routes have read it, so the peak
        # numpy allocation of a run does not grow with N beyond one block.
        def traced_peak(n):
            w, h, curve, partition = four_level_run(n=n)
            partition.steps
            tracemalloc.start()
            try:
                run_measurement(w, h, curve, partition)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(TRANSFER_BLOCK)
        assert traced_peak(16 * TRANSFER_BLOCK) <= 1.25 * traced_peak(2 * TRANSFER_BLOCK)


class TestLeakageResidualGuard:
    def test_negative_residual_beyond_floor_raises(self):
        from zenolab.measurement import leakage_residual

        with pytest.raises(InvariantViolation, match="leakage_nonnegative"):
            leakage_residual(np.array([0.1]), np.array([0.5]), np.array([0.5]))

    def test_tiny_negative_residual_clamps(self):
        from zenolab.measurement import leakage_residual

        out = leakage_residual(np.array([0.25 - 5e-11]), np.array([0.5]), np.array([0.5]))
        assert out[0] == 0.0
