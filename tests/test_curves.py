"""Basis-curve tests: evaluation, regularity constants, drift sums, and the
finite-difference derivative of generated curves."""

import math

import numpy as np
import pytest

from zenolab import curves
from zenolab.curves import (
    GeneratedCurve,
    SampledCurve,
    StaticCurve,
    curve_bounds,
    drift_sums,
    partition_lipschitz_estimate,
)
from zenolab.errors import ValidationError
from zenolab.linalg import hermitian_eigendecompose, orthonormality_defect, seeded_cons, seeded_hermitian
from zenolab.measurement import random_partition, uniform_partition

from conftest import PAULI_X, PAULI_Y, PAULI_Z


def y_curve(tau=math.pi / 2):
    return GeneratedCurve(PAULI_Y, np.eye(2, dtype=complex), tau)


class TestEvaluate:
    def test_static_returns_base_everywhere(self):
        base = seeded_cons(3, 1)
        curve = StaticCurve(base, 2.0)
        for t in (0.0, 0.5, 2.0):
            np.testing.assert_array_equal(curve.frames_at(t)[0], base)

    def test_generated_starts_at_base(self):
        np.testing.assert_allclose(y_curve().frames_at(0.0)[0], np.eye(2), atol=1e-14)

    def test_generated_quarter_turn(self):
        # e^{-i t Y} acts on |0> as (cos t, sin t); at t = pi/2 that is |1>.
        psi = y_curve().frames_at(math.pi / 2)[0, :, 0]
        np.testing.assert_allclose(psi, [0.0, 1.0], atol=1e-12)

    def test_rejects_time_outside_horizon(self):
        with pytest.raises(ValidationError, match="outside"):
            y_curve(tau=1.0).frames_at(1.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_orthonormal_at_random_times(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        curve = GeneratedCurve(seeded_hermitian(dim, seed), seeded_cons(dim, seed + 5), 1.3)
        for t in rng.uniform(0.0, 1.3, size=100):
            assert orthonormality_defect(curve.frames_at(float(t))[0]) <= 1e-9


def three_variants(tau=1.3):
    """A static, a generated and a sampled curve; the sampled grid is a
    random partition of [0, tau]."""
    base = seeded_cons(4, 1)
    generated = GeneratedCurve(seeded_hermitian(4, 2), base, tau)
    grid = random_partition(tau, 40, seed=3).times
    return {
        "static": StaticCurve(base, tau),
        "generated": generated,
        "sampled": SampledCurve(grid, generated.frames_at(grid)),
    }


class TestFramesAt:
    @pytest.mark.parametrize("variant", ["static", "generated", "sampled"])
    def test_equals_stacked_evaluate_bit_for_bit(self, variant):
        curve = three_variants()[variant]
        grid = random_partition(1.3, 40, seed=3).times
        for times in (np.array([0.0, 1.3]), grid, grid[::-1], np.array([grid[5]])):
            stacked = np.stack([curve.frames_at(float(t))[0] for t in times])
            np.testing.assert_array_equal(curve.frames_at(times), stacked)

    def test_generated_is_exactly_base_at_zero(self):
        curve = three_variants()["generated"]
        np.testing.assert_array_equal(curve.frames_at([0.0, -1e-13])[1], curve.base)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_generated_matches_propagator_times_base(self, dim):
        # Two products of matrices with unit-norm rows and columns: about
        # d * eps of rounding per entry against the same products per time.
        curve = GeneratedCurve(seeded_hermitian(dim, 2), seeded_cons(dim, 1), 1.3)
        times = random_partition(1.3, 300, seed=4).times
        propagator = hermitian_eigendecompose(curve.generator).propagator
        expected = np.stack([propagator(float(t)) @ curve.base for t in times])
        frames = curve.frames_at(times)
        np.testing.assert_allclose(frames, expected, rtol=0, atol=dim * np.finfo(float).eps)
        np.testing.assert_array_equal(frames[0], curve.base)

    @pytest.mark.parametrize("variant", ["static", "generated", "sampled"])
    def test_rejects_nan_time(self, variant):
        curve = three_variants()[variant]
        with pytest.raises(ValidationError, match="time nan outside"):
            curve.frames_at([0.0, math.nan])
        with pytest.raises(ValidationError, match="time nan outside"):
            curve.frames_at(math.nan)

    @pytest.mark.parametrize("variant", ["static", "generated", "sampled"])
    def test_rejects_time_outside_horizon(self, variant):
        curve = three_variants()[variant]
        with pytest.raises(ValidationError, match="outside"):
            curve.frames_at([0.0, 0.5, 1.3 + 1e-9])
        with pytest.raises(ValidationError, match="outside"):
            curve.frames_at([-1e-9])

    def test_sampled_rejects_off_grid_time(self):
        curve = three_variants()["sampled"]
        grid = curve.times
        with pytest.raises(ValidationError, match="not on the sampled grid"):
            curve.frames_at([grid[0], 0.5 * (grid[1] + grid[2]), grid[-1]])
        # evaluate is frames_at at one time: no nearest-frame fallback.
        with pytest.raises(ValidationError, match="not on the sampled grid"):
            curve.frames_at(grid[1] + 1e-6)


def energy_sups(curve, h):
    return curve_bounds(curve, hermitian_eigendecompose(h))[0]


def partition_drifts(curve, partition):
    return drift_sums(curve.frames_at(partition.times))


class TestEnergySup:
    def test_static_closed_form(self):
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        assert energy_sups(curve, PAULI_X)[0] == pytest.approx(1.0, abs=1e-12)

    def test_commuting_generator_grid_max_equals_base_value(self, monkeypatch):
        # ||H e^{-itA} psi|| does not depend on t when A commutes with H, so
        # every grid's maximum is the value at the base.
        h = seeded_hermitian(4, 3)
        curve = GeneratedCurve(h, seeded_cons(4, 9), 1.0)
        expected = float(np.linalg.norm(h @ curve.base[:, 2]))
        for grid in (3, 17, 257):
            monkeypatch.setattr(curves, "GRID_POINTS", grid)
            assert energy_sups(curve, h)[2] == pytest.approx(expected, abs=1e-12)

    def test_rotating_qubit_grid_sup(self):
        # ||Z (cos t, sin t)|| = 1 for every t, so the grid sup is exactly 1.
        curve = y_curve()
        assert energy_sups(curve, PAULI_Z)[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_estimates_monotone_in_resolution(self, monkeypatch):
        curve = GeneratedCurve(seeded_hermitian(5, 1), seeded_cons(5, 2), 1.0)
        h = seeded_hermitian(5, 3)
        values = []
        for m in (2, 5, 17, 65, 257):
            monkeypatch.setattr(curves, "GRID_POINTS", m)
            values.append(energy_sups(curve, h)[0])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sampled_uses_its_own_grid(self):
        gen = y_curve(tau=1.0)
        times = np.linspace(0.0, 1.0, 5)
        curve = SampledCurve(times, [gen.frames_at(t)[0] for t in times])
        expected = max(float(np.linalg.norm(PAULI_Z @ f[:, 0])) for f in curve.frames)
        assert energy_sups(curve, PAULI_Z)[0] == pytest.approx(expected, abs=1e-14)

    def test_rejects_mismatched_hamiltonian(self):
        with pytest.raises(ValidationError, match="dimension"):
            energy_sups(StaticCurve(np.eye(3, dtype=complex), 1.0), PAULI_X)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_large_generator_and_hamiltonian(self, dim):
        # Norms of 1e4 put the rounding of i[A, H] far above an absolute 1e-10,
        # so no product the program forms may be held to a Hermiticity check.
        curve = GeneratedCurve(1e4 * seeded_hermitian(dim, 2), seeded_cons(dim, 3), 1.0)
        xis, etas = curve_bounds(curve, hermitian_eigendecompose(1e4 * seeded_hermitian(dim, 1)))
        assert np.all(np.isfinite(xis)) and np.all(np.isfinite(etas))


class TestLipschitzBound:
    def test_static_is_zero(self):
        np.testing.assert_array_equal(StaticCurve(np.eye(3, dtype=complex), 1.0).lipschitz(), np.zeros(3))

    def test_generated_closed_form(self):
        assert y_curve().lipschitz()[0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_generator(self):
        curve = GeneratedCurve(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex), 1.0)
        assert curve.lipschitz()[0] == 0.0

    def test_sampled_adjacent_quotients(self):
        times = [0.0, 0.5, 1.0]
        frames = [np.eye(2, dtype=complex)] * 2 + [np.array([[0, 1], [1, 0]], dtype=complex)]
        curve = SampledCurve(times, frames)
        # jump of norm sqrt(2) over a gap of 0.5
        assert curve.lipschitz()[0] == pytest.approx(math.sqrt(2) / 0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        curve = GeneratedCurve(seeded_hermitian(dim, seed + 40), seeded_cons(dim, seed), 1.2)
        etas = curve.lipschitz()
        for _ in range(50):
            s, t = sorted(rng.uniform(0.0, 1.2, size=2))
            gap = np.linalg.norm(curve.frames_at(t)[0] - curve.frames_at(s)[0], axis=0)
            assert np.all(gap <= etas * (t - s) + 1e-9)


class TestSampledVectorsMatchPerFrameLoops:
    """The sampled-curve vectors against explicit loops over frames and
    indices. Each norm sums 2d squares and each quotient adds one rounding,
    so the two orders agree to a few d eps relative to the value."""

    @pytest.mark.parametrize("seed", range(3))
    def test_energy_sups_and_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        grid = random_partition(1.0, int(rng.integers(2, 40)), seed=seed).times
        gen = GeneratedCurve(seeded_hermitian(dim, seed + 20), seeded_cons(dim, seed + 21), 1.0)
        curve = SampledCurve(grid, gen.frames_at(grid))
        h = seeded_hermitian(dim, seed + 22)
        xis, etas = curve_bounds(curve, hermitian_eigendecompose(h))
        hs = (h + h.conj().T) / 2
        tol = len(grid) * dim * np.finfo(float).eps
        for k in range(dim):
            xi = max(float(np.linalg.norm(hs @ f[:, k])) for f in curve.frames)
            eta = max(
                float(np.linalg.norm(curve.frames[i + 1][:, k] - curve.frames[i][:, k])) / (grid[i + 1] - grid[i])
                for i in range(len(grid) - 1)
            )
            assert abs(xis[k] - xi) <= tol * max(1.0, xi)
            assert abs(etas[k] - eta) <= tol * max(1.0, eta)


class TestDriftSum:
    def test_static_curve_drift_is_zero(self):
        curve = StaticCurve(seeded_cons(3, 2), 1.0)
        np.testing.assert_array_equal(partition_drifts(curve, uniform_partition(1.0, 8)), np.zeros(3))

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_rotating_qubit_closed_form(self, n):
        # per step Re<(e^{-i d Y} - 1) v, v> = cos(d) - 1 with d = 1/n
        curve = y_curve(tau=1.0)
        expected = n * (math.cos(1.0 / n) - 1.0)
        assert partition_drifts(curve, uniform_partition(1.0, n))[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_with_half_squared_increments(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        curve = GeneratedCurve(seeded_hermitian(dim, seed + 3), seeded_cons(dim, seed), 1.0)
        partition = uniform_partition(1.0, int(rng.integers(1, 30)))
        drifts = partition_drifts(curve, partition)
        for k in range(dim):
            acc = 0.0
            prev = curve.frames_at(0.0)[0, :, k]
            for t in partition.times[1:]:
                cur = curve.frames_at(float(t))[0, :, k]
                acc += float(np.linalg.norm(cur - prev) ** 2)
                prev = cur
            assert abs(drifts[k] + 0.5 * acc) <= 1e-10
            assert drifts[k] <= 1e-12

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_batched_sum_matches_stepwise_loop(self, n):
        # The batched sum adds each step's terms in another order: allow n d eps.
        curve = GeneratedCurve(seeded_hermitian(5, 1), seeded_cons(5, 2), 1.0)
        partition = random_partition(1.0, n, seed=n)
        drifts = partition_drifts(curve, partition)
        for k in range(5):
            loop, prev = 0.0, curve.frames_at(0.0)[0, :, k]
            for t in partition.times[1:]:
                cur = curve.frames_at(float(t))[0, :, k]
                loop += float(np.real(np.vdot(prev, cur - prev)))
                prev = cur
            assert abs(drifts[k] - loop) <= n * 5 * np.finfo(float).eps

    def test_decay_under_uniform_refinement(self):
        curve = GeneratedCurve(seeded_hermitian(4, 6), seeded_cons(4, 7), 1.0)
        etas = curve.lipschitz()
        for n in (2, 8, 32, 128):
            drifts = partition_drifts(curve, uniform_partition(1.0, n))
            assert np.all(np.abs(drifts) <= etas**2 / (2 * n) + 1e-9)


class TestGeneratedDerivative:
    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_difference_approaches_generator_action(self, h, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        a = seeded_hermitian(dim, seed + 11)
        a = a / max(1.0, 0.5 * float(np.max(np.abs(np.linalg.eigvalsh(a)))))  # keep ||A|| <= 2
        curve = GeneratedCurve(a, seeded_cons(dim, seed), 1.0)
        t = float(rng.uniform(0.0, 1.0 - h))
        frame = curve.frames_at(t)[0]
        fd = (curve.frames_at(t + h)[0] - frame) / h
        exact = -1j * (a @ frame)
        for k in range(dim):
            err = float(np.linalg.norm(fd[:, k] - exact[:, k]))
            assert err <= 0.5 * h * float(np.linalg.norm(a @ (a @ frame[:, k]))) + 1e-8


class TestSampledCurve:
    def make(self):
        gen = y_curve(tau=1.0)
        times = np.linspace(0.0, 1.0, 5)
        return SampledCurve(times, [gen.frames_at(t)[0] for t in times]), gen

    def test_rejects_non_orthonormal_frame(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            SampledCurve([0.0, 1.0], [np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex)])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.eye(3, dtype=complex), r"frame 2 has shape \(3, 3\)"),
            (np.full((2, 2), np.nan, dtype=complex), "frame 2 contains non-finite entries"),
            (np.diag([1.0, 1.5]).astype(complex), "frame 2 is not orthonormal"),
            ([[1, 0], [0]], "frame 2 is a ragged nested list"),
        ],
    )
    def test_names_the_first_bad_frame(self, bad, message):
        frames = [np.eye(2, dtype=complex)] * 2 + [bad, bad]
        with pytest.raises(ValidationError, match=message):
            SampledCurve([0.0, 0.5, 0.7, 1.0], frames)

    def test_rejects_single_time(self):
        with pytest.raises(ValidationError, match="two grid times"):
            SampledCurve([0.0], [np.eye(2, dtype=complex)])

    @pytest.mark.parametrize("times, bad", [([0.0, math.nan, 1.0], "nan"), ([0.0, 1.0, math.inf], "inf")])
    def test_rejects_non_finite_grid_time(self, times, bad):
        with pytest.raises(ValidationError, match=f"sampled grid time {bad} is not finite"):
            SampledCurve(times, [np.eye(2, dtype=complex)] * 3)

    def test_rejects_unsorted_times(self):
        frames = [np.eye(2, dtype=complex)] * 3
        with pytest.raises(ValidationError, match="ascending"):
            SampledCurve([0.0, 0.7, 0.4], frames)

    def test_off_grid_time_rejected_for_partitions(self):
        curve, _ = self.make()
        with pytest.raises(ValidationError, match="not on the sampled grid"):
            curve.frames_at([0.0, 0.3])

    def test_partition_estimate_bounded_by_curve_constant(self):
        curve, _ = self.make()
        partition = uniform_partition(1.0, 2)
        estimate = partition_lipschitz_estimate(curve.frames_at(partition.times), partition.steps)
        assert np.all(estimate <= curve.lipschitz() + 1e-12)

