"""Dense kernel tests: eigendecomposition, spectral exponential, trace norm,
and orthonormality defects, checked against closed forms and seeded properties."""

import math

import numpy as np
import pytest

from zenolab.errors import ValidationError
from zenolab.linalg import (
    hermitian_eigendecompose,
    orthonormality_defect,
    phase_fix,
    seeded_cons,
    seeded_hermitian,
    trace_norm,
)

from conftest import PAULI_X, overlap_is_unit


class TestEigendecompose:
    def test_identity(self):
        eig = hermitian_eigendecompose(np.eye(2, dtype=complex))
        np.testing.assert_allclose(eig.values, [1.0, 1.0])

    def test_pauli_x_closed_form(self):
        # 2x2 eigenproblem by hand: values -1, 1 with the Hadamard vectors.
        eig = hermitian_eigendecompose(PAULI_X)
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-12)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert overlap_is_unit(eig.vectors[:, 0], minus, tol=1e-12)
        assert overlap_is_unit(eig.vectors[:, 1], plus, tol=1e-12)

    @pytest.mark.parametrize("dim,seed", [(6, 3), (6, 17), (32, 5)])
    def test_reconstruction(self, dim, seed):
        h = seeded_hermitian(dim, seed)
        eig = hermitian_eigendecompose(h)
        scale = dim * np.max(np.abs(h))
        assert np.max(np.abs((eig.vectors * eig.values) @ eig.vectors.conj().T - h)) <= 1e-10 * scale
        assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(dim))) <= 1e-10

    def test_reconstruction_every_dim_up_to_32(self):
        for dim in range(1, 33):
            h = seeded_hermitian(dim, 1000 + dim)
            eig = hermitian_eigendecompose(h)
            scale = dim * np.max(np.abs(h))
            assert np.max(np.abs((eig.vectors * eig.values) @ eig.vectors.conj().T - h)) <= 1e-10 * scale
            assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(dim))) <= 1e-10

    def test_values_ascending(self):
        eig = hermitian_eigendecompose(seeded_hermitian(8, 11))
        assert np.all(np.diff(eig.values) >= 0)

    def test_deterministic(self):
        h = seeded_hermitian(5, 23)
        a = hermitian_eigendecompose(h)
        b = hermitian_eigendecompose(h.copy())
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            hermitian_eigendecompose(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            hermitian_eigendecompose(m)


class TestUnitaryExponential:
    """e^{-i t H} as HermitianEigen.propagator, the one spectral exponential."""

    def test_time_zero_is_identity(self):
        h = seeded_hermitian(4, 2)
        np.testing.assert_allclose(hermitian_eigendecompose(h).propagator(0.0), np.eye(4), atol=1e-14)

    def test_pauli_x_quarter_turn(self):
        # e^{-i theta X} = cos(theta) I - i sin(theta) X; theta = pi/2.
        u = hermitian_eigendecompose(PAULI_X).propagator(math.pi / 2)
        np.testing.assert_allclose(u, np.array([[0, -1j], [-1j, 0]]), atol=1e-12)

    def test_unitarity(self):
        u = hermitian_eigendecompose(seeded_hermitian(5, 9)).propagator(0.7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_array_of_times_stacks_the_scalar_calls_bit_for_bit(self, dim):
        eig = hermitian_eigendecompose(seeded_hermitian(dim, dim))
        times = np.random.default_rng(dim).uniform(-2.0, 2.0, size=50)
        stack = eig.propagator(times)
        assert stack.shape == (50, dim, dim)
        np.testing.assert_array_equal(stack, np.stack([eig.propagator(float(t)) for t in times]))

    @pytest.mark.parametrize("seed", range(4))
    def test_group_law(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        h = seeded_hermitian(dim, seed + 100)
        s, t = rng.uniform(-2, 2, size=2)
        eig = hermitian_eigendecompose(h)
        lhs = eig.propagator(s + t)
        rhs = eig.propagator(s) @ eig.propagator(t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestTraceNorm:
    def test_density_matrix_has_unit_norm(self):
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_difference(self):
        t = np.diag([0.7, 0.3]) - np.diag([0.3, 0.7])
        assert trace_norm(t.astype(complex)) == pytest.approx(0.8, abs=1e-12)

    def test_pure_state_pair(self):
        # closed form 2 sqrt(1 - |<psi, phi>|^2) = sqrt(2) for these two.
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        t = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
        assert trace_norm(t) == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_and_unitary_invariance(self, seed):
        dim = 6
        a = seeded_hermitian(dim, seed)
        b = seeded_hermitian(dim, seed + 50)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
        u = hermitian_eigendecompose(seeded_hermitian(dim, seed + 99)).propagator(0.8)
        assert abs(trace_norm(u @ a @ u.conj().T) - trace_norm(a)) <= 1e-9


class TestOrthonormalityDefect:
    def test_stack_gives_one_defect_per_matrix(self):
        stack = np.stack([seeded_cons(4, seed) for seed in range(3)])
        stack[1, :, 2] *= 1.5
        defects = orthonormality_defect(stack)
        assert defects.shape == (3,)
        assert defects[1] == pytest.approx(1.25, abs=1e-12)
        for defect, frame in zip(defects, stack):
            assert defect == orthonormality_defect(frame)


class TestSeededFixtures:
    def test_hermitian_is_hermitian_and_reproducible(self):
        a = seeded_hermitian(6, 123)
        b = seeded_hermitian(6, 123)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - a.conj().T)) == 0.0

    def test_cons_is_orthonormal_and_reproducible(self):
        a = seeded_cons(6, 5)
        b = seeded_cons(6, 5)
        np.testing.assert_array_equal(a, b)
        assert orthonormality_defect(a) <= 1e-10


def phase_fix_by_columns(vectors):
    """phase_fix one column at a time, the reference for the array form."""
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        a = col[int(np.argmax(np.abs(col)))]
        if np.abs(a) > 0:
            out[:, j] = col * (np.conj(a) / np.abs(a))
    return out


class TestPhaseFix:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 17, 32])
    def test_matches_the_column_loop_bit_for_bit(self, dim):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            # A C-ordered Gaussian, eigh's F-ordered eigenvectors and a QR factor.
            for m in (g, np.linalg.eigh(seeded_hermitian(dim, seed))[1], np.linalg.qr(g)[0]):
                assert phase_fix(m).tobytes() == phase_fix_by_columns(m).tobytes()

    def test_tied_largest_entries_go_to_the_lowest_index(self):
        m = np.array([[1j, 0.6], [-1j, -0.8j], [0.5, 0.0]])
        fixed = phase_fix(m)
        assert fixed.tobytes() == phase_fix_by_columns(m).tobytes()
        np.testing.assert_array_equal(fixed[:, 0], [1.0, -1.0, -0.5j])
        assert fixed[1, 1] == 0.8

    def test_zero_column_stays_zero(self):
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        np.testing.assert_array_equal(phase_fix(m), [[0.0, 1.0], [0.0, 0.0]])
