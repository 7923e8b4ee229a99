"""The two maps of one protocol step as the channel route applies them,
unitary conjugation rho -> U rho U* and measurement in a frame F,
rho -> sum_k P_k rho P_k with P_k = f_k f_k*; and the projection_family
row, which holds a frame to the invariants of that projector family."""

from types import SimpleNamespace

import numpy as np
import pytest

from zenolab.bounds import CHECKS
from zenolab.curves import SampledCurve, StaticCurve
from zenolab.errors import ValidationError
from zenolab.linalg import hermitian_eigendecompose, seeded_cons, seeded_hermitian
from zenolab.measurement import _channel_route
from zenolab.states import DensityMatrix, von_neumann_entropy

from conftest import PAULI_X, state_matrix


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5))


def one_step(rho, frame, unitary=None):
    """One channel-route step: U rho U* (U = I by default), then measurement in frame."""
    frame = np.asarray(frame, dtype=complex)
    u = np.eye(frame.shape[0], dtype=complex) if unitary is None else unitary
    return DensityMatrix(_channel_route(rho.matrix, np.stack([frame, frame]), u[None]))


def projectors(frame):
    f = np.asarray(frame, dtype=complex)
    return [np.outer(f[:, k], f[:, k].conj()) for k in range(f.shape[1])]


def family_residuals(frame):
    """Worst hermiticity, idempotence, pairwise orthogonality and completeness
    residuals of the projectors f_k f_k* of a frame."""
    p = projectors(frame)
    herm = max(float(np.max(np.abs(q - q.conj().T))) for q in p)
    idem = max(float(np.max(np.abs(q @ q - q))) for q in p)
    ortho = max(float(np.max(np.abs(p[i] @ p[j]))) for i in range(len(p)) for j in range(len(p)) if i != j)
    comp = float(np.max(np.abs(sum(p) - np.eye(len(p)))))
    return herm, idem, ortho, comp


def family_row(frame):
    """(passed, Gram defect) of the projection_family row on a run whose final frame is frame."""
    row = next(c for c in CHECKS if c.name == "projection_family")
    run = SimpleNamespace(result=SimpleNamespace(final_frame=np.asarray(frame, dtype=complex)))
    [(passed, fields)] = row.outcomes(run)
    return passed, fields["orthonormality_defect"]


class TestUnitaryChannel:
    def test_identity_fixes_state(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        out = one_step(rho, np.eye(2), np.eye(2, dtype=complex))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_spin_flip_swaps_populations(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        u = hermitian_eigendecompose(PAULI_X).propagator(np.pi / 2)
        np.testing.assert_allclose(u, -1j * PAULI_X, atol=1e-15)
        out = one_step(rho, np.eye(2), u)
        np.testing.assert_allclose(out.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_spectrum_preserved(self, seed):
        # Measuring in the eigenbasis of U rho U* leaves it alone, so the step
        # returns the conjugated state itself.
        dim = 6
        w = np.random.default_rng(seed).exponential(size=dim)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(dim, seed + 1)))
        u = hermitian_eigendecompose(seeded_hermitian(dim, seed + 7)).propagator(1.1)
        conjugated = u @ rho.matrix @ u.conj().T
        out = one_step(rho, np.linalg.eigh(conjugated)[1], u)
        np.testing.assert_allclose(out.matrix, conjugated, atol=1e-9)
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(out.matrix)
        np.testing.assert_allclose(after, before, atol=1e-9)
        assert abs(von_neumann_entropy(out) - von_neumann_entropy(rho)) <= 1e-9

    def test_rejects_non_unitary(self):
        # The step unitaries come only from e^{-i dt H} of the HermitianEigen a run
        # takes, and only hermitian_eigendecompose makes one: a non-Hermitian H
        # stops there, where it enters, and never reaches a run.
        with pytest.raises(ValidationError, match="hamiltonian is not Hermitian"):
            hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex), name="hamiltonian")


class TestProjectionChannel:
    def test_eigenbasis_family_fixes_state(self):
        w = np.random.default_rng(3).exponential(size=4)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(4, 3 + 1)))
        basis = np.linalg.eigh(rho.matrix)[1]
        out = one_step(rho, basis)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_standard_family_decoheres_plus_state(self):
        out = one_step(plus_state(), np.eye(2))
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_positivity_entropy(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        w = np.random.default_rng(seed).exponential(size=dim)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(dim, seed + 1)))
        out = one_step(rho, seeded_cons(dim, seed + 31))
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10
        assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-9

    def test_block_diagonal_and_idempotent(self):
        w = np.random.default_rng(9).exponential(size=5)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(5, 9 + 1)))
        frame = seeded_cons(5, 17)
        out = one_step(rho, frame)
        family = projectors(frame)
        for i, p in enumerate(family):
            for j, q in enumerate(family):
                if i != j:
                    assert np.max(np.abs(p @ out.matrix @ q)) <= 1e-9
        again = one_step(out, frame)
        np.testing.assert_allclose(again.matrix, out.matrix, atol=1e-12)

    def test_explicit_projector_path_matches_fast_path(self):
        w = np.random.default_rng(21).exponential(size=4)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(4, 21 + 1)))
        basis = seeded_cons(4, 22)
        explicit = sum(p @ rho.matrix @ p for p in projectors(basis))
        np.testing.assert_allclose(one_step(rho, basis).matrix, explicit, atol=1e-12)


class TestRank1Family:
    def test_standard_basis(self):
        assert family_row(np.eye(2)) == (True, 0.0)
        p = projectors(np.eye(2))
        np.testing.assert_allclose(p[0], np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(p[1], np.diag([0.0, 1.0]), atol=1e-14)

    def test_hadamard_pair_sums_to_identity(self):
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert family_row(basis)[0]
        np.testing.assert_allclose(sum(projectors(basis)), np.eye(2), atol=1e-10)

    def test_seeded_completeness(self):
        basis = seeded_cons(5, 4)
        assert family_row(basis)[0]
        np.testing.assert_allclose(sum(projectors(basis)), np.eye(5), atol=1e-10)

    def test_rejects_non_orthonormal(self):
        passed, defect = family_row(np.array([[1, 1], [0, 0]], dtype=complex))
        assert not passed
        assert defect == pytest.approx(1.0, abs=1e-12)


class TestFamilyDiagnostics:
    # Each family residual is at most d times the Gram defect the row compares.
    def test_valid_family_has_tiny_residuals(self):
        frame = seeded_cons(4, 8)
        passed, defect = family_row(frame)
        assert passed and defect <= 1e-10
        assert max(family_residuals(frame)) <= 1e-10

    def test_duplicated_projector_breaks_orthogonality(self):
        frame = np.array([[1, 1], [0, 0]], dtype=complex)
        passed, defect = family_row(frame)
        assert not passed
        orthogonality = family_residuals(frame)[2]
        assert orthogonality == pytest.approx(1.0, abs=1e-12)
        assert orthogonality <= 2 * defect

    def test_missing_projector_breaks_completeness(self):
        frame = np.diag([1.0, 1.0, 0.0]).astype(complex)
        passed, defect = family_row(frame)
        assert not passed
        # Residual equals the norm of the dropped projector.
        completeness = family_residuals(frame)[3]
        assert completeness == pytest.approx(1.0, abs=1e-12)
        assert completeness <= 3 * defect

    def test_constructor_rejects_invalid_family(self):
        # Curves hold every frame to the family invariants when they are built.
        frame = np.array([[1, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError, match="orthonormal"):
            StaticCurve(frame, 1.0)
        with pytest.raises(ValidationError, match="frame 1 is not orthonormal"):
            SampledCurve([0.0, 1.0], [np.eye(2), frame])
