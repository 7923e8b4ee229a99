"""State, decomposition, entropy kernel, and continuity-bound tests.

Derived expectations are frozen from independent scalar computations with
math.log; scipy.special.entr cross-checks the kernel where available.
"""

import math

import numpy as np
import pytest

from zenolab.curves import StaticCurve
from zenolab.errors import ValidationError
from zenolab.linalg import hermitian_eigendecompose, seeded_cons, seeded_hermitian, trace_norm
from zenolab.measurement import run_measurement, uniform_partition
from zenolab.states import DensityMatrix, entr, fannes_bound_at, require_weights, von_neumann_entropy

from conftest import state_matrix


def fannes_between(rho1, rho2):
    """The continuity bound at the trace-norm distance of two states of one dimension."""
    return fannes_bound_at(trace_norm(rho1.matrix - rho2.matrix), rho1.dim)


def eigen_expansion(rho):
    """A state's eigen-expansion: its kept spectrum, ascending, and the matching eigenbasis."""
    return rho.spectrum, hermitian_eigendecompose(rho.matrix).vectors


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert rho.dim == 2
        assert not rho.matrix.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(np.diag([1.1, -0.1]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_clamp_policy_accepts_tiny_negative_drift(self):
        # The kept spectrum applies the policy: the -5e-11 eigenvalue is
        # clamped to 0, so the state counts as pure.
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert von_neumann_entropy(rho) == 0.0
        np.testing.assert_array_equal(rho.spectrum, [0.0, 1.0])

    def test_spectrum_clamps_and_renormalizes(self):
        # -1e-11 clamps to 0; the rest, summing to 1 + 1e-11, is divided by that sum.
        rho = DensityMatrix(np.diag([0.5 + 1e-11, 0.5, -1e-11]))
        assert rho.spectrum[0] == 0.0
        np.testing.assert_allclose(rho.spectrum, np.array([0.0, 0.5, 0.5 + 1e-11]) / (1.0 + 1e-11),
                                   rtol=0, atol=1e-16)
        assert rho.spectrum.sum() == pytest.approx(1.0, abs=1e-15)

    def test_spectrum_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(3)
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0
        with pytest.raises(AttributeError):
            rho.spectrum = np.array([1.0, 0.0, 0.0])

    def test_spectrum_is_not_an_argument(self):
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(2) / 2, spectrum=np.array([0.5, 0.5]))

    def test_state_is_decomposed_once(self, monkeypatch):
        # One eigvalsh on construction; the entropy reads the spectrum it kept.
        w = np.random.default_rng(4).exponential(size=5)
        matrix = state_matrix(w / w.sum(), seeded_cons(5, 5))
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        rho = DensityMatrix(matrix)
        assert len(calls) == 1
        von_neumann_entropy(rho)
        assert len(calls) == 1


class TestSpectralDecompose:
    def test_maximally_mixed(self):
        weights, _ = eigen_expansion(DensityMatrix.maximally_mixed(2))
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_diagonal_input(self):
        weights, basis = eigen_expansion(DensityMatrix(np.diag([0.7, 0.3])))
        assert sorted(weights) == pytest.approx([0.3, 0.7], abs=1e-12)
        # Basis columns match the standard basis up to phase and order.
        mags = np.abs(basis)
        assert np.max(np.abs(mags - np.eye(2)[:, ::-1])) <= 1e-12 or np.max(np.abs(mags - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_reconstruction(self, seed):
        w = np.random.default_rng(seed).exponential(size=5)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(5, seed + 1)))
        weights, basis = eigen_expansion(rho)
        assert np.max(np.abs((basis * weights) @ basis.conj().T - rho.matrix)) <= 1e-9
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_genuinely_negative_spectrum(self):
        # Below the floor of -1e-10 the clamp does not apply: not a state.
        with pytest.raises(ValidationError, match="eigenvalue -2.000e-10 < -1e-10"):
            DensityMatrix(np.diag([1.0 + 2e-10, -2e-10]))


class TestRequireWeights:
    def test_returns_a_float_copy(self):
        given = [0.7, 0.3]
        w = require_weights(given)
        assert w.dtype == float and w.tolist() == given
        w[0] = 0.0
        assert given == [0.7, 0.3]

    @pytest.mark.parametrize("weights, message", [
        ([1.2, -0.2], "must be finite and nonnegative"),
        ([math.nan, 1.0], "must be finite and nonnegative"),
        ([0.7, 0.3 + 5e-10], "sum to 1.0000000005, expected 1"),
    ])
    def test_name_labels_the_errors(self, weights, message):
        with pytest.raises(ValidationError, match=f"^weights {message}"):
            require_weights(weights)
        with pytest.raises(ValidationError, match=f"^state.eigenvalues {message}"):
            require_weights(weights, name="state.eigenvalues")


class TestEntropyKernel:
    def test_boundary_zeros(self):
        assert entr(0.0) == 0.0
        assert entr(1.0) == 0.0

    def test_maximum_at_inverse_e(self):
        assert entr(1 / math.e) == pytest.approx(1 / math.e, abs=1e-15)

    def test_direct_evaluation(self):
        # independent scalar oracle: -0.7 * math.log(0.7)
        assert entr(0.7) == pytest.approx(0.2496724607571127, abs=1e-15)

    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = np.linspace(0.0, 2.0, 101)
        np.testing.assert_allclose(entr(x), scipy_special.entr(x), atol=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            entr(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            entr(math.nan)
        with pytest.raises(ValidationError, match="nonnegative"):
            entr(np.array([0.5, np.nan]))

    def test_subadditive_on_samples(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(1e-6, 0.5, size=200)
        y = rng.uniform(1e-6, 0.5, size=200)
        assert np.all(entr(x + y) <= entr(x) + entr(y) + 1e-12)

    def test_concave_on_samples(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=100)
        y = rng.uniform(0.0, 1.0, size=100)
        mid = entr((x + y) / 2)
        assert np.all(mid >= (entr(x) + entr(y)) / 2 - 1e-12)


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(
            0.6931471805599453, abs=1e-12
        )

    def test_diagonal_oracle(self):
        # -0.7 ln 0.7 - 0.3 ln 0.3 by scalar oracle
        assert von_neumann_entropy(DensityMatrix(np.diag([0.7, 0.3]))) == pytest.approx(
            0.6108643020548935, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        w = np.random.default_rng(seed).exponential(size=dim)
        rho = DensityMatrix(state_matrix(w / w.sum(), seeded_cons(dim, seed + 1)))
        u = hermitian_eigendecompose(seeded_hermitian(dim, seed + 10)).propagator(0.9)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9


class TestFannesBound:
    def test_identical_states(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        fb = fannes_between(rho, rho)
        assert fb.trace_distance == pytest.approx(0.0, abs=1e-12)
        assert fb.bound == pytest.approx(0.0, abs=1e-10)
        assert fb.applicable

    def test_scalar_oracle_pair(self):
        rho1 = DensityMatrix(np.diag([0.7, 0.3]))
        rho2 = DensityMatrix(np.diag([0.75, 0.25]))
        fb = fannes_between(rho1, rho2)
        assert fb.trace_distance == pytest.approx(0.1, abs=1e-12)
        assert fb.applicable
        assert fb.bound == pytest.approx(0.2995732273553991, abs=1e-12)
        gap = abs(von_neumann_entropy(rho1) - von_neumann_entropy(rho2))
        assert gap == pytest.approx(0.04852915743608521, abs=1e-12)
        assert gap <= fb.bound

    def test_large_distance_not_applicable(self):
        fb = fannes_between(DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0])))
        assert fb.trace_distance == pytest.approx(2.0, abs=1e-9)
        assert not fb.applicable

    def test_dimension_mismatch(self):
        # The bound compares a run's final state with its target, which share
        # the curve's dimension; weights of another dimension are refused by the run.
        curve = StaticCurve(np.eye(2, dtype=complex), 1.0)
        with pytest.raises(ValidationError, match=r"weights have shape \(3,\), the curve has dimension 2"):
            run_measurement(np.full(3, 1 / 3), hermitian_eigendecompose(np.eye(2)), curve, uniform_partition(1.0, 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_holds_on_random_close_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        base = seeded_cons(dim, seed)
        w1 = rng.exponential(size=dim)
        w1 /= w1.sum()
        w2 = w1 + rng.uniform(-0.02, 0.02, size=dim)
        w2 = np.clip(w2, 1e-9, None)
        w2 /= w2.sum()
        rho1 = DensityMatrix(state_matrix(w1, base))
        rho2 = DensityMatrix(state_matrix(w2, base))
        fb = fannes_between(rho1, rho2)
        if fb.applicable:
            gap = abs(von_neumann_entropy(rho1) - von_neumann_entropy(rho2))
            assert gap <= fb.bound + 1e-9
