"""Dense complex-matrix kernel: Hermitian eigendecomposition, spectral
functions, trace norm, orthonormality checks and seeded fixtures.

Everything here is pure, deterministic, and sized for dense double-precision
work at small dimension (d <= 32). Hermiticity is checked to HERMITIAN_TOL
(1e-10), orthonormality to CONS_TOL (1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-10
CONS_TOL = 1e-9


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, finite, complex d x d array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint."""
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Check hermiticity within HERMITIAN_TOL, then return the symmetrized (m + m*)/2."""
    a = as_complex_matrix(m, name)
    defect = hermiticity_defect(a)
    if defect > HERMITIAN_TOL:
        raise ValidationError(f"{name} is not Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.1e}")
    return (a + a.conj().T) / 2


def phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column so its largest-modulus entry is real positive.

    Ties go to the lowest index, which makes the output deterministic; a zero
    column stays zero.
    """
    out = np.array(vectors, dtype=complex)
    lead = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    size = np.abs(lead)
    scale = np.divide(np.conj(lead), size, out=np.ones_like(lead), where=size > 0)
    # Scaled as the rows of out.T, so each product rounds as a column times a scalar does; a
    # product broadcast along rows takes another numpy multiply loop and rounds differently at d = 1.
    return (out.T * scale[:, None]).T


@dataclass(frozen=True)
class HermitianEigen:
    """A validated Hermitian operator, the one form in which one passes the API
    boundary: matrix is the read-only symmetrized (M + M*)/2, values its ascending
    eigenvalues and vectors the matching orthonormal eigenvectors as columns,
    phase-fixed for reproducibility."""

    values: np.ndarray
    vectors: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def propagator(self, t) -> np.ndarray:
        """e^{-i t M} for the decomposed Hermitian M; for a 1-d array of n times, the (n, d, d)
        stack from one GEMM with the times folded into the rows, each with its scalar call's bits."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(-1j * t[..., None, None] * self.values)
        rows = (self.vectors * phases).reshape(-1, self.dim)
        return (rows @ self.vectors.conj().T).reshape(t.shape + (self.dim, self.dim))


def hermitian_eigendecompose(m, name: str = "matrix") -> HermitianEigen:
    """Validate (name labels the errors), symmetrize and eigendecompose a Hermitian matrix,
    the eigenvector phases fixed by phase_fix.

    Raises ValidationError for non-square or non-Hermitian input and lets a
    LAPACK convergence failure propagate as numpy.linalg.LinAlgError.
    """
    h = require_hermitian(m, name)
    values, vectors = np.linalg.eigh(h)
    vectors = phase_fix(vectors)
    for a in (values, vectors, h):
        a.flags.writeable = False
    return HermitianEigen(values=values, vectors=vectors, matrix=h)


def trace_norm(t) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator.

    General (non-Hermitian) operators are rejected on purpose; every distance
    computed in this package is between Hermitian operators.
    """
    h = require_hermitian(t, name="trace-norm argument")
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def orthonormality_defect(cons: np.ndarray):
    """Largest entrywise deviation of cons* cons from I, per matrix of a (..., d, d) stack; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(cons.conj(), -1, -2) @ cons
        defect = np.max(np.abs(gram - np.eye(cons.shape[-1])), axis=(-2, -1))
    return np.nan_to_num(defect, nan=np.inf, posinf=np.inf)


def require_cons(cons, name: str = "basis") -> np.ndarray:
    """Validate a complete orthonormal system given as matrix columns, Gram defect within CONS_TOL."""
    b = as_complex_matrix(cons, name)
    defect = orthonormality_defect(b)
    if defect > CONS_TOL:
        raise ValidationError(f"{name} is not orthonormal: defect {defect:.3e} > {CONS_TOL:.1e}")
    return b


def seeded_hermitian(dim: int, seed: int) -> np.ndarray:
    """Reproducible random Hermitian matrix (G + G*)/2, G complex standard normal."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def seeded_cons(dim: int, seed: int) -> np.ndarray:
    """Reproducible random orthonormal basis from the QR of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the QR phase ambiguity so the result is fully determined by the seed.
    q = q * np.sign(np.real(np.diag(r)) + (np.real(np.diag(r)) == 0))
    return phase_fix(q)
