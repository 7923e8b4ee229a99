"""Density matrices, the entropy kernel, and the von Neumann entropy with
its trace-norm continuity bound.

All entropies use the natural logarithm. Eigenvalues that drift slightly
negative under channel composition (down to -1e-10) are clamped to zero and
the spectrum renormalized; anything below that is rejected as not a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_complex_matrix, hermiticity_defect, seeded_cons

STATE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator.

    The matrix is validated on construction and stored read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density matrix")
        defect = hermiticity_defect(m)
        if defect > STATE_TOL:
            raise ValidationError(f"density matrix not Hermitian: defect {defect:.3e}")
        m = (m + m.conj().T) / 2
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > STATE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1")
        lowest = float(np.min(np.linalg.eigvalsh(m)))
        if lowest < EIGENVALUE_FLOOR:
            raise ValidationError(f"density matrix has eigenvalue {lowest:.3e} < {EIGENVALUE_FLOOR}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def diagonal(cls, values) -> "DensityMatrix":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValidationError("cannot form a pure state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def seeded_random(cls, dim: int, seed: int) -> "DensityMatrix":
        """Reproducible full-rank random state: random weights in a random basis."""
        rng = np.random.default_rng(seed)
        w = rng.exponential(size=dim)
        w = w / w.sum()
        b = seeded_cons(dim, seed + 1)
        return cls((b * w) @ b.conj().T)


def clean_spectrum(values: np.ndarray) -> np.ndarray:
    """Clamp tiny negative eigenvalues to zero and renormalize to unit sum."""
    v = np.asarray(values, dtype=float)
    lowest = float(v.min())
    if lowest < EIGENVALUE_FLOOR:
        raise ValidationError(f"eigenvalue {lowest:.3e} below {EIGENVALUE_FLOOR}: not a state")
    v = np.clip(v, 0.0, None)
    total = v.sum()
    if total <= 0:
        raise ValidationError("spectrum sums to zero")
    return v / total


def entr(x):
    """The entropy kernel -x ln x with entr(0) = 0, elementwise on arrays.

    Continuous and concave on [0, inf), subadditive, maximal at x = 1/e.
    """
    a = np.asarray(x, dtype=float)
    if np.any(a < 0):
        raise ValidationError("entropy kernel requires nonnegative input")
    out = np.where(a > 0, -a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    if np.isscalar(x) or a.ndim == 0:
        return float(out)
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = sum of entr over the eigenvalues, in nats.

    Computed from the spectrum, never from a matrix-logarithm series, so the
    value is exact at zero eigenvalues and basis-independent.
    """
    weights = clean_spectrum(np.linalg.eigvalsh(rho.matrix))
    return float(np.sum(entr(weights)))


FANNES_THRESHOLD = 1.0 / math.e


@dataclass(frozen=True)
class FannesBound:
    """Trace-norm continuity bound for the entropy difference of two states.

    applicable is True when the trace-norm distance is small enough
    (<= 1/e) for the bound to be asserted.
    """

    trace_distance: float
    applicable: bool
    bound: float


def fannes_bound_at(t: float, dim: int) -> FannesBound:
    """Entropy-continuity bound T ln d + entr(T) at trace-norm distance T."""
    return FannesBound(trace_distance=t, applicable=t <= FANNES_THRESHOLD, bound=float(t * math.log(dim) + entr(t)))

