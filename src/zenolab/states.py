"""What a state is: validated density matrices, the rule for the weights a
run starts from, the entropy kernel, and the von Neumann entropy with its
trace-norm continuity bound.

All entropies use the natural logarithm. A DensityMatrix is decomposed once,
on construction: eigenvalues that drift slightly negative under channel
composition (down to -1e-10) are clamped to zero and the spectrum
renormalized; anything below that is rejected as not a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_complex_matrix, hermiticity_defect

STATE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator.

    The matrix is validated on construction and stored read-only, with its
    spectrum: the ascending eigenvalues of its one eigvalsh, clamped at 0
    and renormalized to unit sum.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density matrix")
        defect = hermiticity_defect(m)
        if defect > STATE_TOL:
            raise ValidationError(f"density matrix not Hermitian: defect {defect:.3e}")
        m = (m + m.conj().T) / 2
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > STATE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} differs from 1")
        values = np.linalg.eigvalsh(m)
        lowest = float(values[0])
        if lowest < EIGENVALUE_FLOOR:
            raise ValidationError(f"density matrix has eigenvalue {lowest:.3e} < {EIGENVALUE_FLOOR}")
        values = np.clip(values, 0.0, None)
        spectrum = values / values.sum()
        for a in (m, spectrum):
            a.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


def require_weights(weights, name: str = "weights") -> np.ndarray:
    """A start state's spectrum as a float copy: finite, nonnegative and
    summing to 1 within STATE_TOL, the trace tolerance a DensityMatrix is
    held to. name labels the errors."""
    w = np.array(weights, dtype=float)
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValidationError(f"{name} must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > STATE_TOL:
        raise ValidationError(f"{name} sum to {float(w.sum())!r}, expected 1")
    return w


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

    Read from the spectrum rho keeps, never from a matrix-logarithm series, so
    the value is exact at zero eigenvalues and basis-independent.
    """
    return float(np.sum(entr(rho.spectrum)))


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

