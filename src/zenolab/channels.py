"""The two channel primitives: unitary conjugation and nonselective
projective measurement over a complete family of orthogonal projectors.

Only the nonselective posterior state is modeled; there are no outcome
trajectories. Rank-1 families built from an orthonormal basis keep the
generating basis as a fast path, so the projection channel needs only the
vectors; the measurement protocol runs both maps on plain arrays instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_complex_matrix, require_cons
from .states import DensityMatrix

FAMILY_TOL = 1e-9
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class FamilyDiagnostics:
    """Worst-case residuals of a projector family against its invariants."""

    hermiticity: float
    idempotence: float
    orthogonality: float
    completeness: float

    @property
    def ok(self) -> bool:
        return max(self.hermiticity, self.idempotence, self.orthogonality, self.completeness) <= FAMILY_TOL


def validate_projection_family(projectors) -> FamilyDiagnostics:
    """Report worst violations of hermiticity, idempotence, pairwise
    orthogonality, and completeness for a list of projector matrices.

    Never raises; this is the diagnostic half of family validation.
    """
    mats = [as_complex_matrix(p, f"projector {i}") for i, p in enumerate(projectors)]
    if not mats:
        raise ValidationError("empty projector family")
    d = mats[0].shape[0]
    for i, p in enumerate(mats):
        if p.shape[0] != d:
            raise ValidationError(f"projector {i} has dimension {p.shape[0]} != {d}")
    herm = max(float(np.max(np.abs(p - p.conj().T))) for p in mats)
    idem = max(float(np.max(np.abs(p @ p - p))) for p in mats)
    ortho = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ortho = max(ortho, float(np.max(np.abs(mats[i] @ mats[j]))))
    total = sum(mats)
    comp = float(np.max(np.abs(total - np.eye(d))))
    return FamilyDiagnostics(hermiticity=herm, idempotence=idem, orthogonality=ortho, completeness=comp)


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """Complete family of mutually orthogonal projectors summing to identity.

    basis, when present, is the orthonormal system whose rank-1 outer
    products generated the family; channels use it to apply the measurement
    in O(d^3) without touching the projector matrices.
    """

    projectors: tuple
    basis: np.ndarray | None = None

    def __post_init__(self):
        mats = tuple(as_complex_matrix(p) for p in self.projectors)
        if self.basis is None:
            diag = validate_projection_family(mats)
            if not diag.ok:
                raise ValidationError(f"invalid projector family: {diag}")
        object.__setattr__(self, "projectors", mats)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def rank1_family(basis) -> ProjectionFamily:
    """Rank-1 projector family |b_n><b_n| from an orthonormal basis.

    Orthonormality of the basis already implies every family invariant, so
    the pairwise projector checks are skipped.
    """
    b = require_cons(basis, tol=1e-9)
    projectors = tuple(np.outer(b[:, n], b[:, n].conj()) for n in range(b.shape[1]))
    return ProjectionFamily(projectors=projectors, basis=b)


def require_unitary(u, tol: float = UNITARY_TOL) -> np.ndarray:
    a = as_complex_matrix(u, "unitary")
    defect = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    if defect > tol:
        raise ValidationError(f"matrix is not unitary: defect {defect:.3e}")
    return a


def apply_unitary_channel(u, rho: DensityMatrix) -> DensityMatrix:
    """rho -> U rho U*. Preserves spectrum, trace, and entropy."""
    uu = require_unitary(u)
    if uu.shape[0] != rho.dim:
        raise ValidationError("unitary dimension does not match the state")
    return DensityMatrix(uu @ rho.matrix @ uu.conj().T)


def apply_projection_channel(family: ProjectionFamily, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_n P_n rho P_n, the nonselective measurement update.

    With a generating basis available the update reduces to zeroing the
    off-diagonal part of rho in that basis.
    """
    if family.dim != rho.dim:
        raise ValidationError("family dimension does not match the state")
    if family.basis is not None:
        b = family.basis
        populations = np.real(np.diag(b.conj().T @ rho.matrix @ b))
        return DensityMatrix((b * populations) @ b.conj().T)
    out = np.zeros_like(rho.matrix)
    for p in family.projectors:
        out = out + p @ rho.matrix @ p
    return DensityMatrix(out)
