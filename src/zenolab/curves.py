"""Time-parametrized orthonormal basis curves on [0, tau] and their
regularity quantities.

Three variants exist. A static curve never moves. A generated curve rotates
its base basis by e^{-itA} for a fixed Hermitian generator A. A sampled
curve is known only at its grid times and never interpolates: evaluating it
off its grid raises, so time partitions used against it must be subsets of
its grid.

frames_at(times), the frames at an array of times as one (n, d, d) stack,
is the one evaluation primitive; the frame at a single time t is
frames_at(t)[0], so an off-grid time raises there too.

Regularity quantities are (d,) vectors over the basis index k, each one
pass over a frame stack; curve_bounds returns the pair (xi, eta):
  xi_k   sup over t of ||H Psi_k(t)||, the max over sup_frames: exact for
         static and sampled curves, the maximum over GRID_POINTS frames
         for a generated one
  eta_k  a Lipschitz constant for t -> Psi_k(t) (lipschitz)
  drift  sum over a partition of Re <Psi_k(t_j) - Psi_k(t_{j-1}),
         Psi_k(t_{j-1})>, which equals -1/2 the summed squared increments
         (half_square_sums) for unit-norm curves (drift_sums)
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import CONS_TOL, HermitianEigen, hermitian_eigendecompose, orthonormality_defect, require_cons

GRID_POINTS = 257


def time_tol(tau: float) -> float:
    """How far a time may sit from a time of [0, tau] and still be it: 1e-12, relative beyond tau = 1."""
    return 1e-12 * max(1.0, tau)


def require_tau(tau) -> float:
    """tau as a float, if it is a finite positive number; a NaN or an infinity fails."""
    t = float(tau)
    if not 0 < t < np.inf:
        raise ValidationError(f"tau must be a finite positive number, got {t!r}")
    return t


class BasisCurve:
    """Common surface of the three curve variants."""

    def __init__(self, base, tau: float):
        self.tau = require_tau(tau)
        self.base = require_cons(base, name="base basis")
        self.base.flags.writeable = False
        self.dim = self.base.shape[1]

    def _check_times(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        # Written to fail closed, so a NaN time counts as outside.
        outside = ~((t >= -time_tol(self.tau)) & (t <= self.tau + time_tol(self.tau)))
        if np.any(outside):
            raise ValidationError(f"time {float(t[outside][0])} outside [0, {self.tau}]")
        return np.clip(t, 0.0, self.tau)

    def frames_at(self, times) -> np.ndarray:
        """Frames at every time of a 1-d array (or one time), stacked as (len(times), d, d);
        column n of a frame is Psi_n(t)."""
        raise NotImplementedError

    def sup_frames(self) -> np.ndarray:
        """The frame stack over which the largest ||H Psi_k|| is taken as the
        energy sup xi_k: every frame the curve takes, or samples of them."""
        raise NotImplementedError

    def lipschitz(self) -> np.ndarray:
        """Per-index Lipschitz constants eta_k of t -> Psi_k(t), shape (d,)."""
        raise NotImplementedError


def drift_sums(frames: np.ndarray) -> np.ndarray:
    """Per-index drift sums of a frame stack (N+1, d, d), the steps added in order."""
    prev = frames[:-1]
    return np.real(np.sum(prev.conj() * (frames[1:] - prev), axis=1)).sum(axis=0)


def half_square_sums(frames: np.ndarray) -> np.ndarray:
    """Per-index half summed squared increments 1/2 sum_j ||Psi_k(t_j) - Psi_k(t_{j-1})||^2
    of a frame stack (N+1, d, d); minus the drift sums for unit-norm curves."""
    return 0.5 * np.sum(np.abs(np.diff(frames, axis=0)) ** 2, axis=(0, 1))


def partition_lipschitz_estimate(frames: np.ndarray, steps) -> np.ndarray:
    """Per-index largest difference quotient ||Psi_k(t_j) - Psi_k(t_{j-1})|| / dt_j
    of a frame stack (N+1, d, d) over its N steps."""
    return np.max(np.linalg.norm(np.diff(frames, axis=0), axis=1) / np.asarray(steps)[:, None], axis=0)


class StaticCurve(BasisCurve):
    """Constant curve: the basis never moves."""

    def frames_at(self, times) -> np.ndarray:
        t = self._check_times(times)
        return np.broadcast_to(self.base, (t.shape[0],) + self.base.shape)

    def sup_frames(self) -> np.ndarray:
        return self.base[None]

    def lipschitz(self) -> np.ndarray:
        return np.zeros(self.dim)


class GeneratedCurve(BasisCurve):
    """Curve driven by a Hermitian generator: Psi_n(t) = e^{-itA} Psi_n."""

    def __init__(self, generator, base, tau: float):
        super().__init__(base, tau)
        self._eig = hermitian_eigendecompose(generator, name="generator")
        if self._eig.dim != self.dim:
            raise ValidationError("generator dimension does not match the base basis")
        self.generator = self._eig.matrix

    def frames_at(self, times) -> np.ndarray:
        # The propagators' rows stacked as one (n d, d) matrix, so base is one GEMM too.
        t = self._check_times(times)
        n, d = t.shape[0], self.dim
        frames = (self._eig.propagator(t).reshape(n * d, d) @ self.base).reshape(n, d, d)
        frames[t == 0.0] = self.base
        return frames

    def sup_frames(self) -> np.ndarray:
        return self.frames_at(np.linspace(0.0, self.tau, GRID_POINTS))

    def lipschitz(self) -> np.ndarray:
        # ||(e^{-i s A} - 1) psi|| <= |s| ||A psi|| with equality in the limit,
        # so ||A psi|| is the sharp constant; no grid error enters the bounds.
        return np.linalg.norm(self.generator @ self.base, axis=0)


class SampledCurve(BasisCurve):
    """Curve known at finitely many grid times, one orthonormal frame each.

    Evaluation is exact at grid times and raises elsewhere, so partitions
    combined with this curve must stay inside its grid.
    """

    def __init__(self, times, frames):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValidationError("a sampled curve needs at least two grid times")
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"sampled grid time {float(times[~np.isfinite(times)][0])} is not finite")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("sampled grid times must be strictly ascending")
        if abs(times[0]) > time_tol(times[-1]):
            raise ValidationError("sampled grid must start at 0")
        if len(frames) != times.shape[0]:
            raise ValidationError(f"{len(frames)} frames for {times.shape[0]} grid times")
        d = len(frames[0])
        for i, frame in enumerate(frames):
            try:
                shape = np.shape(frame)
            except ValueError:
                raise ValidationError(f"frame {i} is a ragged nested list, expected ({d}, {d})") from None
            if d == 0 or shape != (d, d):
                raise ValidationError(f"frame {i} has shape {shape}, expected ({d}, {d}) with d >= 1")
        stack = np.array(frames, dtype=complex)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not np.all(finite):
            raise ValidationError(f"frame {int(np.argmin(finite))} contains non-finite entries")
        defects = orthonormality_defect(stack)
        if np.any(defects > CONS_TOL):
            i = int(np.argmax(defects > CONS_TOL))
            raise ValidationError(f"frame {i} is not orthonormal: defect {defects[i]:.3e} > {CONS_TOL:.1e}")
        stack.flags.writeable = False
        super().__init__(stack[0], tau=times[-1])
        self.times = times
        self.times.flags.writeable = False
        self.frames = stack

    def frames_at(self, times) -> np.ndarray:
        """Frames at grid times only; an off-grid time raises (no interpolation)."""
        t = self._check_times(times)
        # The closer of the two neighbouring grid times, ties to the lower index.
        grid = self.times
        i = np.clip(np.searchsorted(grid, t), 1, grid.shape[0] - 1)
        i -= t - grid[i - 1] <= grid[i] - t
        off = np.abs(grid[i] - t) > time_tol(self.tau)
        if np.any(off):
            raise ValidationError(f"time {float(t[off][0])} is not on the sampled grid (no interpolation)")
        return self.frames[i]

    def sup_frames(self) -> np.ndarray:
        # The curve exists only at its grid times, so the exact sup is the
        # max over its own grid frames.
        return self.frames

    def lipschitz(self) -> np.ndarray:
        return partition_lipschitz_estimate(self.frames, np.diff(self.times))


def curve_bounds(curve: BasisCurve, hamiltonian: HermitianEigen) -> tuple[np.ndarray, np.ndarray]:
    """The (d,) vectors (xi, eta) of a whole curve, each in one pass.

    xi is exact for a static curve and for a sampled curve, which exists only
    at its grid times; for a generated curve it is the maximum over
    GRID_POINTS samples, a lower estimate of the sup.
    """
    if hamiltonian.dim != curve.dim:
        raise ValidationError(f"hamiltonian dimension {hamiltonian.dim} does not match the curve")
    xis = np.max(np.linalg.norm(hamiltonian.matrix @ curve.sup_frames(), axis=1), axis=0)
    return xis, curve.lipschitz()
