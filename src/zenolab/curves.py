"""Time-parametrized orthonormal basis curves on [0, tau] and their
regularity quantities.

Three variants exist. A static curve never moves. A generated curve rotates
its base basis by e^{-itA} for a fixed Hermitian generator A. A sampled
curve is known only at its grid times and is evaluated by nearest grid
point; it never interpolates, so time partitions used against it must be
subsets of its grid.

Per basis index k the module exposes:
  energy_sup      sup over t of ||H Psi_k(t)||           (finite always here)
  lipschitz_bound a Lipschitz constant for t -> Psi_k(t)
  drift_sum       sum over a partition of Re <Psi_k(t_j) - Psi_k(t_{j-1}),
                  Psi_k(t_{j-1})>, which equals -1/2 the summed squared
                  increments for unit-norm curves
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    commutator_norm,
    hermitian_eigendecompose,
    require_cons,
    require_hermitian,
)

DEFAULT_GRID_POINTS = 257
COMMUTING_TOL = 1e-10


class BasisCurve:
    """Common surface of the three curve variants."""

    def __init__(self, base, tau: float):
        if not (float(tau) > 0):
            raise ValidationError(f"tau must be positive, got {tau!r}")
        self.base = require_cons(base, tol=1e-9, name="base basis")
        self.base.flags.writeable = False
        self.tau = float(tau)
        self.dim = self.base.shape[1]

    def _check_time(self, t: float) -> float:
        t = float(t)
        if t < -1e-12 or t > self.tau + 1e-12:
            raise ValidationError(f"time {t} outside [0, {self.tau}]")
        return min(max(t, 0.0), self.tau)

    def evaluate(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def energy_sup(self, hamiltonian, k: int, grid_points: int = DEFAULT_GRID_POINTS) -> float:
        raise NotImplementedError

    def lipschitz_bound(self, k: int) -> float:
        raise NotImplementedError

    def drift_sum(self, partition, k: int) -> float:
        """Exact finite sum of Re <increment, previous point> along a partition."""
        total = 0.0
        prev = self.evaluate(partition.times[0])[:, k]
        for t in partition.times[1:]:
            cur = self.evaluate(t)[:, k]
            total += float(np.real(np.vdot(prev, cur - prev)))
            prev = cur
        return total


class StaticCurve(BasisCurve):
    """Constant curve: the basis never moves."""

    def evaluate(self, t: float) -> np.ndarray:
        self._check_time(t)
        return self.base

    def energy_sup(self, hamiltonian, k: int, grid_points: int = DEFAULT_GRID_POINTS) -> float:
        h = require_hermitian(hamiltonian, name="hamiltonian")
        return float(np.linalg.norm(h @ self.base[:, k]))

    def lipschitz_bound(self, k: int) -> float:
        return 0.0


class GeneratedCurve(BasisCurve):
    """Curve driven by a Hermitian generator: Psi_n(t) = e^{-itA} Psi_n."""

    def __init__(self, generator, base, tau: float):
        super().__init__(base, tau)
        self.generator = require_hermitian(generator, name="generator")
        if self.generator.shape[0] != self.dim:
            raise ValidationError("generator dimension does not match the base basis")
        self.generator.flags.writeable = False
        self._eig = hermitian_eigendecompose(self.generator)

    def evaluate(self, t: float) -> np.ndarray:
        t = self._check_time(t)
        if t == 0.0:
            return self.base
        return self._eig.propagator(t) @ self.base

    def energy_sup(self, hamiltonian, k: int, grid_points: int = DEFAULT_GRID_POINTS) -> float:
        return float(self._energy_sups(hamiltonian, grid_points)[k])

    def _energy_sups(self, hamiltonian, grid_points: int) -> np.ndarray:
        h = require_hermitian(hamiltonian, name="hamiltonian")
        if commutator_norm(self.generator, h) <= COMMUTING_TOL:
            # Commuting flow: ||H e^{-itA} psi|| is t-independent.
            return np.linalg.norm(h @ self.base, axis=0)
        if grid_points < 2:
            raise ValidationError("grid must contain at least the two endpoints")
        best = np.zeros(self.dim)
        for t in np.linspace(0.0, self.tau, grid_points):
            best = np.maximum(best, np.linalg.norm(h @ self.evaluate(t), axis=0))
        return best

    def lipschitz_bound(self, k: int) -> float:
        # ||(e^{-i s A} - 1) psi|| <= |s| ||A psi|| with equality in the limit,
        # so ||A psi|| is the sharp constant; no grid error enters the bounds.
        return float(np.linalg.norm(self.generator @ self.base[:, k]))


class SampledCurve(BasisCurve):
    """Curve known at finitely many grid times, one orthonormal frame each.

    Evaluation is exact at grid times and nearest-grid-point elsewhere.
    Partitions combined with this curve must stay inside its grid.
    """

    def __init__(self, times, frames):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValidationError("a sampled curve needs at least two grid times")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("sampled grid times must be strictly ascending")
        if abs(times[0]) > 1e-12:
            raise ValidationError("sampled grid must start at 0")
        if len(frames) != times.shape[0]:
            raise ValidationError(f"{len(frames)} frames for {times.shape[0]} grid times")
        checked = []
        for i, frame in enumerate(frames):
            checked.append(require_cons(frame, tol=1e-9, name=f"frame {i}"))
            checked[-1].flags.writeable = False
        super().__init__(checked[0], tau=times[-1])
        self.times = times
        self.times.flags.writeable = False
        self.frames = tuple(checked)

    def _nearest_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def grid_index(self, t: float) -> int:
        """Index of t in the grid; error if t is not a grid time."""
        i = self._nearest_index(t)
        if abs(self.times[i] - t) > 1e-12 * max(1.0, self.tau):
            raise ValidationError(f"time {t} is not on the sampled grid (no interpolation)")
        return i

    def evaluate(self, t: float) -> np.ndarray:
        t = self._check_time(t)
        return self.frames[self._nearest_index(t)]

    def energy_sup(self, hamiltonian, k: int, grid_points: int = DEFAULT_GRID_POINTS) -> float:
        # The curve is piecewise constant under nearest-point evaluation, so
        # the exact sup is the max over its own grid frames.
        h = require_hermitian(hamiltonian, name="hamiltonian")
        return max(float(np.linalg.norm(h @ f[:, k])) for f in self.frames)

    def lipschitz_bound(self, k: int) -> float:
        best = 0.0
        for i in range(len(self.frames) - 1):
            gap = self.times[i + 1] - self.times[i]
            step = float(np.linalg.norm(self.frames[i + 1][:, k] - self.frames[i][:, k]))
            best = max(best, step / gap)
        return best


def partition_lipschitz_estimate(curve: BasisCurve, partition, k: int) -> float:
    """Largest difference quotient of Psi_k along the partition's own steps."""
    best = 0.0
    prev_t = partition.times[0]
    prev = curve.evaluate(prev_t)[:, k]
    for t in partition.times[1:]:
        cur = curve.evaluate(t)[:, k]
        best = max(best, float(np.linalg.norm(cur - prev)) / (t - prev_t))
        prev, prev_t = cur, t
    return best


@dataclass(frozen=True)
class CurveBounds:
    """Per-index regularity numbers for a whole curve.

    method records how the energy sups were obtained: "closed-form" when
    exact, "grid(M)" when estimated from M curve samples. Grid estimates
    are maxima, hence monotone nondecreasing in M and lower bounds on the
    true sup.
    """

    energy_sups: np.ndarray
    lipschitz: np.ndarray
    method: str


def curve_bounds(curve: BasisCurve, hamiltonian, grid_points: int = DEFAULT_GRID_POINTS) -> CurveBounds:
    """Per-index regularity bounds for a whole curve in one pass."""
    if isinstance(curve, GeneratedCurve):
        xis = curve._energy_sups(hamiltonian, grid_points)
        commuting = commutator_norm(curve.generator, require_hermitian(hamiltonian)) <= COMMUTING_TOL
        method = "closed-form" if commuting else f"grid({grid_points})"
    else:
        xis = np.array([curve.energy_sup(hamiltonian, k, grid_points) for k in range(curve.dim)])
        method = "closed-form" if isinstance(curve, StaticCurve) else f"grid({len(curve.frames)})"
    etas = np.array([curve.lipschitz_bound(k) for k in range(curve.dim)])
    return CurveBounds(energy_sups=xis, lipschitz=etas, method=method)
