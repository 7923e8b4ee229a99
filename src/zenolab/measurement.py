"""The measurement protocol: alternate unitary evolution with projective
measurement onto a moving basis along a time partition of [0, tau].

Two independent computations of the same coefficients are kept side by
side on purpose. evolve_by_channels composes the dense channel maps; the
transfer route propagates the weight vector through one doubly stochastic
matrix per step. They must agree to 1e-9 and checking that agreement is
the central internal oracle of the package.

Per index k the result splits as

    weight_out_k = weight_k * survival_k + leakage_k

where survival_k is the product of per-step stay probabilities and
leakage_k collects every path that ever left index k. Leakage is computed
as the residual of that identity; the explicit path enumeration is kept
only as a small-scale oracle since it grows like d^N.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channels import apply_projection_channel, apply_unitary_channel, rank1_family
from .curves import BasisCurve, SampledCurve
from .errors import InvariantViolation, ValidationError
from .linalg import hermitian_eigendecompose, require_hermitian, trace_norm
from .states import DensityMatrix

DIAGONAL_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
LEAKAGE_FLOOR = -1e-10
PROOF_IDENTITY_TOL = 1e-8
TRACE_BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered time grid 0 = t_0 < ... < t_N = tau."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValidationError("a partition needs at least two times")
        if abs(t[0]) > 0:
            raise ValidationError("partition must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("partition times must be strictly ascending")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        return self.times.shape[0] - 1

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def mesh(self) -> float:
        return float(np.max(self.steps))

    @property
    def sumsq(self) -> float:
        return float(np.sum(self.steps**2))


def uniform_partition(tau: float, n: int) -> Partition:
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not tau > 0:
        raise ValidationError("tau must be positive")
    return Partition(np.linspace(0.0, float(tau), n + 1))


def random_partition(tau: float, n: int, seed: int) -> Partition:
    """Partition with n-1 interior points drawn from a seeded PRNG.

    Redraws until every gap, endpoints included, is at least tau * 1e-6.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not tau > 0:
        raise ValidationError("tau must be positive")
    if n == 1:
        return Partition(np.array([0.0, float(tau)]))
    rng = np.random.default_rng(seed)
    min_gap = tau * 1e-6
    for _ in range(100):
        interior = np.sort(rng.uniform(0.0, tau, size=n - 1))
        times = np.concatenate(([0.0], interior, [tau]))
        if np.min(np.diff(times)) >= min_gap:
            return Partition(times)
    raise ValidationError(f"could not place {n - 1} distinct interior points in (0, {tau})")


def _step_unitaries(hamiltonian):
    """e^{-i dt H} as a function of dt that reuses one spectral decomposition
    of H and caches one matrix per distinct step length (a uniform partition
    needs exactly one)."""
    eig = hermitian_eigendecompose(require_hermitian(hamiltonian, name="hamiltonian"))
    return functools.lru_cache(maxsize=None)(eig.propagator)


def _check_partition_on_curve(curve: BasisCurve, partition: Partition):
    if abs(partition.tau - curve.tau) > 1e-12 * max(1.0, curve.tau):
        raise ValidationError(f"partition horizon {partition.tau} differs from curve horizon {curve.tau}")
    if isinstance(curve, SampledCurve):
        for t in partition.times:
            curve.grid_index(t)


def step_transition_matrix(curve: BasisCurve, hamiltonian, t_prev: float, t_next: float) -> np.ndarray:
    """Doubly stochastic matrix of one evolve-then-measure step.

    Entry (a, b) is the probability |<Psi_a(t_next), e^{-i dt H} Psi_b(t_prev)>|^2
    of landing on index a when starting from index b.
    """
    if not t_next > t_prev:
        raise ValidationError("step requires t_prev < t_next")
    u = _step_unitaries(hamiltonian)(t_next - t_prev)
    return _transition(curve, u, t_prev, t_next)


def _transition(curve: BasisCurve, u: np.ndarray, t_prev: float, t_next: float) -> np.ndarray:
    b_prev = curve.evaluate(t_prev)
    b_next = curve.evaluate(t_next)
    return np.abs(b_next.conj().T @ u @ b_prev) ** 2


def _step_matrices(curve: BasisCurve, hamiltonian, partition: Partition) -> list[np.ndarray]:
    unitaries = _step_unitaries(hamiltonian)
    times = partition.times
    return [
        _transition(curve, unitaries(float(times[j] - times[j - 1])), float(times[j - 1]), float(times[j]))
        for j in range(1, times.shape[0])
    ]


def propagate_weights(weights, curve: BasisCurve, hamiltonian, partition: Partition) -> np.ndarray:
    """Push the weight vector through the chain of step matrices."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
    _check_partition_on_curve(curve, partition)
    for m in _step_matrices(curve, hamiltonian, partition):
        w = m @ w
    return w


def survival_probability(curve: BasisCurve, hamiltonian, partition: Partition, k: int) -> float:
    """Product over steps of the stay probability of index k."""
    _check_partition_on_curve(curve, partition)
    unitaries = _step_unitaries(hamiltonian)
    times = partition.times
    prod = 1.0
    prev = curve.evaluate(float(times[0]))[:, k]
    for j in range(1, times.shape[0]):
        u = unitaries(float(times[j] - times[j - 1]))
        cur = curve.evaluate(float(times[j]))[:, k]
        prod *= float(np.abs(np.vdot(cur, u @ prev)) ** 2)
        prev = cur
    return prod


def _survival_all(step_matrices: list[np.ndarray]) -> np.ndarray:
    gammas = np.ones(step_matrices[0].shape[0])
    for m in step_matrices:
        gammas = gammas * np.diag(m)
    return gammas


def evolve_by_channels(rho: DensityMatrix, hamiltonian, curve: BasisCurve, partition: Partition) -> DensityMatrix:
    """Posterior state after alternating evolution and measurement.

    The state must be diagonal in the curve's base basis; the protocol is
    tied to that choice of decomposition, so a degenerate state needs the
    caller to fix the basis explicitly.
    """
    _require_diagonal_in_base(rho, curve)
    _check_partition_on_curve(curve, partition)
    unitaries = _step_unitaries(hamiltonian)
    state = rho
    times = partition.times
    for j in range(1, times.shape[0]):
        u = unitaries(float(times[j] - times[j - 1]))
        state = apply_unitary_channel(u, state)
        state = apply_projection_channel(rank1_family(curve.evaluate(float(times[j]))), state)
    return state


def _require_diagonal_in_base(rho: DensityMatrix, curve: BasisCurve) -> np.ndarray:
    if rho.dim != curve.dim:
        raise ValidationError("state dimension does not match the curve")
    c = curve.base.conj().T @ rho.matrix @ curve.base
    off = c - np.diag(np.diag(c))
    worst = float(np.max(np.abs(off)))
    if worst > DIAGONAL_TOL:
        raise ValidationError(
            f"state is not diagonal in the curve's base basis (residual {worst:.3e}); "
            "the decomposition must be fixed to the curve"
        )
    return np.real(np.diag(c))


def leakage_residual(weights_out, weights, survivals) -> np.ndarray:
    """Leakage as the exact residual weights_out - weights * survivals.

    Values below -1e-10 indicate a broken invariant (leakage is a sum of
    nonnegative path weights) and raise; values in [-1e-10, 0) clamp to 0.
    """
    eps = np.asarray(weights_out, dtype=float) - np.asarray(weights, dtype=float) * np.asarray(survivals, dtype=float)
    worst = float(eps.min())
    if worst < LEAKAGE_FLOOR:
        raise InvariantViolation("leakage_nonnegative", worst=worst, floor=LEAKAGE_FLOOR)
    return np.clip(eps, 0.0, None)


def leakage_by_path_enumeration(weights, curve: BasisCurve, hamiltonian, partition: Partition, k: int) -> float:
    """Brute-force leakage: sum over every index path that leaves k at least
    once before the final step. Exponential in the step count; meant as an
    oracle for d = 2, N <= 6 scale only."""
    w = np.asarray(weights, dtype=float)
    d = w.shape[0]
    mats = _step_matrices(curve, hamiltonian, partition)
    n = len(mats)
    total = 0.0
    for path in itertools.product(range(d), repeat=n):
        if all(i == k for i in path):
            continue
        indices = list(path) + [k]
        weight = w[indices[0]]
        for j in range(n):
            weight *= mats[j][indices[j + 1], indices[j]]
        total += weight
    return total


def target_state(curve: BasisCurve, weights, t: float) -> DensityMatrix:
    """The moving reference state sum_n w_n |Psi_n(t)><Psi_n(t)|."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
    return DensityMatrix.from_weights(w, curve.evaluate(t))


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Everything a single protocol run produces.

    weights_out are the coefficients of the final state in the basis at tau,
    survivals the per-index stay probabilities, leakage the nonnegative
    remainder, and trace_distance_to_target the trace-norm distance between
    the final state and the moving reference state at tau.
    """

    rho_final: DensityMatrix
    weights_out: np.ndarray
    survivals: np.ndarray
    leakage: np.ndarray
    trace_distance_to_target: float


def run_measurement(rho: DensityMatrix, hamiltonian, curve: BasisCurve, partition: Partition) -> MeasurementResult:
    """Run the full protocol and cross-check every internal identity.

    Violations surface as InvariantViolation diagnostics naming the failed
    inequality; nothing is returned silently wrong.
    """
    weights = _require_diagonal_in_base(rho, curve)
    weights = np.clip(weights, 0.0, None)
    _check_partition_on_curve(curve, partition)

    mats = _step_matrices(curve, hamiltonian, partition)
    for j, m in enumerate(mats):
        worst = max(
            float(np.max(np.abs(m.sum(axis=0) - 1.0))),
            float(np.max(np.abs(m.sum(axis=1) - 1.0))),
        )
        if worst > DIAGONAL_TOL:
            raise InvariantViolation("step_doubly_stochastic", step=j + 1, worst=worst)

    weights_out = weights.copy()
    for m in mats:
        weights_out = m @ weights_out
    survivals = _survival_all(mats)
    if float(np.max(survivals)) > 1.0 + 1e-12:
        raise InvariantViolation("survival_above_one", worst=float(np.max(survivals)))

    rho_final = evolve_by_channels(rho, hamiltonian, curve, partition)

    final_basis = curve.evaluate(partition.tau)
    c = final_basis.conj().T @ rho_final.matrix @ final_basis
    off_residual = float(np.max(np.abs(c - np.diag(np.diag(c)))))
    if off_residual > DIAGONAL_TOL:
        raise InvariantViolation("final_state_diagonal", residual=off_residual)
    dual_gap = float(np.max(np.abs(np.real(np.diag(c)) - weights_out)))
    if dual_gap > DIAGONAL_TOL:
        raise InvariantViolation("dual_oracle_agreement", gap=dual_gap)

    if abs(float(weights_out.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise InvariantViolation("weights_out_sum", total=float(weights_out.sum()))

    leakage = leakage_residual(weights_out, weights, survivals)

    target = target_state(curve, weights, partition.tau)
    distance = trace_norm(rho_final.matrix - target.matrix)

    coefficient_gap = float(np.sum(np.abs(weights_out - weights)))
    if abs(distance - coefficient_gap) > PROOF_IDENTITY_TOL:
        raise InvariantViolation(
            "trace_distance_equals_weight_gap", distance=distance, weight_gap=coefficient_gap
        )
    bound = 2.0 - 2.0 * float(np.sum(weights * survivals))
    if distance > bound + TRACE_BOUND_TOL:
        raise InvariantViolation("survival_trace_bound", distance=distance, bound=bound)

    weights_out.flags.writeable = False
    survivals.flags.writeable = False
    leakage.flags.writeable = False
    return MeasurementResult(
        rho_final=rho_final,
        weights_out=weights_out,
        survivals=survivals,
        leakage=leakage,
        trace_distance_to_target=distance,
    )
