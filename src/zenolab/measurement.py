"""The measurement protocol: alternate unitary evolution with projective
measurement onto a moving basis along a time partition of [0, tau].

Two independent computations of the same coefficients are kept side by
side on purpose. They share only one trajectory per partition: the frame
stack F_0..F_N from curve.frames_at and the stack U_1..U_N of one
U_j = e^{-i dt_j H} per step, from one HermitianEigen.propagator call. Each
route forms its own products from these, in blocks of TRANSFER_BLOCK steps.

  channel route   a dense lab-frame state. With X_j = F_j* U_j, one step is
                  p_a = Re sum_k (X_j rho)_ak conj(X_j)_ak, then
                  rho = F_j diag(p) F_j*, that is U rho U* dephased in F_j.
  transfer route  T_j = |(F_j* U_j) F_{j-1}|^2, doubly stochastic;
                  weights_out = (T_N ... T_1) weights, the product taken as
                  a pairwise tree of depth ceil(log2 N).

The transfer matrices, weights_out and survivals never reach the channel
route, and its state never reaches the transfer route. They must agree to
1e-9.

Inputs are validated once, at the API boundary (state, Hamiltonian,
partition horizon, and the times through frames_at), never per step.
run_measurement then asserts at the end of the run: step matrices doubly
stochastic, survivals <= 1, the final state diagonal in the frame at tau
with the transfer weights as its diagonal (dual_oracle_agreement),
weights_out summing to 1, leakage nonnegative, the trace distance equal to
the weight gap and within trace_distance_bound.

Per index k the result splits as

    weight_out_k = weight_k * survival_k + leakage_k

where survival_k is the product of per-step stay probabilities and
leakage_k collects every path that ever left index k. Leakage is computed
as the residual of that identity; the explicit path enumeration is kept
only as a small-scale oracle since it grows like d^N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import BasisCurve
from .errors import InvariantViolation, ValidationError
from .linalg import hermitian_eigendecompose, require_hermitian, trace_norm
from .states import DensityMatrix

DIAGONAL_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
LEAKAGE_FLOOR = -1e-10
PROOF_IDENTITY_TOL = 1e-8
TRACE_BOUND_TOL = 1e-9
# Steps per gathered block in either route: caps the temporaries at a few frames' worth at any N.
TRANSFER_BLOCK = 256


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered time grid 0 = t_0 < ... < t_N = tau. uniform, set only by
    uniform_partition, requires every step within 2 eps tau of tau/N."""

    times: np.ndarray
    uniform: bool = False

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValidationError("a partition needs at least two times")
        if not np.all(np.isfinite(t)):
            raise ValidationError(f"partition time {float(t[~np.isfinite(t)][0])} is not finite")
        if abs(t[0]) > 0:
            raise ValidationError("partition must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("partition times must be strictly ascending")
        if self.uniform and np.max(np.abs(np.diff(t) - t[-1] / (t.shape[0] - 1))) > 2 * np.finfo(float).eps * t[-1]:
            raise ValidationError("partition marked uniform has unequal steps")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        return self.times.shape[0] - 1

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @cached_property
    def steps(self) -> np.ndarray:
        steps = np.diff(self.times)
        steps.flags.writeable = False
        return steps

    @cached_property
    def mesh(self) -> float:
        return float(np.max(self.steps))

    @cached_property
    def sumsq(self) -> float:
        return float(np.sum(self.steps**2))


def uniform_partition(tau: float, n: int) -> Partition:
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not tau > 0:
        raise ValidationError("tau must be positive")
    return Partition(np.linspace(0.0, float(tau), n + 1), uniform=True)


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


def _trajectory(curve: BasisCurve, hamiltonian, times) -> tuple:
    """What both routes read, the inputs validated once: the (N+1, d, d) frame
    stack and the (N, d, d) stack of step unitaries U_j = e^{-i dt_j H}."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    if h.shape[0] != curve.dim:
        raise ValidationError(f"hamiltonian dimension {h.shape[0]} does not match the curve")
    return curve.frames_at(times), hermitian_eigendecompose(h).propagator(np.diff(times))


def _partition_trajectory(curve: BasisCurve, hamiltonian, partition: Partition) -> tuple:
    if abs(partition.tau - curve.tau) > 1e-12 * max(1.0, curve.tau):
        raise ValidationError(f"partition horizon {partition.tau} differs from curve horizon {curve.tau}")
    return _trajectory(curve, hamiltonian, partition.times)


def _transfer_matrices(frames: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """The transfer route's own step matrices T_j = |F_j* U_j F_{j-1}|^2.

    Each block of TRANSFER_BLOCK steps forms (F_j* U_j) F_{j-1} as two
    batched products; entry (a, b) of T_j is the probability of landing on
    index a from index b. Like the channel route it reads only the frames
    and the unitaries, and it forms its products itself.
    """
    n = unitaries.shape[0]
    out = np.empty((n,) + frames.shape[1:])
    for start in range(0, n, TRANSFER_BLOCK):
        stop = min(start + TRANSFER_BLOCK, n)
        f_adj = frames[start + 1:stop + 1].conj().transpose(0, 2, 1)
        out[start:stop] = np.abs((f_adj @ unitaries[start:stop]) @ frames[start:stop]) ** 2
    return out


def _chain(mats: np.ndarray) -> np.ndarray:
    """T_N ... T_1 as a pairwise product tree: ceil(log2 N) batched products,
    each multiplying every later step onto the step before it."""
    while mats.shape[0] > 1:
        pairs = mats[1::2] @ mats[:-1:2]
        mats = np.concatenate((pairs, mats[-1:])) if mats.shape[0] % 2 else pairs
    return mats[0]


def _survivals(mats: np.ndarray) -> np.ndarray:
    """Per-index product of the stay probabilities, the steps taken in order."""
    return np.multiply.reduce(np.diagonal(mats, axis1=1, axis2=2), axis=0)


def _channel_route(m: np.ndarray, frames: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """The channel route's own composition on the dense lab-frame state.

    One step is U rho U* followed by dephasing in the frame F = F_j. With
    X = F* U, the new state is F diag(p) F* where p_a = (X rho X*)_aa =
    Re sum_k (X rho)_ak conj(X)_ak. Each block of TRANSFER_BLOCK steps
    forms its own X_j = F_j* U_j and contiguous F_j*, so a step is five
    array operations. One (rho + rho*)/2 at the end restores exact
    Hermitian symmetry. The route reads frames and unitaries only, never a
    transfer matrix or a weight.
    """
    n = unitaries.shape[0]
    for start in range(0, n, TRANSFER_BLOCK):
        stop = min(start + TRANSFER_BLOCK, n)
        f = frames[start + 1:stop + 1]
        f_adj = np.ascontiguousarray(f.conj().transpose(0, 2, 1))
        x = f_adj @ unitaries[start:stop]
        for f_j, f_j_adj, x_j, x_j_conj in zip(f, f_adj, x, x.conj()):
            p = ((x_j @ m) * x_j_conj).sum(axis=1).real
            m = (f_j * p) @ f_j_adj
    return (m + m.conj().T) / 2


def step_transition_matrix(curve: BasisCurve, hamiltonian, t_prev: float, t_next: float) -> np.ndarray:
    """Doubly stochastic matrix of one evolve-then-measure step.

    Entry (a, b) is the probability |<Psi_a(t_next), e^{-i dt H} Psi_b(t_prev)>|^2
    of landing on index a when starting from index b.
    """
    if not t_next > t_prev:
        raise ValidationError("step requires t_prev < t_next")
    return _transfer_matrices(*_trajectory(curve, hamiltonian, [t_prev, t_next]))[0]


def propagate_weights(weights, curve: BasisCurve, hamiltonian, partition: Partition) -> np.ndarray:
    """Push the weight vector through the chain of step matrices."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
    return _transfer_route(w, *_partition_trajectory(curve, hamiltonian, partition))[0]


def survival_probability(curve: BasisCurve, hamiltonian, partition: Partition, k: int) -> float:
    """Product over steps of the stay probability of index k."""
    return float(_survivals(_transfer_matrices(*_partition_trajectory(curve, hamiltonian, partition)))[k])


def evolve_by_channels(rho: DensityMatrix, hamiltonian, curve: BasisCurve, partition: Partition) -> DensityMatrix:
    """Posterior state after alternating evolution and measurement.

    The state must be diagonal in the curve's base basis; the protocol is
    tied to that choice of decomposition, so a degenerate state needs the
    caller to fix the basis explicitly.
    """
    _require_diagonal_in_base(rho, curve)
    return DensityMatrix(_channel_route(rho.matrix, *_partition_trajectory(curve, hamiltonian, partition)))


def _in_basis(matrix: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Real diagonal and largest off-diagonal modulus of basis* matrix basis."""
    c = basis.conj().T @ matrix @ basis
    return np.real(np.diag(c)), float(np.max(np.abs(c - np.diag(np.diag(c)))))


def _require_diagonal_in_base(rho: DensityMatrix, curve: BasisCurve) -> np.ndarray:
    if rho.dim != curve.dim:
        raise ValidationError("state dimension does not match the curve")
    weights, worst = _in_basis(rho.matrix, curve.base)
    if worst > DIAGONAL_TOL:
        raise ValidationError(
            f"state is not diagonal in the curve's base basis (residual {worst:.3e}); "
            "the decomposition must be fixed to the curve"
        )
    return weights


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


def leakage_by_path_enumeration(weights, curve: BasisCurve, hamiltonian, partition: Partition) -> np.ndarray:
    """Brute-force leakage (d,): entry k sums every index path that ends on k
    and leaves k at least once before. One pass over the d^(N+1) paths;
    meant as an oracle for d = 2, N <= 6 scale only."""
    w = np.asarray(weights, dtype=float)
    d = w.shape[0]
    mats = _transfer_matrices(*_partition_trajectory(curve, hamiltonian, partition))
    n = len(mats)
    totals = np.zeros(d)
    for indices in itertools.product(range(d), repeat=n + 1):
        k = indices[-1]
        if all(i == k for i in indices):
            continue
        weight = w[indices[0]]
        for j in range(n):
            weight *= mats[j][indices[j + 1], indices[j]]
        totals[k] += weight
    return totals


def target_state(curve: BasisCurve, weights, t: float) -> DensityMatrix:
    """The moving reference state sum_n w_n |Psi_n(t)><Psi_n(t)|."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
    return DensityMatrix.from_weights(w, curve.evaluate(t))


def trace_distance_bound(weights, survivals) -> float:
    """2 - 2 sum_k weight_k * survival_k, the refinement-driven distance bound."""
    w = np.asarray(weights, dtype=float)
    if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")
    return 2.0 - 2.0 * float(np.sum(w * np.asarray(survivals, dtype=float)))


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Everything a single protocol run produces.

    weights_out are the coefficients of the final state in the basis at tau,
    survivals the per-index stay probabilities, leakage the nonnegative
    remainder, and trace_distance_to_target the trace-norm distance between
    the final state and the moving reference state at tau. weights (the
    clipped base-frame coefficients both routes start from), frames (the
    (N+1, d, d) stack both routes read) and partition are kept for the checks.
    """

    rho_final: DensityMatrix
    weights_out: np.ndarray
    survivals: np.ndarray
    leakage: np.ndarray
    trace_distance_to_target: float
    frames: np.ndarray
    weights: np.ndarray
    partition: Partition


def _transfer_route(weights: np.ndarray, frames, unitaries) -> tuple[np.ndarray, np.ndarray]:
    """weights_out and survivals; the transfer stack is dropped on return."""
    mats = _transfer_matrices(frames, unitaries)
    worst = np.max(np.abs(np.concatenate((mats.sum(axis=1), mats.sum(axis=2)), axis=1) - 1.0), axis=1)
    # Fails closed: a NaN entry is never within tolerance.
    bad = ~(worst <= DIAGONAL_TOL)
    j = int(np.argmax(bad))
    if bad[j]:
        raise InvariantViolation("step_doubly_stochastic", step=j + 1, worst=float(worst[j]))
    return _chain(mats) @ weights, _survivals(mats)


def run_measurement(rho: DensityMatrix, hamiltonian, curve: BasisCurve, partition: Partition) -> MeasurementResult:
    """Run the full protocol and cross-check every internal identity.

    Violations surface as InvariantViolation diagnostics naming the failed
    inequality; nothing is returned silently wrong.
    """
    weights = np.clip(_require_diagonal_in_base(rho, curve), 0.0, None)
    frames, unitaries = _partition_trajectory(curve, hamiltonian, partition)

    weights_out, survivals = _transfer_route(weights, frames, unitaries)
    if float(np.max(survivals)) > 1.0 + 1e-12:
        raise InvariantViolation("survival_above_one", worst=float(np.max(survivals)))

    rho_final = DensityMatrix(_channel_route(rho.matrix, frames, unitaries))

    final_basis = frames[-1]
    final_weights, off_residual = _in_basis(rho_final.matrix, final_basis)
    if off_residual > DIAGONAL_TOL:
        raise InvariantViolation("final_state_diagonal", residual=off_residual)
    dual_gap = float(np.max(np.abs(final_weights - weights_out)))
    if dual_gap > DIAGONAL_TOL:
        raise InvariantViolation("dual_oracle_agreement", gap=dual_gap)

    if abs(float(weights_out.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise InvariantViolation("weights_out_sum", total=float(weights_out.sum()))

    leakage = leakage_residual(weights_out, weights, survivals)

    target = DensityMatrix.from_weights(weights, final_basis)
    distance = trace_norm(rho_final.matrix - target.matrix)

    coefficient_gap = float(np.sum(np.abs(weights_out - weights)))
    if abs(distance - coefficient_gap) > PROOF_IDENTITY_TOL:
        raise InvariantViolation(
            "trace_distance_equals_weight_gap", distance=distance, weight_gap=coefficient_gap
        )
    bound = trace_distance_bound(weights, survivals)
    if distance > bound + TRACE_BOUND_TOL:
        raise InvariantViolation("trace_distance_bound", distance=distance, bound=bound)

    for a in (weights_out, survivals, leakage, frames, weights):
        a.flags.writeable = False
    return MeasurementResult(
        rho_final=rho_final,
        weights_out=weights_out,
        survivals=survivals,
        leakage=leakage,
        trace_distance_to_target=distance,
        frames=frames,
        weights=weights,
        partition=partition,
    )
