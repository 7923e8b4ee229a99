"""The measurement protocol: alternate unitary evolution with projective
measurement onto a moving basis along a time partition of [0, tau].

Two independent computations of the same coefficients are kept side by
side on purpose. They share only one trajectory per partition, streamed in
blocks of TRANSFER_BLOCK steps: the frames F_j from curve.frames_at at the
block's times and one U_j = e^{-i dt_j H} per step, from one
HermitianEigen.propagator call per block. Each route forms its own
products from a block, keeps its own carry from block to block, and drops
the block, so a run's memory does not grow with N.

  channel route   carry: a dense lab-frame state. With X_j = F_j* U_j, one
                  step is p = Re diag(X_j rho X_j*), then
                  rho = F_j diag(p) F_j*, that is U rho U* dephased in F_j.
                  Up to d = KRON_MAX_DIM the state is v = vec(rho) and the
                  step is two mat-vecs through per-step d x d^2 and
                  d^2 x d matrices built from X_j and F_j (d^3 entries
                  each); above it, five d x d array operations.
  transfer route  carry: the running weights and survivals.
                  T_j = |(F_j* U_j) F_{j-1}|^2, doubly stochastic; each
                  block's product is taken as a pairwise tree of depth
                  ceil(log2 TRANSFER_BLOCK) and applied to the weights.

The transfer matrices, weights and survivals never reach the channel
route, and its state never reaches the transfer route. They must agree to
1e-9. Beside the routes, each block adds to the run's FrameSummary: the
drift sums and half the summed squared increments, which the drift checks
read, and finally the frame at tau.

Inputs are validated once, at the API boundary (state, Hamiltonian,
partition horizon, and the times through frames_at), never per step.
run_measurement then asserts the routes' own invariants at the end of the
run: step matrices doubly stochastic, survivals <= 1, the final state
diagonal in the frame at tau with the transfer weights as its diagonal
(dual_oracle_agreement), weights_out summing to 1 and leakage
nonnegative. The paper's bounds, the trace-distance bound among them, are
checked by the rows of bounds.CHECKS.

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

from .curves import BasisCurve, drift_sums, half_square_sums
from .errors import InvariantViolation, ValidationError
from .linalg import hermitian_eigendecompose, trace_norm
from .states import DensityMatrix

DIAGONAL_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
LEAKAGE_FLOOR = -1e-10
# Steps per trajectory block: caps a run's memory at any N. A block holds a
# few frame stacks of TRANSFER_BLOCK + 1 frames (4.2 MB each at d = 32), plus
# the channel route's 2 d^3 complex entries per step at d <= KRON_MAX_DIM
# (1.8 MB at d = 6).
TRANSFER_BLOCK = 256
# Largest d at which the channel route steps vec(rho) through two per-step
# mat-vecs. Their matrices hold d^3 entries each: at d = 7 and 8 the mat-vecs
# are faster per step, but their 4.2 MB per block at d = 8 raises the corpus
# peak RSS, and from d = 9 on the d x d step is as fast or faster (per-d
# timings in README.md).
KRON_MAX_DIM = 6


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

    Redraws until every gap, endpoints included, is at least tau * 1e-6. At
    large n a uniform draw almost never clears that floor, so after 100
    failed draws the same generator places point i at 2 i tau 1e-6 plus a
    sorted uniform draw over the rest of [0, tau]. Every gap is then at
    least twice the floor before rounding, and rounding costs far less.
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
    spread = max(tau - 2 * n * min_gap, 0.0)
    interior = 2 * min_gap * np.arange(1, n) + np.sort(rng.uniform(0.0, spread, size=n - 1))
    times = np.concatenate(([0.0], interior, [tau]))
    if np.min(np.diff(times)) >= min_gap:
        return Partition(times)
    raise ValidationError(f"could not place {n - 1} distinct interior points in (0, {tau})")


def _trajectory_blocks(curve: BasisCurve, hamiltonian, partition: Partition):
    """What both routes read, the inputs validated once, one block of at most
    TRANSFER_BLOCK steps at a time: yields the (b+1, d, d) frames at the
    block's times and the (b, d, d) step unitaries U_j = e^{-i dt_j H}.

    The frame on a block boundary is carried into the next block, so every
    partition time is evaluated once.
    """
    if abs(partition.tau - curve.tau) > 1e-12 * max(1.0, curve.tau):
        raise ValidationError(f"partition horizon {partition.tau} differs from curve horizon {curve.tau}")
    eig = hermitian_eigendecompose(hamiltonian, name="hamiltonian")
    if eig.dim != curve.dim:
        raise ValidationError(f"hamiltonian dimension {eig.dim} does not match the curve")
    times, steps = partition.times, partition.steps
    frames = curve.frames_at(times[:min(TRANSFER_BLOCK, partition.n) + 1])
    for start in range(0, partition.n, TRANSFER_BLOCK):
        stop = min(start + TRANSFER_BLOCK, partition.n)
        if start:
            frames = np.concatenate((frames[-1:], curve.frames_at(times[start + 1:stop + 1])))
        yield frames, eig.propagator(steps[start:stop])


def _transfer_matrices(frames: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """The transfer route's own step matrices T_j = |F_j* U_j F_{j-1}|^2 over
    a stack of steps, (F_j* U_j) F_{j-1} as two batched products; entry
    (a, b) of T_j is the probability of landing on index a from index b.
    Like the channel route it reads only the frames and the unitaries, and
    it forms its products itself.
    """
    return np.abs((frames[1:].conj().transpose(0, 2, 1) @ unitaries) @ frames[:-1]) ** 2


def _chain(mats: np.ndarray) -> np.ndarray:
    """The product of a stack of step matrices, later steps on the left, as a
    pairwise tree: ceil(log2 n) batched products for n matrices, each
    multiplying every later step onto the step before it."""
    while mats.shape[0] > 1:
        pairs = mats[1::2] @ mats[:-1:2]
        mats = np.concatenate((pairs, mats[-1:])) if mats.shape[0] % 2 else pairs
    return mats[0]


def _transfer_block(carry: tuple, frames: np.ndarray, unitaries: np.ndarray, first_step: int) -> tuple:
    """The transfer route over one block: (weights, survivals) carried in,
    the block's steps applied, step first_step + 1 being the block's first.

    The block's matrices are checked doubly stochastic, multiplied as a
    pairwise tree and applied to the running weights; the survivals take
    the block's stay probabilities, in step order.
    """
    weights, survivals = carry
    mats = _transfer_matrices(frames, unitaries)
    worst = np.max(np.abs(np.concatenate((mats.sum(axis=1), mats.sum(axis=2)), axis=1) - 1.0), axis=1)
    # Fails closed: a NaN entry is never within tolerance.
    bad = ~(worst <= DIAGONAL_TOL)
    j = int(np.argmax(bad))
    if bad[j]:
        raise InvariantViolation("step_doubly_stochastic", step=first_step + j + 1, worst=float(worst[j]))
    # The carried product goes first, so the per-index products run in step order across blocks.
    stays = np.concatenate((survivals[None], np.diagonal(mats, axis1=1, axis2=2)))
    return _chain(mats) @ weights, np.multiply.reduce(stays, axis=0)


def _channel_route(m: np.ndarray, frames: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """The channel route's own composition on the dense lab-frame state m,
    over a stack of steps; the caller symmetrizes the state once at the end.

    One step is U rho U* followed by dephasing in the frame F = F_j. With
    X = F* U, the new state is F diag(p) F* where p_a = (X rho X*)_aa. The
    route forms its own X_j = F_j* U_j, and then the step takes one of two
    forms, chosen by d alone:

    d <= KRON_MAX_DIM  the state is v = vec(rho), row-major. The route
                       builds K_j[a, (k, l)] = X_ak conj(X_al) and
                       G_j[(i, k), a] = F_ia conj(F_ka), each from step j's
                       own data, so a step is the two mat-vecs
                       v = G_j Re(K_j v). The loop applies K_j after G_{j-1}
                       and never forms their product, which would be the
                       transfer matrix T_j.
    larger d           the state stays a matrix: p = Re sum_k (X_j rho)_ak
                       conj(X_j)_ak, then rho = (F_j * p) @ F_j*, five array
                       operations on d x d arrays.

    ndarray.dot rather than @ in the loops: the same products, with less
    call overhead per step. The route reads frames and unitaries only,
    never a transfer matrix or a weight.
    """
    d = m.shape[0]
    f = frames[1:]
    f_adj = np.ascontiguousarray(f.conj().transpose(0, 2, 1))
    x = f_adj @ unitaries
    if d <= KRON_MAX_DIM:
        v = m.reshape(d * d)
        k = (x[:, :, :, None] * x.conj()[:, :, None, :]).reshape(-1, d, d * d)
        g = (f[:, :, None, :] * f.conj()[:, None, :, :]).reshape(-1, d * d, d)
        for k_j, g_j in zip(k, g):
            v = g_j.dot(k_j.dot(v).real)
        return v.reshape(d, d)
    for f_j, f_j_adj, x_j, x_j_conj in zip(f, f_adj, x, x.conj()):
        p = (x_j.dot(m) * x_j_conj).sum(axis=1).real
        m = (f_j * p).dot(f_j_adj)
    return m


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
    mats = np.concatenate([_transfer_matrices(*block) for block in _trajectory_blocks(curve, hamiltonian, partition)])
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


@dataclass(frozen=True, eq=False)
class FrameSummary:
    """What the checks read of a run's frames, gathered block by block:
    the frame at tau, the per-index drift sums and half the per-index
    summed squared increments, each (d,)."""

    final: np.ndarray
    drifts: np.ndarray
    half_square_sums: np.ndarray


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Everything a single protocol run produces.

    weights_out are the coefficients of the final state in the basis at tau,
    survivals the per-index stay probabilities, leakage the nonnegative
    remainder, and trace_distance_to_target the trace-norm distance between
    the final state and the moving reference state at tau. weights (the
    clipped base-frame coefficients both routes start from), frames (the
    FrameSummary of the frames both routes read) and partition are kept for
    the checks.
    """

    rho_final: DensityMatrix
    weights_out: np.ndarray
    survivals: np.ndarray
    leakage: np.ndarray
    trace_distance_to_target: float
    frames: FrameSummary
    weights: np.ndarray
    partition: Partition


def run_measurement(rho: DensityMatrix, hamiltonian, curve: BasisCurve, partition: Partition) -> MeasurementResult:
    """Run the full protocol and cross-check the two routes' invariants.

    One pass over the trajectory's blocks: each block goes to the transfer
    route, the channel route and the frame summary, each with its own carry,
    and is dropped, so memory does not grow with N. Violations surface as
    InvariantViolation diagnostics naming the failed invariant; the paper's
    bounds on the result are the rows of bounds.CHECKS.
    """
    weights = np.clip(_require_diagonal_in_base(rho, curve), 0.0, None)
    transfer = (weights, np.ones_like(weights))
    state = rho.matrix
    # -0.0 is the additive identity, so a one-block run's sums pass through bit for bit.
    drifts = half_sq = -0.0
    first_step = 0
    for frames, unitaries in _trajectory_blocks(curve, hamiltonian, partition):
        transfer = _transfer_block(transfer, frames, unitaries, first_step)
        state = _channel_route(state, frames, unitaries)
        drifts = drifts + drift_sums(frames)
        half_sq = half_sq + half_square_sums(frames)
        first_step += unitaries.shape[0]
    weights_out, survivals = transfer
    if float(np.max(survivals)) > 1.0 + 1e-12:
        raise InvariantViolation("survival_above_one", worst=float(np.max(survivals)))

    rho_final = DensityMatrix((state + state.conj().T) / 2)

    # A copy: a view would keep the whole last block alive with the result.
    final_basis = np.array(frames[-1])
    final_weights, off_residual = _in_basis(rho_final.matrix, final_basis)
    if off_residual > DIAGONAL_TOL:
        raise InvariantViolation("final_state_diagonal", residual=off_residual)
    dual_gap = float(np.max(np.abs(final_weights - weights_out)))
    if dual_gap > DIAGONAL_TOL:
        raise InvariantViolation("dual_oracle_agreement", gap=dual_gap)

    if abs(float(weights_out.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise InvariantViolation("weights_out_sum", total=float(weights_out.sum()))

    leakage = leakage_residual(weights_out, weights, survivals)

    # The target sum_k w_k |F_k><F_k| at tau; the projection_family row checks the frame's Gram defect.
    target = (final_basis * weights) @ final_basis.conj().T
    distance = trace_norm(rho_final.matrix - (target + target.conj().T) / 2)

    for a in (weights_out, survivals, leakage, final_basis, drifts, half_sq, weights):
        a.flags.writeable = False
    return MeasurementResult(
        rho_final=rho_final,
        weights_out=weights_out,
        survivals=survivals,
        leakage=leakage,
        trace_distance_to_target=distance,
        frames=FrameSummary(final_basis, drifts, half_sq),
        weights=weights,
        partition=partition,
    )
