"""The paper's explicit bounds and the one table of named checks that
asserts them.

The formulas (leakage and survival estimates, the weight-error and
trace-distance bounds and the dominating operator) are pure computations;
the leakage and survival formulas take xi, eta and drift as scalars or as
(d,) arrays over the basis index k.
CHECKS is the only place the paper's inequalities are asserted: each row
has a name and a tolerance, and yields one (value, bound) pair per comparison
on a CheckInputs, the run itself with its weights, partition and frames.
Check.outcomes alone judges a pair: it passes when value <= bound + tol at
every entry, so a NaN fails. CheckInputs computes what two readers share once.
check_run, for sweeps and the corpus alike, runs the protocol on a partition
and the whole table on the run; a row whose precondition does not hold
(path enumeration beyond d = 2 and N <= 6, the drift decay off
uniform_partition grids, the witness off generated curves, the entropy
tail when no tail lies in the monotone region of entr, and the mesh,
Fannes and sigma gates) makes no comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .channels import FAMILY_TOL
from .curves import BasisCurve, GeneratedCurve
from .errors import ValidationError
from .linalg import HermitianEigen, orthonormality_defect
from .measurement import MeasurementResult, Partition, leakage_by_path_enumeration, run_measurement
from .scenario import Scenario
from .states import entr, fannes_bound_at, require_weights, von_neumann_entropy

MONOTONE_REGION = 1.0 / math.e
PATH_ORACLE_MAX_STEPS = 6


def leakage_upper_bound(xi, eta, partition: Partition):
    """2 (xi^2 + eta^2) * sum of squared step lengths."""
    if np.any(np.asarray(xi) < 0) or np.any(np.asarray(eta) < 0):
        raise ValidationError("regularity constants must be nonnegative")
    return 2.0 * (xi**2 + eta**2) * partition.sumsq


def mesh_condition(xi, eta, a: float, mesh: float):
    """Small-mesh gate (xi^2 + 2 xi eta) |D|^2 + 2 eta |D| <= ln(a)/a."""
    if not a > 1:
        raise ValidationError(f"constant a must exceed 1, got {a}")
    return (xi**2 + 2 * xi * eta) * mesh**2 + 2 * eta * mesh <= math.log(a) / a


def survival_lower_bound(xi, eta, a: float, partition: Partition, drift):
    """exp(-a [ (xi^2 + 2 xi eta) sum dt^2 - 2 drift ]).

    Valid as a lower bound for the survival probability only under the mesh
    condition; callers record it unconditionally but assert it only then.
    """
    if not a > 1:
        raise ValidationError(f"constant a must exceed 1, got {a}")
    # The bracket is >= 0 (drift <= 0): an a that overflows the exponent to -inf gives the limit 0.
    with np.errstate(over="ignore"):
        exponent = -a * ((xi**2 + 2 * xi * eta) * partition.sumsq - 2.0 * drift)
    return np.exp(exponent)


def weight_error_bound(weight, survival_lb, leakage_ub):
    """weight * (1 - survival lower bound) + leakage upper bound."""
    return weight * (1.0 - survival_lb) + leakage_ub


def trace_distance_bound(weights, survivals) -> float:
    """2 - 2 sum_k weight_k * survival_k, the refinement-driven distance bound;
    the weights are held to states.require_weights."""
    w = require_weights(weights)
    return 2.0 - 2.0 * float(np.sum(w * np.asarray(survivals, dtype=float)))


def dominating_operator(weights, xis, etas, frame) -> np.ndarray:
    """sum_k (w_k + xi_k^2 + eta_k^2) |Psi_k><Psi_k| over the columns of frame, the curve at tau as
    given (projection_family judges it): the psd majorant of every sufficiently refined posterior state."""
    w = np.asarray(weights, dtype=float)
    diag = w + np.asarray(xis, dtype=float) ** 2 + np.asarray(etas, dtype=float) ** 2
    basis = np.asarray(frame, dtype=complex)
    return (basis * diag) @ basis.conj().T


@dataclass(frozen=True, eq=False)
class CheckInputs:
    """One protocol run as the check table sees it, built by check_run: weights,
    partition and frames are the run's own, read from result. Derived values
    are computed on first use, each read by two or more of the rows and the
    sweep record; constants are the values of a the survival rows try."""

    result: MeasurementResult
    curve: BasisCurve
    hamiltonian: HermitianEigen
    xis: np.ndarray
    etas: np.ndarray
    constants: tuple
    seed: int = 0

    @property
    def dim(self) -> int:
        return self.result.weights.shape[0]

    @cached_property
    def eps_bounds(self) -> np.ndarray:
        return leakage_upper_bound(self.xis, self.etas, self.result.partition)

    @cached_property
    def gamma_lbs(self) -> dict:
        """Survival lower bounds per index for each constant a, mesh condition or not."""
        p = self.result.partition
        return {a: survival_lower_bound(self.xis, self.etas, a, p, self.result.drifts) for a in self.constants}

    @cached_property
    def gated(self) -> list:
        """(k, a) pairs whose mesh condition holds, k-major: where the survival bounds are asserted."""
        holds = {a: mesh_condition(self.xis, self.etas, a, self.result.partition.mesh) for a in self.constants}
        return [(k, a) for k in range(self.dim) for a in self.constants if holds[a][k]]

    @cached_property
    def trace_bound(self) -> float:
        return trace_distance_bound(self.result.weights, self.result.survivals)

    @cached_property
    def fannes(self):
        return fannes_bound_at(self.result.trace_distance_to_target, self.dim)

    @cached_property
    def entropy(self) -> float:
        return von_neumann_entropy(self.result.rho_final)

    @cached_property
    def entropy_gap(self) -> float:
        """|S(rho_final) - S(target)|: the target at tau has the weights as its
        spectrum, so S(target) = sum_k entr(w_k)."""
        return abs(self.entropy - float(np.sum(self.entropy_terms[0])))

    @cached_property
    def entropy_terms(self) -> tuple:
        """entr per index of w, xi^2, eta^2 and w + xi^2 + eta^2, the spectrum
        of dominating_operator: the terms the three entropy rows compare."""
        w, x2, e2 = self.result.weights, self.xis**2, self.etas**2
        return tuple(entr(v) for v in (w, x2, e2, w + x2 + e2))


class Check(NamedTuple):
    """A row of the table: compare(inputs) yields (value, bound, fields) per comparison, outcomes judges it."""

    name: str
    tol: float
    compare: Callable

    def outcomes(self, inputs: CheckInputs):
        """(passed, fields) per comparison: passed when value <= bound + tol
        holds at every entry of value, so a NaN in either fails."""
        for value, bound, fields in self.compare(inputs):
            holds = value <= bound + self.tol
            # Only an array needs .all(): np.all on a scalar costs microseconds per comparison.
            yield bool(holds.all() if isinstance(holds, np.ndarray) else holds), fields


def _projection_family(x: CheckInputs):
    # The projectors f_k f_k* of a frame F satisfy P_j P_k - delta_jk P_k = f_j (F*F - I)_jk f_k*
    # and sum_k P_k - I = F F* - I, so each identity is off by at most d times the Gram defect.
    defect = float(orthonormality_defect(x.result.final_frame))
    yield defect, 0.0, {"orthonormality_defect": defect}


def _weight_gap_identity(x: CheckInputs):
    distance = x.result.trace_distance_to_target
    gap = float(np.sum(np.abs(x.result.weights_out - x.result.weights)))
    yield abs(distance - gap), 0.0, {"distance": distance, "weight_gap": gap}


def _trace_distance_bound(x: CheckInputs):
    distance = x.result.trace_distance_to_target
    yield distance, x.trace_bound, {"distance": distance, "bound": x.trace_bound}


def _per_index_gap(x: CheckInputs):
    distance = x.result.trace_distance_to_target
    worst = float(np.max(np.abs(x.result.weights_out - x.result.weights)))
    yield worst, distance, {"worst_gap": worst, "distance": distance}


def _weight_split(x: CheckInputs):
    r = x.result
    residual = float(np.max(np.abs(r.weights_out - (r.weights * r.survivals + r.leakage))))
    yield residual, 0.0, {"residual": residual}


def _leakage_path_enumeration(x: CheckInputs):
    r = x.result
    if x.dim == 2 and r.partition.n <= PATH_ORACLE_MAX_STEPS:
        brute = leakage_by_path_enumeration(r.weights, x.curve, x.hamiltonian, r.partition)
        for k in range(x.dim):
            leakage = float(r.leakage[k])
            yield abs(brute[k] - leakage), 0.0, {"k": k + 1, "brute": brute[k], "leakage": leakage}


def _leakage_bound(x: CheckInputs):
    for k in range(x.dim):
        leakage, bound = float(x.result.leakage[k]), float(x.eps_bounds[k])
        yield leakage, bound, {"k": k + 1, "leakage": leakage, "bound": bound}


def _survival_lower_bound(x: CheckInputs):
    for k, a in x.gated:
        survival, lower = float(x.result.survivals[k]), float(x.gamma_lbs[a][k])
        yield lower, survival, {"k": k + 1, "a": a, "survival": survival, "lower": lower}


def _weight_error_bound(x: CheckInputs):
    for k, a in x.gated:
        bound = float(weight_error_bound(x.result.weights[k], x.gamma_lbs[a][k], x.eps_bounds[k]))
        error = float(abs(x.result.weights_out[k] - x.result.weights[k]))
        yield error, bound, {"k": k + 1, "a": a, "error": error, "bound": bound}


def _drift_nonpositive(x: CheckInputs):
    worst = float(np.max(x.result.drifts))
    yield worst, 0.0, {"worst": worst}


def _drift_identity(x: CheckInputs):
    # Each drift sum equals minus half the summed squared increments.
    residual = float(np.max(np.abs(x.result.drifts + x.result.half_square_sums)))
    yield residual, 0.0, {"residual": residual}


def _drift_bound(x: CheckInputs):
    for k in range(x.dim):
        drift, bound = float(x.result.drifts[k]), float(0.5 * x.etas[k] ** 2 * x.result.partition.sumsq)
        yield abs(drift), bound, {"k": k + 1, "drift": drift, "bound": bound}


def _drift_bound_uniform(x: CheckInputs):
    p = x.result.partition
    if p.uniform:
        for k in range(x.dim):
            drift, bound = float(x.result.drifts[k]), float(x.etas[k]) ** 2 * p.tau**2 / (2 * p.n)
            yield abs(drift), bound, {"k": k + 1, "drift": drift, "bound": bound}


def _lipschitz_witness(x: CheckInputs):
    if isinstance(x.curve, GeneratedCurve):
        pair_rng = np.random.default_rng(x.seed ^ 0x5EED)
        pairs = np.sort(pair_rng.uniform(0.0, x.curve.tau, size=(8, 2)), axis=1)
        frames = x.curve.frames_at(pairs.ravel()).reshape(8, 2, x.dim, x.dim)
        steps = np.linalg.norm(frames[:, 1] - frames[:, 0], axis=1)
        for (t0, t1), step in zip(pairs.tolist(), steps):
            yield step, x.etas * (t1 - t0), {"t0": t0, "t1": t1}


def _fannes(x: CheckInputs):
    if x.fannes.applicable:
        yield x.entropy_gap, x.fannes.bound, {"gap": x.entropy_gap, "bound": x.fannes.bound}


def _sigma_domination(x: CheckInputs):
    # Domination is promised only once the partition is fine enough.
    r = x.result
    if r.partition.sumsq < 0.5:
        sigma = dominating_operator(r.weights, x.xis, x.etas, r.final_frame)
        min_eig = float(np.min(np.linalg.eigvalsh(sigma - r.rho_final.matrix)))
        # Negation is exact: -min_eig <= tol exactly when min_eig >= -tol.
        yield -min_eig, 0.0, {"min_eig": min_eig}


def _entropy_subadditivity(x: CheckInputs):
    # entr(w + xi^2 + eta^2) <= entr(w) + entr(xi^2) + entr(eta^2) at every index k.
    ew, ex, ee, ec = x.entropy_terms
    parts = ew + ex + ee
    k = int(np.argmin(parts - ec))
    yield ec, parts, {"k": k + 1, "slack": float(parts[k] - ec[k])}


def _dominator_entropy(x: CheckInputs):
    s_w, s_xi, s_eta, s_c = (float(np.sum(v)) for v in x.entropy_terms)
    yield s_c, s_w + s_xi + s_eta, {
        "state_entropy": s_w, "sum_entr_xi_sq": s_xi, "sum_entr_eta_sq": s_eta, "sum_entr_combined": s_c}


def _entropy_tail_monotone(x: CheckInputs):
    # Past the last w + xi^2 + eta^2 outside [0, 1/e] every combined value lies where entr increases,
    # so each marginal tail sum is at most the combined one; no tail when the last index lies outside.
    combined = x.result.weights + x.xis**2 + x.etas**2
    outside = np.flatnonzero(~(combined <= MONOTONE_REGION))
    i = int(outside[-1]) + 1 if outside.size else 0
    if i < x.dim:
        tw, txi, teta, tc = (float(np.sum(v[i:])) for v in x.entropy_terms)
        yield max(tw, txi, teta), tc, {
            "tail_index": i, "tail_state": tw, "tail_xi_sq": txi, "tail_eta_sq": teta, "tail_combined": tc}


CHECKS = (
    Check("projection_family", FAMILY_TOL, _projection_family),
    Check("trace_distance_equals_weight_gap", 1e-8, _weight_gap_identity),
    Check("trace_distance_bound", 1e-9, _trace_distance_bound),
    Check("per_index_gap_below_distance", 1e-9, _per_index_gap),
    Check("weight_split_identity", 1e-9, _weight_split),
    Check("leakage_path_enumeration", 1e-10, _leakage_path_enumeration),
    Check("leakage_bound", 1e-9, _leakage_bound),
    Check("survival_lower_bound", 0.0, _survival_lower_bound),
    Check("weight_error_bound", 1e-9, _weight_error_bound),
    Check("drift_nonpositive", 1e-12, _drift_nonpositive),
    Check("drift_identity", 1e-10, _drift_identity),
    Check("drift_bound", 1e-9, _drift_bound),
    Check("drift_decay_bound_uniform", 1e-9, _drift_bound_uniform),
    Check("lipschitz_witness", 1e-9, _lipschitz_witness),
    Check("fannes_bound", 1e-9, _fannes),
    Check("sigma_domination", 1e-8, _sigma_domination),
    Check("entropy_subadditivity", 1e-12, _entropy_subadditivity),
    Check("dominator_entropy", 1e-9, _dominator_entropy),
    Check("entropy_tail_monotone", 1e-12, _entropy_tail_monotone),
)


def check_run(scenario: Scenario, partition: Partition, xis_etas: tuple, constants: tuple,
              seed: int = 0) -> tuple[CheckInputs, list[tuple[str, bool, dict]]]:
    """Run the protocol on one partition of scenario, then the table on the run:
    (inputs, outcomes), with (name, passed, fields) for each comparison of every
    row in table order. xis_etas is the curve_bounds pair; errors propagate."""
    result = run_measurement(scenario.weights, scenario.hamiltonian, scenario.curve, partition)
    inputs = CheckInputs(result, scenario.curve, scenario.hamiltonian, *xis_etas, constants, seed=seed)
    return inputs, [(c.name, passed, fields) for c in CHECKS for passed, fields in c.outcomes(inputs)]
