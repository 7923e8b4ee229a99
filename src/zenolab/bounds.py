"""The paper's explicit bounds and the one table of named checks that
asserts them.

The formulas (leakage and survival estimates, the trace-distance bound,
which lives in measurement because run_measurement asserts it too, the
dominating operator and the entropy condition report) are pure
computations; the four bound formulas take xi, eta, drift and weight as
scalars or as (d,) arrays over the basis index k.
CHECKS is the only place the inequalities are asserted: each row has a
name and a tolerance, and yields one outcome per comparison it makes on a
CheckInputs, reading the weights, partition and frames the run itself
used. Sweeps and the corpus run the whole table; a row whose precondition
does not hold (path enumeration beyond d = 2 and N <= 6, the drift decay
off uniform_partition grids, the witness off generated curves, and the
mesh, Fannes and sigma gates) makes no comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .channels import FAMILY_TOL
from .curves import BasisCurve, GeneratedCurve, drift_sums
from .errors import ValidationError
from .linalg import orthonormality_defect, require_cons
from .measurement import (PROOF_IDENTITY_TOL, TRACE_BOUND_TOL, MeasurementResult, Partition,
                          leakage_by_path_enumeration, trace_distance_bound)
from .states import entr, fannes_bound_at, von_neumann_entropy

MONOTONE_REGION = 1.0 / math.e
SUBADDITIVITY_TOL = 1e-12
DOMINATOR_ENTROPY_TOL = 1e-9
TAIL_MONOTONE_TOL = 1e-12
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
    exponent = -a * ((xi**2 + 2 * xi * eta) * partition.sumsq - 2.0 * drift)
    return np.exp(exponent)


def weight_error_bound(weight, xi, eta, a: float, partition: Partition, drift):
    """weight * (1 - survival lower bound) + leakage upper bound."""
    return weight * (1.0 - survival_lower_bound(xi, eta, a, partition, drift)) + leakage_upper_bound(
        xi, eta, partition
    )


def dominating_operator(weights, xis, etas, frame) -> np.ndarray:
    """sum_k (w_k + xi_k^2 + eta_k^2) |Psi_k><Psi_k| over the columns of frame,
    the curve at tau: the psd majorant of every sufficiently refined posterior state."""
    w = np.asarray(weights, dtype=float)
    diag = w + np.asarray(xis, dtype=float) ** 2 + np.asarray(etas, dtype=float) ** 2
    basis = require_cons(frame)
    return (basis * diag) @ basis.conj().T


@dataclass(frozen=True)
class EntropyConditionReport:
    """Scalar entropy-side sums and the inequalities tying them together.

    All sums run over the first truncation_length indices. The tail block
    applies the monotonicity of the entropy kernel on [0, 1/e]: past
    tail_index every combined value w + xi^2 + eta^2 sits in the monotone
    region, making each marginal tail sum dominated by the combined one.
    tail_index is None when even the last entry is outside the region.
    """

    truncation_length: int
    state_entropy: float
    sum_entr_xi_sq: float
    sum_entr_eta_sq: float
    sum_entr_combined: float
    subadditivity_ok: bool
    dominator_entropy_ok: bool
    tail_index: int | None
    tail_ok: bool | None
    decay_proxy_ok: bool


def entropy_condition_report(weights, xis, etas, truncation_length: int | None = None) -> EntropyConditionReport:
    """Check the summability inequalities that drive entropy convergence."""
    w = np.asarray(weights, dtype=float)
    x2 = np.asarray(xis, dtype=float) ** 2
    e2 = np.asarray(etas, dtype=float) ** 2
    d = w.shape[0]
    kt = d if truncation_length is None else int(truncation_length)
    if not 1 <= kt <= d:
        raise ValidationError(f"truncation length {kt} outside [1, {d}]")
    w, x2, e2 = w[:kt], x2[:kt], e2[:kt]

    s_rho = float(np.sum(entr(w)))
    s_x = float(np.sum(entr(x2)))
    s_e = float(np.sum(entr(e2)))
    combined = w + x2 + e2
    s_c = float(np.sum(entr(combined)))

    subadd = bool(np.all(entr(combined) <= entr(w) + entr(x2) + entr(e2) + SUBADDITIVITY_TOL))
    dominator_ok = s_c <= s_rho + s_x + s_e + DOMINATOR_ENTROPY_TOL

    # Tail index: number of leading entries that must be excluded before the
    # combined values all fall into the monotone region of the kernel.
    inside = combined <= MONOTONE_REGION
    if not inside[-1]:
        tail_index, tail_ok = None, None
    else:
        violations = np.nonzero(~inside)[0]
        tail_index = int(violations[-1]) + 1 if violations.size else 0
        tw, tx, te, tc = (
            float(np.sum(entr(v[tail_index:]))) for v in (w, x2, e2, combined)
        )
        tail_ok = max(tw, tx, te) <= tc + TAIL_MONOTONE_TOL

    # Finite-dimension stand-in for "the constants decay along the index":
    # the sequences are nonincreasing and their last quartile is inside the
    # monotone region. Only scenarios built to satisfy it assert this flag.
    quartile = max(1, kt // 4)
    decay = (
        bool(np.all(np.diff(np.sqrt(x2)) <= 1e-12))
        and bool(np.all(np.diff(np.sqrt(e2)) <= 1e-12))
        and bool(np.all(x2[-quartile:] <= MONOTONE_REGION))
        and bool(np.all(e2[-quartile:] <= MONOTONE_REGION))
    )
    return EntropyConditionReport(
        truncation_length=kt,
        state_entropy=s_rho,
        sum_entr_xi_sq=s_x,
        sum_entr_eta_sq=s_e,
        sum_entr_combined=s_c,
        subadditivity_ok=subadd,
        dominator_entropy_ok=dominator_ok,
        tail_index=tail_index,
        tail_ok=tail_ok,
        decay_proxy_ok=decay,
    )


@dataclass(frozen=True, eq=False)
class CheckInputs:
    """One protocol run as the check table sees it: weights, partition and
    frames are the run's own, read from result. Derived values are computed
    on first use and shared by the rows and the sweep record; constants are
    the values of a that the survival rows try."""

    result: MeasurementResult
    curve: BasisCurve
    hamiltonian: np.ndarray
    xis: np.ndarray
    etas: np.ndarray
    constants: tuple
    seed: int = 0

    @property
    def dim(self) -> int:
        return self.result.weights.shape[0]

    @cached_property
    def drifts(self) -> np.ndarray:
        return drift_sums(self.result.frames)

    @cached_property
    def eps_bounds(self) -> np.ndarray:
        return leakage_upper_bound(self.xis, self.etas, self.result.partition)

    @cached_property
    def gamma_lbs(self) -> dict:
        """Survival lower bounds per index for each constant a, mesh condition or not."""
        p = self.result.partition
        return {a: survival_lower_bound(self.xis, self.etas, a, p, self.drifts) for a in self.constants}

    @cached_property
    def weight_error_bounds(self) -> dict:
        """Weight error bounds per index for each constant a, mesh condition or not."""
        w, xis, etas, p = self.result.weights, self.xis, self.etas, self.result.partition
        return {a: weight_error_bound(w, xis, etas, a, p, self.drifts) for a in self.constants}

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
        spectrum, so S(target) = sum_k entr(w_k), the report's state_entropy."""
        return abs(self.entropy - self.entropy_report.state_entropy)

    @cached_property
    def entropy_report(self) -> EntropyConditionReport:
        return entropy_condition_report(self.result.weights, self.xis, self.etas)


class Check(NamedTuple):
    """A row of the table: compare(inputs, tol) yields one (passed, fields) pair per comparison."""

    name: str
    tol: float
    compare: Callable


def _projection_family(x: CheckInputs, tol: float):
    # The projectors f_k f_k* of a frame F satisfy P_j P_k - delta_jk P_k = f_j (F*F - I)_jk f_k*
    # and sum_k P_k - I = F F* - I, so each identity is off by at most d times the Gram defect.
    defect = float(orthonormality_defect(x.result.frames[-1]))
    yield defect <= tol, {"orthonormality_defect": defect}


# run_measurement already enforces the weight-gap identity and the trace
# bound; the next rows re-derive them so a regression there cannot hide.
def _weight_gap_identity(x: CheckInputs, tol: float):
    distance = x.result.trace_distance_to_target
    gap = float(np.sum(np.abs(x.result.weights_out - x.result.weights)))
    yield abs(distance - gap) <= tol, {"distance": distance, "weight_gap": gap}


def _trace_distance_bound(x: CheckInputs, tol: float):
    distance = x.result.trace_distance_to_target
    yield distance <= x.trace_bound + tol, {"distance": distance, "bound": x.trace_bound}


def _per_index_gap(x: CheckInputs, tol: float):
    distance = x.result.trace_distance_to_target
    worst = float(np.max(np.abs(x.result.weights_out - x.result.weights)))
    yield worst <= distance + tol, {"worst_gap": worst, "distance": distance}


def _weight_split(x: CheckInputs, tol: float):
    r = x.result
    residual = float(np.max(np.abs(r.weights_out - (r.weights * r.survivals + r.leakage))))
    yield residual <= tol, {"residual": residual}


def _leakage_path_enumeration(x: CheckInputs, tol: float):
    r = x.result
    if x.dim == 2 and r.partition.n <= PATH_ORACLE_MAX_STEPS:
        brute = leakage_by_path_enumeration(r.weights, x.curve, x.hamiltonian, r.partition)
        for k in range(x.dim):
            leakage = float(r.leakage[k])
            yield abs(brute[k] - leakage) <= tol, {"k": k + 1, "brute": brute[k], "leakage": leakage}


def _leakage_bound(x: CheckInputs, tol: float):
    for k in range(x.dim):
        leakage, bound = float(x.result.leakage[k]), float(x.eps_bounds[k])
        yield leakage <= bound + tol, {"k": k + 1, "leakage": leakage, "bound": bound}


def _survival_lower_bound(x: CheckInputs, tol: float):
    for k, a in x.gated:
        survival, lower = float(x.result.survivals[k]), float(x.gamma_lbs[a][k])
        yield lower <= survival <= 1.0 + tol, {"k": k + 1, "a": a, "survival": survival, "lower": lower}


def _weight_error_bound(x: CheckInputs, tol: float):
    for k, a in x.gated:
        bound = float(x.weight_error_bounds[a][k])
        error = float(abs(x.result.weights_out[k] - x.result.weights[k]))
        yield error <= bound + tol, {"k": k + 1, "a": a, "error": error, "bound": bound}


def _drift_nonpositive(x: CheckInputs, tol: float):
    worst = float(np.max(x.drifts))
    yield worst <= tol, {"worst": worst}


def _drift_identity(x: CheckInputs, tol: float):
    # Each drift sum equals minus half the summed squared increments.
    half_sq = 0.5 * np.sum(np.abs(np.diff(x.result.frames, axis=0)) ** 2, axis=(0, 1))
    residual = float(np.max(np.abs(x.drifts + half_sq)))
    yield residual <= tol, {"residual": residual}


def _drift_bound(x: CheckInputs, tol: float):
    for k in range(x.dim):
        drift, bound = float(x.drifts[k]), float(0.5 * x.etas[k] ** 2 * x.result.partition.sumsq)
        yield abs(drift) <= bound + tol, {"k": k + 1, "drift": drift, "bound": bound}


def _drift_bound_uniform(x: CheckInputs, tol: float):
    p = x.result.partition
    if p.uniform:
        for k in range(x.dim):
            drift, bound = float(x.drifts[k]), float(x.etas[k]) ** 2 * p.tau**2 / (2 * p.n)
            yield abs(drift) <= bound + tol, {"k": k + 1, "drift": drift, "bound": bound}


def _lipschitz_witness(x: CheckInputs, tol: float):
    if isinstance(x.curve, GeneratedCurve):
        pair_rng = np.random.default_rng(x.seed ^ 0x5EED)
        pairs = np.sort(pair_rng.uniform(0.0, x.curve.tau, size=(8, 2)), axis=1)
        frames = x.curve.frames_at(pairs.ravel()).reshape(8, 2, x.dim, x.dim)
        steps = np.linalg.norm(frames[:, 1] - frames[:, 0], axis=1)
        for (t0, t1), step in zip(pairs.tolist(), steps):
            yield bool(np.all(step <= x.etas * (t1 - t0) + tol)), {"t0": t0, "t1": t1}


def _fannes(x: CheckInputs, tol: float):
    if x.fannes.applicable:
        yield x.entropy_gap <= x.fannes.bound + tol, {"gap": x.entropy_gap, "bound": x.fannes.bound}


def _sigma_domination(x: CheckInputs, tol: float):
    # Domination is promised only once the partition is fine enough.
    r = x.result
    if r.partition.sumsq < 0.5:
        sigma = dominating_operator(r.weights, x.xis, x.etas, r.frames[-1])
        min_eig = float(np.min(np.linalg.eigvalsh(sigma - r.rho_final.matrix)))
        yield min_eig >= -tol, {"min_eig": min_eig}


def _entropy_tail_monotone(x: CheckInputs, tol: float):
    if x.entropy_report.tail_index is not None:
        yield x.entropy_report.tail_ok, {"tail_index": x.entropy_report.tail_index}


# The three entropy-report rows reach entropy_condition_report through its
# module-level tolerances; every other row compares with its own tol.
CHECKS = (
    Check("projection_family", FAMILY_TOL, _projection_family),
    Check("trace_distance_equals_weight_gap", PROOF_IDENTITY_TOL, _weight_gap_identity),
    Check("trace_distance_bound", TRACE_BOUND_TOL, _trace_distance_bound),
    Check("per_index_gap_below_distance", 1e-9, _per_index_gap),
    Check("weight_split_identity", 1e-9, _weight_split),
    Check("leakage_path_enumeration", 1e-10, _leakage_path_enumeration),
    Check("leakage_bound", 1e-9, _leakage_bound),
    Check("survival_lower_bound", 1e-12, _survival_lower_bound),
    Check("weight_error_bound", 1e-9, _weight_error_bound),
    Check("drift_nonpositive", 1e-12, _drift_nonpositive),
    Check("drift_identity", 1e-10, _drift_identity),
    Check("drift_bound", 1e-9, _drift_bound),
    Check("drift_decay_bound_uniform", 1e-9, _drift_bound_uniform),
    Check("lipschitz_witness", 1e-9, _lipschitz_witness),
    Check("fannes_bound", 1e-9, _fannes),
    Check("sigma_domination", 1e-8, _sigma_domination),
    Check("entropy_subadditivity", SUBADDITIVITY_TOL, lambda x, tol: [(x.entropy_report.subadditivity_ok, {})]),
    Check("dominator_entropy", DOMINATOR_ENTROPY_TOL, lambda x, tol: [(x.entropy_report.dominator_entropy_ok, {})]),
    Check("entropy_tail_monotone", TAIL_MONOTONE_TOL, _entropy_tail_monotone),
)


def run_checks(inputs: CheckInputs) -> list[tuple[str, bool, dict]]:
    """(name, passed, fields) for each comparison of every row, in table order."""
    return [(c.name, bool(ok), fields) for c in CHECKS for ok, fields in c.compare(inputs, c.tol)]
