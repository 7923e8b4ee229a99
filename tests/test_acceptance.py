"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; a bare `pytest` run still enforces everything.

Criteria covered:
  1 dual-oracle equivalence across the 200-scenario seeded corpus (< 60 s)
  2 weight-split identity everywhere, path-enumeration oracle at small scale
  3 leakage bound everywhere, survival bounds under the mesh gate
  4 static qubit refinement: monotone first-order trace-norm convergence (< 10 s)
  5 generated-curve approximation of a target unitary conjugation
  6 exact freezing whenever the Hamiltonian commutes with every projector
  7 entropy convergence, continuity bound, and dominating-operator checks
  8 curve regularity: Lipschitz witness, drift identity, drift decay
  9 byte-identical corpus reports for a fixed seed
"""

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from zenolab.bounds import (
    dominating_operator,
    leakage_upper_bound,
    mesh_condition,
    survival_lower_bound,
    trace_distance_bound,
)
from zenolab.cli import main
from zenolab.corpus import CorpusScenario, build_scenario, scenario_seeds
from zenolab.curves import GeneratedCurve, StaticCurve, curve_bounds, drift_sums
from zenolab.linalg import hermitian_eigendecompose, seeded_cons, trace_norm
from zenolab.measurement import (
    MeasurementResult,
    leakage_by_path_enumeration,
    random_partition,
    run_measurement,
    uniform_partition,
)
from zenolab.scenario import load_scenario
from zenolab.states import DensityMatrix, entr, fannes_bound_at, von_neumann_entropy
from zenolab.sweep import fit_rate, run_sweep

from conftest import state_matrix

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
CORPUS_SEED = 42
CORPUS_SIZE = 200
BOUND_CONSTANTS = (1.5, 2.0, 4.0)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@dataclass(frozen=True)
class CorpusRun:
    scenario: CorpusScenario
    result: MeasurementResult
    evolve_diag: np.ndarray
    offdiag_residual: float
    xis: np.ndarray
    etas: np.ndarray
    drifts: np.ndarray
    half_squared_increments: np.ndarray


def _run_one(scenario: CorpusScenario) -> CorpusRun:
    result = run_measurement(scenario.weights, scenario.hamiltonian, scenario.curve, scenario.partition)
    basis_tau = scenario.curve.frames_at(scenario.tau)[0]
    coords = basis_tau.conj().T @ result.rho_final.matrix @ basis_tau
    offdiag = float(np.max(np.abs(coords - np.diag(np.diag(coords)))))
    xis, etas = curve_bounds(scenario.curve, scenario.hamiltonian)

    dim = scenario.dim
    drifts = drift_sums(scenario.curve.frames_at(scenario.partition.times))
    half_sq = np.zeros(dim)
    times = scenario.partition.times
    for k in range(dim):
        prev = scenario.curve.frames_at(float(times[0]))[0, :, k]
        acc = 0.0
        for t in times[1:]:
            cur = scenario.curve.frames_at(float(t))[0, :, k]
            acc += float(np.linalg.norm(cur - prev) ** 2)
            prev = cur
        half_sq[k] = 0.5 * acc

    return CorpusRun(
        scenario=scenario,
        result=result,
        evolve_diag=np.real(np.diag(coords)),
        offdiag_residual=offdiag,
        xis=xis,
        etas=etas,
        drifts=drifts,
        half_squared_increments=half_sq,
    )


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    runs = [_run_one(build_scenario(seed)) for seed in scenario_seeds(CORPUS_SEED, CORPUS_SIZE)]
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def qubit_sweep():
    scenario = load_scenario(os.path.join(SCENARIOS, "qubit_static.json"))
    start = time.perf_counter()
    records = run_sweep(scenario)
    elapsed = time.perf_counter() - start
    return scenario, records, elapsed


@pytest.fixture(scope="module")
def unitary_sweep():
    scenario = load_scenario(os.path.join(SCENARIOS, "unitary_approx.json"))
    return scenario, run_sweep(scenario)


def test_criterion_1_dual_oracle_equivalence(corpus):
    runs, elapsed = corpus
    with criterion(1, f"dual-oracle equivalence on {len(runs)} scenarios in {elapsed:.1f}s"):
        assert len(runs) == CORPUS_SIZE
        variants = {r.scenario.variant for r in runs}
        assert variants == {"static", "generated", "sampled"}
        dims = {r.scenario.dim for r in runs}
        assert dims == set(range(2, 9))
        assert all(1 <= r.scenario.partition.n <= 64 for r in runs)
        for run in runs:
            assert float(np.max(np.abs(run.result.weights_out - run.evolve_diag))) <= 1e-9
            assert run.offdiag_residual <= 1e-9
        assert elapsed < 60.0


def test_criterion_2_weight_split_identity_and_path_oracle(corpus):
    runs, _ = corpus
    oracle_checked = 0
    with criterion(2, "weight-split identity and path-enumeration oracle"):
        for run in runs:
            s = run.scenario
            recombined = s.weights * run.result.survivals + run.result.leakage
            assert float(np.max(np.abs(run.result.weights_out - recombined))) <= 1e-9
            if s.dim == 2 and s.partition.n <= 6:
                brute = leakage_by_path_enumeration(s.weights, s.curve, s.hamiltonian, s.partition)
                for k in range(s.dim):
                    assert abs(brute[k] - float(run.result.leakage[k])) <= 1e-10
                    oracle_checked += 1
        assert oracle_checked > 0


def test_criterion_3_leakage_and_survival_bounds(corpus):
    runs, _ = corpus
    gated = 0
    with criterion(3, "leakage bound everywhere; survival bounds under the mesh gate"):
        for run in runs:
            s = run.scenario
            for k in range(s.dim):
                cap = leakage_upper_bound(float(run.xis[k]), float(run.etas[k]), s.partition)
                assert float(run.result.leakage[k]) <= cap + 1e-9
                for a in BOUND_CONSTANTS:
                    if not mesh_condition(float(run.xis[k]), float(run.etas[k]), a, s.partition.mesh):
                        continue
                    gated += 1
                    lower = survival_lower_bound(
                        float(run.xis[k]), float(run.etas[k]), a, s.partition, float(run.drifts[k])
                    )
                    assert lower <= float(run.result.survivals[k]) <= 1.0 + 1e-12
        assert gated > 0


def test_criterion_4_static_qubit_first_order_convergence(qubit_sweep):
    scenario, records, elapsed = qubit_sweep
    with criterion(4, f"static qubit refinement in {elapsed:.1f}s"):
        assert [r.n for r in records] == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        distances = [r.trace_distance for r in records]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 2e-3
        slope = fit_rate(records, "trace_distance").slope
        assert -1.15 <= slope <= -0.85
        weights, curve, h = scenario.weights, scenario.curve, scenario.hamiltonian
        for record, partition in zip(records, scenario.partitions):
            result = run_measurement(weights, h, curve, partition)
            weight_gap = float(np.sum(np.abs(result.weights_out - weights)))
            assert abs(result.trace_distance_to_target - weight_gap) <= 1e-8
            assert record.trace_distance <= record.trace_bound + 1e-9
        assert elapsed < 10.0


def test_criterion_5_unitary_channel_approximation(unitary_sweep):
    scenario, records = unitary_sweep
    with criterion(5, "generated curve approximates the target unitary conjugation"):
        target_u = hermitian_eigendecompose(scenario.curve.generator).propagator(scenario.tau)
        weights, curve = scenario.weights, scenario.curve
        conjugated = target_u @ state_matrix(weights, curve.base) @ target_u.conj().T
        final = run_measurement(weights, scenario.hamiltonian, curve, scenario.partitions[-1]).rho_final
        direct = trace_norm(final.matrix - conjugated)
        assert abs(direct - records[-1].trace_distance) <= 1e-9
        assert records[-1].trace_distance <= 5e-3
        slope = fit_rate(records, "trace_distance").slope
        assert -1.2 <= slope <= -0.8
        assert records[-1].trace_distance <= records[0].trace_distance / 100.0


def test_criterion_6_exact_freezing_for_commuting_hamiltonians():
    with criterion(6, "commuting Hamiltonian freezes the state on every partition"):
        cases = []
        # computational basis, diagonal Hamiltonian
        cases.append((np.eye(3, dtype=complex), hermitian_eigendecompose(np.diag([0.3, 1.1, 2.4])), [0.5, 0.3, 0.2]))
        # rotated basis, Hamiltonian diagonal in that same basis
        basis = seeded_cons(4, 77)
        h = hermitian_eigendecompose((basis * np.array([0.2, 0.9, 1.7, 3.0])) @ basis.conj().T)
        cases.append((basis, h, [0.4, 0.3, 0.2, 0.1]))
        for base, hamiltonian, weights in cases:
            curve = StaticCurve(base, 1.0)
            partitions = [uniform_partition(1.0, n) for n in (1, 7, 100)]
            partitions += [random_partition(1.0, n, seed=50 + n) for n in (1, 7, 100)]
            for partition in partitions:
                result = run_measurement(weights, hamiltonian, curve, partition)
                assert result.trace_distance_to_target <= 1e-10
                assert float(np.max(np.abs(result.survivals - 1.0))) <= 1e-10


def test_criterion_7_entropy_convergence_and_domination(qubit_sweep, unitary_sweep):
    q_scenario, q_records, _ = qubit_sweep
    u_scenario, u_records = unitary_sweep
    with criterion(7, "entropy convergence, continuity bound, dominating operator"):
        for scenario, records in ((q_scenario, q_records), (u_scenario, u_records)):
            assert records[-1].entropy_gap <= 5e-3
            weights, h, curve = scenario.weights, scenario.hamiltonian, scenario.curve
            xis, etas = curve_bounds(curve, h)
            s_rho = von_neumann_entropy(DensityMatrix(state_matrix(weights, curve.base)))
            sigma = dominating_operator(weights, xis, etas, curve.frames_at(scenario.tau)[0])
            s_sigma = float(np.sum(entr(np.clip(np.linalg.eigvalsh(sigma), 0.0, None))))
            kernel_sums = float(np.sum(entr(xis**2)) + np.sum(entr(etas**2)))
            assert s_sigma <= s_rho + kernel_sums + 1e-9
            for record, partition in zip(records, scenario.partitions):
                result = run_measurement(weights, h, curve, partition)
                rho_tau = DensityMatrix(state_matrix(weights, curve.frames_at(scenario.tau)[0]))
                fb = fannes_bound_at(trace_norm(result.rho_final.matrix - rho_tau.matrix), rho_tau.dim)
                assert abs(fb.trace_distance - record.trace_distance) <= 1e-9
                if fb.applicable:
                    gap = abs(von_neumann_entropy(result.rho_final) - von_neumann_entropy(rho_tau))
                    assert gap <= fb.bound + 1e-9
                if partition.sumsq < 0.5:
                    slack = float(np.min(np.linalg.eigvalsh(sigma - result.rho_final.matrix)))
                    assert slack >= -1e-8


def test_criterion_8_curve_regularity(corpus):
    runs, _ = corpus
    with criterion(8, "Lipschitz witness, drift identity, drift decay"):
        for run in runs:
            s = run.scenario
            assert float(np.max(np.abs(run.drifts + run.half_squared_increments))) <= 1e-10
            for k in range(s.dim):
                assert abs(float(run.drifts[k])) <= 0.5 * float(run.etas[k]) ** 2 * s.partition.sumsq + 1e-9
                if s.partition_kind == "uniform":
                    cap = float(run.etas[k]) ** 2 * s.tau**2 / (2 * s.partition.n)
                    assert abs(float(run.drifts[k])) <= cap + 1e-9
            if isinstance(s.curve, GeneratedCurve):
                rng = np.random.default_rng(s.seed % (2**32))
                for _ in range(4):
                    t0, t1 = sorted(rng.uniform(0.0, s.tau, size=2))
                    gap = np.linalg.norm(s.curve.frames_at(float(t1))[0] - s.curve.frames_at(float(t0))[0], axis=0)
                    assert bool(np.all(gap <= run.etas * (t1 - t0) + 1e-9))


def test_criterion_9_deterministic_check_reports():
    with criterion(9, "corpus report bytes are reproducible for a fixed seed"):
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                rc = main(["check", "--seed", "42"])
            assert rc == 0
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(f"check seed=42 size={CORPUS_SIZE}")
        assert outputs[0].rstrip().endswith("result: PASS")
