"""Seeded scenario corpus and the invariant battery that runs over it.

A corpus is a list of randomized desk-scale scenarios (dimension 2..8, up
to 64 steps, all three curve variants, uniform and random partitions)
derived deterministically from one master seed, each a scenario.Scenario
with a one-partition plan, so a sweep runs it too. The battery runs the full
protocol on each scenario and checks every identity and bound the package
promises. Reports are plain data with stable text rendering, so two runs
with the same seed produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import CheckInputs, run_checks
from .curves import BasisCurve, GeneratedCurve, SampledCurve, StaticCurve, curve_bounds
from .errors import ZenolabError
from .linalg import hermitian_eigendecompose, seeded_cons, seeded_hermitian
from .measurement import Partition, random_partition, run_measurement, uniform_partition
from .scenario import Scenario

BOUND_CONSTANTS = (1.5, 2.0, 4.0)


@dataclass(frozen=True, eq=False, kw_only=True)
class CorpusScenario(Scenario):
    """A Scenario fully determined by its seed, whose plan holds one partition
    and whose label is its description."""

    seed: int

    @property
    def partition(self) -> Partition:
        return self.partitions[0]

    def describe(self) -> str:
        return self.label


def scenario_seeds(master_seed: int, size: int) -> list[int]:
    """Per-scenario 64-bit seeds derived from the master seed.

    Derivation goes through independent seed sequences keyed by (master, i),
    so one scenario can be rebuilt from its own seed alone for replay.
    """
    return [int(np.random.SeedSequence((master_seed, i)).generate_state(1, np.uint64)[0]) for i in range(size)]


def build_scenario(seed: int) -> CorpusScenario:
    """Deterministically build one randomized scenario from a single seed: a
    one-partition plan, labelled with the draws that describe it."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    steps = int(rng.integers(1, 65))
    variant = ("static", "generated", "sampled")[int(rng.integers(0, 3))]
    partition_kind = ("uniform", "random")[int(rng.integers(0, 2))]
    tau = float(rng.uniform(0.5, 1.5))

    weights = rng.exponential(size=dim)
    if dim > 1 and rng.random() < 0.25:
        # Exercise the zero-weight padding convention.
        weights[int(rng.integers(0, dim))] = 0.0
    weights = weights / weights.sum()

    basis = seeded_cons(dim, int(rng.integers(0, 2**63)))
    hamiltonian = hermitian_eigendecompose(seeded_hermitian(dim, int(rng.integers(0, 2**63))), name="hamiltonian")

    if partition_kind == "uniform":
        partition = uniform_partition(tau, steps)
    else:
        partition = random_partition(tau, steps, int(rng.integers(0, 2**63)))

    if variant == "static":
        curve: BasisCurve = StaticCurve(basis, tau)
    else:
        generator = seeded_hermitian(dim, int(rng.integers(0, 2**63)))
        generated = GeneratedCurve(generator, basis, tau)
        if variant == "generated":
            curve = generated
        else:
            curve = SampledCurve(partition.times, generated.frames_at(partition.times))

    label = f"seed={seed} d={dim} curve={variant} partition={partition_kind} n={partition.n} tau={tau:.6g}"
    return CorpusScenario(hamiltonian, weights, curve, (partition,), label=label, seed=seed)


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of the battery on one scenario: failures are (check, detail)."""

    scenario: CorpusScenario
    checks_run: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.scenario.describe()} : {status} ({self.checks_run} checks)"
        for name, detail in self.failures:
            line += f"\n    {name}: {detail}"
        return line


def run_battery(scenario: CorpusScenario) -> ScenarioReport:
    """Run every row of the check table on one scenario.

    A ZenolabError from running the protocol becomes a structured failure
    entry rather than an exception, so a whole-corpus run always completes.
    """
    s = scenario
    try:
        result = run_measurement(s.weights, s.hamiltonian, s.curve, s.partition)
    except ZenolabError as exc:
        return ScenarioReport(scenario=s, checks_run=1, failures=(("run_measurement", str(exc)),))

    xis, etas = curve_bounds(s.curve, s.hamiltonian)
    inputs = CheckInputs(result, s.curve, s.hamiltonian, xis, etas, BOUND_CONSTANTS, seed=s.seed)
    outcomes = run_checks(inputs)
    failures = tuple(
        (name, " ".join(f"{k}={v!r}" for k, v in fields.items())) for name, passed, fields in outcomes if not passed
    )
    return ScenarioReport(scenario=s, checks_run=len(outcomes), failures=failures)


@dataclass(frozen=True)
class SuiteResult:
    master_seed: int
    reports: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def render(self) -> str:
        lines = [f"check seed={self.master_seed} size={len(self.reports)}"]
        for i, report in enumerate(self.reports):
            lines.append(f"[{i:3d}] {report.render()}")
        failed = sum(0 if r.passed else 1 for r in self.reports)
        lines.append(f"failures: {failed}")
        lines.append(f"result: {'PASS' if failed == 0 else 'FAIL'}")
        return "\n".join(lines) + "\n"


def check_suite(master_seed: int = 42, size: int = 200) -> SuiteResult:
    """Run the battery over the whole seeded corpus."""
    reports = tuple(run_battery(build_scenario(seed)) for seed in scenario_seeds(master_seed, size))
    return SuiteResult(master_seed=master_seed, reports=reports)
