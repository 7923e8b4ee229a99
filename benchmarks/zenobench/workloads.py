"""The three benchmark workloads: input generation, the timed op, and the
output gate that checks each op's result.

Every input is generated from the workload seed, so one seed always gives
the same inputs. zenolab is looked up through module attributes at call
time (``zenolab.run_sweep``, not a name bound at import), so the tracer's
patches apply to the benchmark's own calls too.

Workloads:

refine_long   d=4 generated curve, uniform plan N = 2, 4, ..., 2048. Nearly
              all time is per step: the channel route, the transfer route
              and curve evaluation. Batched frames would show here.
corpus        run_battery(build_scenario(s)) over the seeded corpus. Fixed
              per-scenario costs dominate: validation, the curve_bounds
              grid, the bound constants, the path-enumeration oracle, the
              drift identity and the entropy reports.
wide_sampled  d=32 sampled curve read from a generated 257-frame JSON file,
              plan N = 8, ..., 256. Few steps, O(d^3) BLAS work per step, and
              the frames file is parsed on every build_curve call. The guard
              for any gain on refine_long that costs large d or memory.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

import zenolab

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reference")
RECORD_TOL = 1e-12
SLOPE_RANGE = (-1.1, -0.9)
SLOPE_MIN_N = 16

REFINE_DIM = 4
REFINE_PLAN = [2**k for k in range(1, 12)]
WIDE_DIM = 32
WIDE_GRID = 257
WIDE_PLAN = [8, 16, 32, 64, 128, 256]
CORPUS_PASS = 200
# The corpus run walks the seed sequence of scenario_seeds(seed, n): its
# first CORPUS_PASS entries are the `zenolab check --seed S` corpus, the rest
# extend it. Distinct scenarios keep the tail a quantile over many scenarios
# rather than the cost of the two heaviest scenarios of one pass repeated.
CORPUS_SCENARIOS = 4000


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _weights(rng: np.random.Generator, dim: int) -> list[float]:
    w = rng.exponential(size=dim)
    return (w / w.sum()).tolist()


def refine_long_inputs(seed: int) -> tuple[dict, dict]:
    """Scenario object (seeded H and generator of norm 1, seeded base basis), no side files."""
    rng = _rng(seed, "refine_long")
    draw = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    return {
        "dim": REFINE_DIM,
        "hamiltonian": {"random": {"seed": draw(), "norm": 1.0}},
        "state": {"eigenvalues": _weights(rng, REFINE_DIM), "basis": {"random": {"seed": draw()}}},
        "curve": {"generated": {"generator": {"random": {"seed": draw(), "norm": 1.0}}}},
        "tau": 1.0,
        "partitions": {"uniform": REFINE_PLAN},
        "a": 2.0,
    }, {}


def wide_sampled_inputs(seed: int) -> tuple[dict, dict]:
    """Scenario object and its frames file for the d=32 sampled curve.

    The frames are e^{-itA} B on a uniform 257-point grid of [0, 1], with A a
    complex Gaussian Hermitian matrix scaled to norm 1 and B the phase-fixed
    QR basis of a complex Gaussian matrix.
    """
    rng = _rng(seed, "wide_sampled")
    d = WIDE_DIM
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (g + g.conj().T) / 2
    values, vectors = np.linalg.eigh(a)
    values = values / np.max(np.abs(values))
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    base = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    times = np.linspace(0.0, 1.0, WIDE_GRID)
    frames = np.stack([(vectors * np.exp(-1j * t * values)) @ vectors.conj().T @ base for t in times])
    frames_obj = {"times": times.tolist(), "frames": np.stack([frames.real, frames.imag], axis=-1).tolist()}
    scenario = {
        "dim": d,
        "hamiltonian": {"random": {"seed": int(rng.integers(0, 2**31)), "norm": 1.0}},
        "state": {"eigenvalues": _weights(rng, d), "basis": "curve"},
        "curve": {"sampled": {"file": "frames.json"}},
        "tau": 1.0,
        "partitions": {"uniform": WIDE_PLAN},
        "a": 2.0,
    }
    return scenario, {"frames.json": frames_obj}


def corpus_inputs(seed: int) -> list[int]:
    return zenolab.scenario_seeds(seed, CORPUS_SCENARIOS)


def load_reference(workload: str, seed: int):
    """Stored reference output for (workload, seed), or None if none is stored."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(str(seed))


def _close(a, b) -> bool:
    if isinstance(a, (bool, int, str)) or isinstance(b, (bool, int, str)):
        return a == b
    return abs(float(a) - float(b)) <= RECORD_TOL


def record_to_json(record) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(record).items()}


def compare_records(records, reference) -> list[str]:
    """Every field of every record within RECORD_TOL of the stored reference."""
    if len(records) != len(reference):
        return [f"reference: {len(records)} records, {len(reference)} stored"]
    problems = []
    for rec, ref in zip(records, reference):
        for name, value in record_to_json(rec).items():
            stored = ref.get(name)
            if isinstance(value, list):
                ok = isinstance(stored, list) and len(stored) == len(value) and all(map(_close, value, stored))
            else:
                ok = stored is not None and _close(value, stored)
            if not ok:
                problems.append(f"reference: N={rec.n} {name} {value!r} != {stored!r}")
    return problems


def check_round_trip(records, parsed) -> list[str]:
    """Every CSV column reads back exactly.

    fannes_applicable and fannes_bound are not CSV columns; read_csv
    recomputes them from trace_distance, so they are held to RECORD_TOL.
    """
    if len(parsed) != len(records):
        return [f"csv round trip: wrote {len(records)} records, read {len(parsed)}"]
    problems = []
    for rec, back in zip(records, parsed):
        for col in zenolab.sweep.csv_columns(rec.dim):
            a, b = zenolab.sweep.record_column(rec, col), zenolab.sweep.record_column(back, col)
            if a != b:
                problems.append(f"csv round trip: N={rec.n} {col} {a!r} != {b!r}")
        if rec.fannes_applicable != back.fannes_applicable or not _close(rec.fannes_bound, back.fannes_bound):
            problems.append(f"csv round trip: N={rec.n} fannes fields differ")
    return problems


def check_slope(records) -> list[str]:
    fine = [r for r in records if r.n >= SLOPE_MIN_N]
    fit = zenolab.fit_loglog([r.n for r in fine], [r.trace_distance for r in fine])
    lo, hi = SLOPE_RANGE
    if not lo <= fit.slope <= hi:
        return [f"trace_distance slope {fit.slope:.4f} outside [{lo}, {hi}] over N >= {SLOPE_MIN_N}"]
    return []


@dataclass
class SweepOutcome:
    records: list
    parsed: list
    fit: object


class SweepWorkload:
    """One op is run_sweep -> write_csv -> read_csv -> fit_rate, the path of
    `zenolab sweep` followed by `zenolab rate`.

    make_inputs(seed) returns the scenario object and the side files it
    names; slope_gate adds the first-order convergence check.
    """

    pass_ops = 1

    def __init__(self, name: str, seed: int, workdir: str, make_inputs, slope_gate: bool):
        self.seed = seed
        self.workdir = workdir
        self.make_inputs = make_inputs
        self.slope_gate = slope_gate
        self.scenario_path = os.path.join(workdir, "scenario.json")
        self.csv_path = os.path.join(workdir, "records.csv")
        self.reference = load_reference(name, seed)
        self.spec: dict = {}
        self.scenario = None

    def sizes(self) -> dict:
        plan = self.spec["partitions"]["uniform"]
        sizes = {"dim": self.spec["dim"], "plan": plan, "steps_per_op": sum(plan)}
        for name in sorted(os.listdir(self.workdir)):
            sizes[f"{name}_bytes"] = os.path.getsize(os.path.join(self.workdir, name))
        return sizes

    def setup(self):
        """Generate the inputs from the seed, write them, and ingest them."""
        self.spec, files = self.make_inputs(self.seed)
        for name, obj in files.items():
            with open(os.path.join(self.workdir, name), "w") as fh:
                fh.write(json.dumps(obj))
        with open(self.scenario_path, "w") as fh:
            json.dump(self.spec, fh)
        self.scenario = zenolab.load_scenario(self.scenario_path)

    def op(self, index: int) -> SweepOutcome:
        records = zenolab.run_sweep(self.scenario)
        zenolab.write_csv(records, self.csv_path)
        parsed = zenolab.read_csv(self.csv_path)
        fit = zenolab.fit_rate(parsed, "trace_distance")
        return SweepOutcome(records, parsed, fit)

    def steps(self, outcome: SweepOutcome) -> int:
        return sum(r.n for r in outcome.records)

    def check(self, index: int, outcome: SweepOutcome) -> list[str]:
        problems = check_round_trip(outcome.records, outcome.parsed)
        if not np.isfinite(outcome.fit.slope):
            problems.append(f"fit_rate slope {outcome.fit.slope!r} is not finite")
        if self.slope_gate:
            problems += check_slope(outcome.records)
        if self.reference is not None:
            problems += compare_records(outcome.records, self.reference)
        return problems

    def reference_data(self, outcomes: list):
        return [record_to_json(r) for r in outcomes[0].records]


def verdict(report) -> list:
    """The per-scenario verdict stored as the corpus reference."""
    return [report.scenario.describe(), report.checks_run, "pass" if report.passed else "FAIL"]


class CorpusWorkload:
    """One op is run_battery(build_scenario(s)) for the next scenario seed."""

    name = "corpus"
    pass_ops = CORPUS_PASS

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.reference = load_reference(self.name, seed)
        self.seeds: list[int] = []

    def sizes(self) -> dict:
        return {"scenarios_per_pass": CORPUS_PASS, "scenario_seeds": CORPUS_SCENARIOS, "dim": [2, 8], "max_steps": 64}

    def setup(self):
        self.seeds = corpus_inputs(self.seed)

    def op(self, index: int):
        return zenolab.run_battery(zenolab.build_scenario(self.seeds[index % len(self.seeds)]))

    def steps(self, report) -> int:
        return report.scenario.partition.n

    def check(self, index: int, report) -> list[str]:
        problems = [f"verdict FAIL {name}: {detail}" for name, detail in report.failures]
        if self.reference is not None and index < len(self.reference):
            if verdict(report) != self.reference[index]:
                problems.append(f"reference: scenario {index} verdict {verdict(report)} != {self.reference[index]}")
        return problems

    def reference_data(self, outcomes: list):
        return [verdict(r) for r in outcomes]


WORKLOADS = {
    "refine_long": functools.partial(SweepWorkload, make_inputs=refine_long_inputs, slope_gate=True),
    "corpus": CorpusWorkload,
    "wide_sampled": functools.partial(SweepWorkload, make_inputs=wide_sampled_inputs, slope_gate=False),
}


def make_workload(name: str, seed: int, workdir: str):
    return WORKLOADS[name](name, seed, workdir)
