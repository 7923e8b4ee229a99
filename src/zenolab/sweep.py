"""Refinement sweeps over a scenario's partition plan, CSV reporting, and
log-log convergence-rate fitting.

The CSV layout is versioned by a leading "#schema=1" comment line. Columns,
in order: N, mesh, sumsq, trace_distance, trace_bound, entropy,
entropy_gap, then for each basis index k (1-based) the block lambda_k,
gamma_k, eps_k, eps_bound_k, gamma_lb_k, a3_k. Floats are written with 17
significant digits so a parse reproduces the records bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import CheckInputs, run_checks
from .curves import curve_bounds
from .errors import InvariantViolation, ValidationError
from .measurement import run_measurement
from .scenario import Scenario
from .states import fannes_bound_at


# The scalar columns of a record, (SweepRecord field, CSV column), in column order; N comes first.
SCALARS = (("n", "N"), ("mesh", "mesh"), ("sumsq", "sumsq"), ("trace_distance", "trace_distance"),
           ("trace_bound", "trace_bound"), ("entropy", "entropy"), ("entropy_gap", "entropy_gap"))
# The per-index blocks of a record, (SweepRecord field, CSV column stem), in column order.
BLOCKS = (("lambdas", "lambda"), ("gammas", "gamma"), ("eps", "eps"),
          ("eps_bounds", "eps_bound"), ("gamma_lbs", "gamma_lb"), ("a3s", "a3"))


@dataclass(frozen=True)
class SweepRecord:
    """One refinement step of a sweep: scalar diagnostics plus per-index blocks."""

    n: int = 0
    mesh: float = 0.0
    sumsq: float = 0.0
    trace_distance: float = 0.0
    trace_bound: float = 0.0
    entropy: float = 0.0
    entropy_gap: float = 0.0
    fannes_applicable: bool = False
    fannes_bound: float = 0.0
    lambdas: tuple = ()
    gammas: tuple = ()
    eps: tuple = ()
    eps_bounds: tuple = ()
    gamma_lbs: tuple = ()
    a3s: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.lambdas)


def record_column(record: SweepRecord, name: str) -> float:
    """Value of a CSV column on a record; per-index names are 1-based."""
    scalars = {column: field for field, column in SCALARS}
    if name in scalars:
        return float(getattr(record, scalars[name]))
    blocks = {stem: getattr(record, field) for field, stem in BLOCKS}
    stem, _, index = name.rpartition("_")
    if stem in blocks and index.isdigit():
        k = int(index)
        if 1 <= k <= len(blocks[stem]):
            return blocks[stem][k - 1]
    raise ValidationError(f"unknown column {name!r}")


def csv_columns(dim: int) -> list[str]:
    return [column for _, column in SCALARS] + [f"{stem}_{k}" for k in range(1, dim + 1) for _, stem in BLOCKS]


def run_sweep(scenario: Scenario) -> list[SweepRecord]:
    """One record per partition in the plan, ordered by step count.

    Deterministic for a fixed scenario, including any seeded pieces. Every
    row of the check table runs on every partition; the first failing
    comparison raises, labelled with the scenario and N.
    """
    curve, hamiltonian = scenario.curve, scenario.hamiltonian
    xis, etas = curve_bounds(curve, hamiltonian)
    records = []
    for partition in scenario.partitions:
        label = f"{scenario.label} N={partition.n}"
        try:
            result = run_measurement(scenario.weights, hamiltonian, curve, partition)
        except InvariantViolation as exc:
            raise InvariantViolation(exc.name, scenario=label, **exc.details) from exc
        inputs = CheckInputs(result, curve, hamiltonian, xis, etas, constants=(scenario.a,))
        for name, passed, fields in run_checks(inputs):
            if not passed:
                raise InvariantViolation(name, scenario=label, **fields)
        records.append(
            SweepRecord(
                n=partition.n,
                mesh=partition.mesh,
                sumsq=partition.sumsq,
                trace_distance=result.trace_distance_to_target,
                trace_bound=inputs.trace_bound,
                entropy=inputs.entropy,
                entropy_gap=inputs.entropy_gap,
                fannes_applicable=inputs.fannes.applicable,
                fannes_bound=inputs.fannes.bound,
                lambdas=tuple(float(x) for x in result.weights_out),
                gammas=tuple(float(x) for x in result.survivals),
                eps=tuple(float(x) for x in result.leakage),
                eps_bounds=tuple(float(x) for x in inputs.eps_bounds),
                gamma_lbs=tuple(float(x) for x in inputs.gamma_lbs[scenario.a]),
                a3s=tuple(float(x) for x in inputs.drifts),
            )
        )
    return records


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(records: list[SweepRecord], path: str):
    if not records:
        raise ValidationError("no records to write")
    dim = records[0].dim
    if any(len(getattr(rec, field)) != dim for rec in records for field, _ in BLOCKS):
        raise ValidationError(f"every record needs {dim} entries in each per-index block")
    with open(path, "w", newline="") as fh:
        fh.write("#schema=1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_columns(dim))
        for rec in records:
            blocks = [getattr(rec, field) for field, _ in BLOCKS]
            writer.writerow([str(rec.n)] + [_fmt(getattr(rec, field)) for field, _ in SCALARS[1:]]
                            + [_fmt(block[k]) for k in range(dim) for block in blocks])


def _finite(values: dict, column: str) -> float:
    x = float(values[column])
    if not math.isfinite(x):
        raise ValueError(f"{column} = {x} is not finite")
    return x


def _rows(reader, path: str):
    """The rows of a csv reader over path; a csv.Error becomes a ValidationError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path} line {reader.line_num + 1}: {exc}") from exc


def read_csv(path: str) -> list[SweepRecord]:
    """Parse a sweep CSV back into records.

    A file must hold at least one record, every N must be a positive integer
    in the float range and every other field a finite float. The two
    continuity-bound fields are exact functions of trace_distance and the
    dimension, so they are recomputed rather than stored; the result matches
    the in-memory originals bit for bit. A file that is not UTF-8, or that
    csv cannot parse, is a ValidationError naming its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path} line {line}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    with io.StringIO(text, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#schema=1"):
            raise ValidationError(f"{path} does not carry the #schema=1 header")
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        header = next(rows, [])
        per_k = [c for c in header if c.startswith("lambda_")]
        dim = len(per_k)
        if header != csv_columns(dim):
            raise ValidationError(f"{path} columns do not match schema 1 for dim {dim}")
        if dim == 0:
            stems = ", ".join(f"{stem}_k" for _, stem in BLOCKS)
            raise ValidationError(f"{path} has no per-index block: schema 1 needs {stems} for each index k >= 1")
        records = []
        for row in rows:
            where = f"{path} line {reader.line_num + 1}"
            if len(row) != len(header):
                raise ValidationError(f"{where}: {len(row)} fields, the header has {len(header)}")
            values = dict(zip(header, row))
            try:
                n = int(values["N"])
                if not 1 <= n <= sys.float_info.max:
                    raise ValueError(f"N = {n} is not a positive integer in the float range")
                scalars = {field: _finite(values, column) for field, column in SCALARS[1:]}
                fannes = fannes_bound_at(scalars["trace_distance"], dim)
                record = SweepRecord(
                    n=n,
                    **scalars,
                    fannes_applicable=fannes.applicable,
                    fannes_bound=fannes.bound,
                    **{f: tuple(_finite(values, f"{stem}_{k}") for k in range(1, dim + 1)) for f, stem in BLOCKS},
                )
            except ValueError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
            records.append(record)
    if not records:
        raise ValidationError(f"{path} holds no records")
    return records


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (ln N, ln value)."""

    slope: float
    intercept: float
    residual_norm: float
    points: int


def fit_loglog(ns, values) -> RateFit:
    n = np.asarray(ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.shape[0] < 4:
        raise ValidationError(f"need at least 4 records to fit a rate, got {n.shape[0]}")
    if not (np.all((n > 0) & np.isfinite(n)) and np.all((v > 0) & np.isfinite(v))):
        raise ValidationError("rate fitting requires finite, strictly positive N and values")
    if np.all(n == n[0]):
        raise ValidationError(f"need at least 2 distinct N to fit a rate, every record has N = {n[0]:g}")
    x, y = np.log(n), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.linalg.norm(y - (slope * x + intercept)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual_norm=residual, points=n.shape[0])


def fit_rate(records: list[SweepRecord], column: str) -> RateFit:
    """Convergence rate of one column across a sweep, as a log-log slope."""
    return fit_loglog([r.n for r in records], [record_column(r, column) for r in records])
