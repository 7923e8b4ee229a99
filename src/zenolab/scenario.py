"""Scenario files: a small JSON schema describing one experiment.

A scenario fixes the dimension, the Hamiltonian, the initial state as an
eigenvalue list over a basis, the basis curve, the horizon tau, a plan of
partitions to sweep, the bound constant a and an optional CSV output path.
Any other top-level field is an error. Keys beginning with an underscore are
ignored everywhere, which is how the shipped example files carry comments.

load_scenario builds and validates every piece once, the Hamiltonian as a
HermitianEigen, and returns them as a Scenario: a sampled curve's frames file is
read there, relative to the scenario file, and sweeps never re-read a file or
rebuild an operator.

Operator literals use [re, im] pairs for complex entries, e.g.
    {"dense": [[[0,0],[1,0]],[[1,0],[0,0]]]}
Named forms: "pauli_x" / "pauli_y" / "pauli_z" (dimension 2 only),
{"diagonal": [..]} and {"random": {"seed": S, "norm": 1.0}} where norm
optionally rescales the matrix to that spectral norm.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .curves import BasisCurve, GeneratedCurve, SampledCurve, StaticCurve
from .errors import SchemaError, ValidationError
from .linalg import (HermitianEigen, hermitian_eigendecompose, operator_norm_hermitian, require_cons, seeded_cons,
                     seeded_hermitian)
from .measurement import Partition, random_partition, uniform_partition
from .states import require_weights

PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The top-level fields a scenario file may set.
FIELDS = ("dim", "tau", "state", "hamiltonian", "curve", "partitions", "a", "output")
# Largest sum of N + 1 over a plan, at any d: a run streams its frames in blocks, so what grows
# with N are float64 arrays of N + 1 entries, and load_scenario holds every partition of the plan at
# once. A Partition keeps two (times, steps), and building one holds at most six (the draws,
# linspace's output, __post_init__'s np.diff temporaries). Eight such arrays in 1 GiB:
# sum of N + 1 <= 2**30 / (8 * 8 bytes) = 2**24, so a single entry may have N up to 2**24 - 1.
MAX_PLAN_TIMES = 2**24
# Largest scale s = max(1, tau) * max(1, max |eigenvalue of H|, max_k eta_k). xi_k <= max |eigenvalue
# of H| and every step is at most tau, so each square or product the bounds form (xi^2, eta^2,
# (xi^2 + 2 xi eta) mesh^2 + 2 eta mesh, 2 (xi^2 + eta^2) sumsq) is at most 5 s^2 for s >= 1.
# float64 is finite below 2**1024: s <= 2**510 keeps 5 s^2 < 2**1023.
MAX_SCALE = 2.0**510


@dataclass(frozen=True, eq=False)
class Scenario:
    """A built and validated experiment: the operators, the state's weights
    over the curve's base, the curve and the partitions (sorted by N) that
    every sweep of it runs on."""

    hamiltonian: HermitianEigen
    weights: np.ndarray
    curve: BasisCurve
    partitions: tuple
    a: float = 2.0
    output: str | None = None
    label: str = "scenario"

    @property
    def dim(self) -> int:
        return self.curve.dim

    @property
    def tau(self) -> float:
        return self.curve.tau


def _without_comments(obj: dict) -> dict:
    """json object_hook: drop the underscore keys, at every nesting level."""
    return {k: v for k, v in obj.items() if not k.startswith("_")}


def build_operator(spec, dim: int) -> np.ndarray:
    """Hermitian operator from a named, diagonal, dense, or seeded-random spec."""
    if isinstance(spec, str):
        if spec not in PAULI:
            raise ValidationError(f"unknown operator name {spec!r}")
        if dim != 2:
            raise ValidationError(f"{spec} requires dimension 2, scenario has {dim}")
        return PAULI[spec]
    if isinstance(spec, dict):
        if "diagonal" in spec:
            values = np.asarray(spec["diagonal"], dtype=float)
            if values.shape[0] != dim:
                raise ValidationError(f"diagonal length {values.shape[0]} != dim {dim}")
            return np.diag(values).astype(complex)
        if "dense" in spec:
            return _dense_matrix(spec["dense"], dim)
        if "random" in spec:
            params = spec["random"]
            h = seeded_hermitian(dim, int(params["seed"]))
            if "norm" in params:
                h = h * (float(params["norm"]) / operator_norm_hermitian(h))
            return h
    raise ValidationError(f"unrecognized operator spec {spec!r}")


def _dense_matrix(entries, dim: int) -> np.ndarray:
    rows = []
    for row in entries:
        rows.append([complex(re, im) for re, im in row])
    m = np.array(rows, dtype=complex)
    if m.shape != (dim, dim):
        raise ValidationError(f"dense matrix shape {m.shape} != ({dim}, {dim})")
    return m


def build_basis(spec, dim: int) -> np.ndarray:
    if spec == "standard":
        return np.eye(dim, dtype=complex)
    if isinstance(spec, dict):
        if "random" in spec:
            return seeded_cons(dim, int(spec["random"]["seed"]))
        if "dense" in spec:
            return require_cons(_dense_matrix(spec["dense"], dim), name="basis")
    raise ValidationError(f"unrecognized basis spec {spec!r}")


def build_curve(curve_spec, basis, dim: int, tau: float, base_dir: str = ".") -> BasisCurve:
    """The curve through the built state basis; None (the "curve" spec) takes a sampled curve's first frame."""
    if not isinstance(curve_spec, dict) or len(curve_spec) != 1:
        raise ValidationError(f"curve spec must be a single-key object, got {curve_spec!r}")
    kind, params = next(iter(curve_spec.items()))
    if basis is None and kind in ("static", "generated"):
        raise ValidationError("unrecognized basis spec 'curve'")
    if kind == "static":
        return StaticCurve(basis, tau)
    if kind == "generated":
        return GeneratedCurve(build_operator(params["generator"], dim), basis, tau)
    if kind == "sampled":
        path = os.path.join(base_dir, params["file"])
        with open(path) as fh:
            data = json.load(fh, object_hook=_without_comments)
        times = np.asarray(data["times"], dtype=float)
        frames = [_dense_matrix(f, dim) for f in data["frames"]]
        curve = SampledCurve(times, frames)
        if abs(curve.tau - tau) > 1e-12 * max(1.0, tau):
            raise ValidationError(f"sampled grid ends at {curve.tau}, scenario tau is {tau}")
        if basis is not None and float(np.max(np.abs(basis - curve.base))) > 1e-9:
            raise ValidationError(
                'state basis differs from the sampled curve\'s first frame; use "curve" '
                "as the basis spec or supply a matching basis"
            )
        return curve
    raise ValidationError(f"unknown curve kind {kind!r}")


def _require_steps_fit(sizes: list[int]) -> None:
    """Reject a plan whose N + 1 sum above MAX_PLAN_TIMES, before any allocation."""
    total = sum(n + 1 for n in sizes)
    if total > MAX_PLAN_TIMES:
        raise ValidationError(f"partitions: the plan's N + 1 sum to {total}, above the cap of {MAX_PLAN_TIMES}")


def _require_scale_fits(hamiltonian: HermitianEigen, curve: BasisCurve) -> None:
    """Reject a horizon and operator scale whose bounds would overflow float64 (MAX_SCALE)."""
    norm = float(np.max(np.abs(hamiltonian.values)))
    # An eta that overflows is inf, which the cap rejects.
    with np.errstate(over="ignore"):
        eta = float(np.max(curve.lipschitz()))
    scale = max(1.0, curve.tau) * max(1.0, norm, eta)
    if not scale <= MAX_SCALE:
        raise ValidationError(
            f"tau, hamiltonian and curve: max(1, tau) * max(1, |H|, eta) = {scale:.3e} exceeds {MAX_SCALE:.3e}, "
            f"beyond which the bounds overflow (tau {curve.tau!r}, |H| {norm:.3e}, eta {eta:.3e})"
        )


def build_partitions(plan, tau: float) -> list[Partition]:
    if isinstance(plan, dict) and "uniform" in plan:
        sizes = [int(n) for n in plan["uniform"]]
        _require_steps_fit(sizes)
        return [uniform_partition(tau, n) for n in sizes]
    if isinstance(plan, dict) and "random" in plan:
        params = plan["random"]
        seed = int(params["seed"])
        sizes = [int(n) for n in params["n"]]
        _require_steps_fit(sizes)
        return [random_partition(tau, n, seed + i) for i, n in enumerate(sizes)]
    raise ValidationError(f"unrecognized partition plan {plan!r}")


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file.

    Every violated field is collected before raising, so one pass over the
    error message shows everything wrong with the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh, object_hook=_without_comments)
    except OSError as exc:
        raise SchemaError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError([f"{path} is not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise SchemaError([f"{path}: top level must be an object"])

    problems = [f"unknown field {key!r}" for key in data if key not in FIELDS]

    def grab(key, default=None, required=False):
        if key not in data:
            if required:
                problems.append(f"missing required field {key!r}")
            return default
        return data[key]

    # A null or boolean dim or tau is present but not a number; bool is an int subclass.
    dim = grab("dim", required=True)
    if "dim" in data and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
        problems.append(f"dim must be a positive integer, got {dim!r}")
        dim = None

    tau = grab("tau", required=True)
    if "tau" in data and (isinstance(tau, bool) or not (isinstance(tau, (int, float)) and tau > 0)):
        problems.append(f"tau must be a positive number, got {tau!r}")
        tau = None

    state = grab("state", required=True)
    weights = None
    basis_spec = "standard"
    if "state" in data:
        if not isinstance(state, dict) or "eigenvalues" not in state:
            problems.append('state must be an object with an "eigenvalues" list')
        else:
            try:
                weights = np.asarray(state["eigenvalues"], dtype=float)
            except (TypeError, ValueError):
                weights = None
            if weights is None or weights.ndim != 1 or weights.size == 0:
                problems.append(f"state.eigenvalues must be a flat number list, got {state['eigenvalues']!r}")
                weights = None
        if weights is not None:
            try:
                weights = require_weights(weights, name="state.eigenvalues")
            except ValidationError as exc:
                problems.append(str(exc))
            if dim is not None and weights.shape[0] != dim:
                problems.append(f"state.eigenvalues has length {weights.shape[0]}, dim is {dim}")
            basis_spec = state.get("basis", "standard")

    hamiltonian_spec = grab("hamiltonian", required=True)
    curve_spec = grab("curve", required=True)
    plan = grab("partitions", required=True)

    a = grab("a", default=2.0)
    if not (isinstance(a, (int, float)) and a > 1):
        problems.append(f"a must be a number greater than 1, got {a!r}")

    output = grab("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output must be a path string, got {output!r}")

    if problems:
        raise SchemaError(problems)

    # Building each piece once surfaces dimension mismatches and invalid
    # operator/curve/partition specs with precise messages; a spec of the
    # wrong shape (a missing key, a non-number) is named by its field.
    field = "hamiltonian"
    try:
        hamiltonian = hermitian_eigendecompose(build_operator(hamiltonian_spec, dim), name="hamiltonian")
        field = "state"
        basis = None if basis_spec == "curve" else build_basis(basis_spec, dim)
        field = "curve"
        curve = build_curve(curve_spec, basis, dim, float(tau), os.path.dirname(os.path.abspath(path)))
        _require_scale_fits(hamiltonian, curve)
        field = "partitions"
        partitions = tuple(sorted(build_partitions(plan, float(tau)), key=lambda p: p.n))
        if isinstance(curve, SampledCurve):
            for partition in partitions:
                curve.frames_at(partition.times)
    except ValidationError as exc:
        raise SchemaError([str(exc)]) from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
        raise SchemaError([f"malformed {field} spec: {detail}"]) from exc
    return Scenario(hamiltonian, weights, curve, partitions, a=float(a), output=output,
                    label=os.path.basename(path))
