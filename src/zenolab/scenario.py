"""Scenario files: a small JSON schema describing one experiment.

A scenario fixes the dimension, the Hamiltonian, the initial state as an
eigenvalue list over a basis, the basis curve, the horizon tau, a plan of
partitions to sweep, the bound constant a and an optional CSV output path.
Any other top-level field is an error. Keys beginning with an underscore are
ignored everywhere, which is how the shipped example files carry comments.

One reader reads a scenario file and its frames file, and one set of rules
reads every value, so each input error is a ValidationError that names the
field: a spec names exactly one form and only that form's keys, a number is a
finite JSON number of the kind and shape its field needs, and a complex entry
is an [re, im] pair.

load_scenario builds and validates every piece once, the Hamiltonian as a
HermitianEigen, and returns them as a Scenario: a sampled curve's frames file is
read there, relative to the scenario file, and sweeps never re-read a file or
rebuild an operator.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .curves import BasisCurve, GeneratedCurve, SampledCurve, StaticCurve, time_tol
from .errors import ValidationError
from .linalg import HermitianEigen, hermitian_eigendecompose, require_cons, seeded_cons, seeded_hermitian
from .measurement import Partition, random_partition, uniform_partition
from .states import require_weights

PAULI = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The top-level fields a scenario file may set; all but a and output are required.
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


def _read_json(path: str):
    """The JSON document at path, its underscore keys dropped at every nesting level."""
    try:
        fh = open(path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            return json.load(fh, object_hook=lambda obj: {k: v for k, v in obj.items() if not k.startswith("_")})
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _keys(obj, name: str, required: tuple, optional: tuple = ()) -> dict:
    """obj, an object that holds every required key and no other key but the optional ones."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{name} must be an object, got {obj!r:.80}")
    wrong = [f"missing key {k!r}" for k in required if k not in obj]
    wrong += [f"unknown key {k!r}" for k in obj if k not in required + optional]
    if wrong:
        raise ValidationError(f"{name}: {wrong[0]}")
    return obj


def _form(spec, name: str, names: tuple, **forms) -> tuple:
    """(form, params) of a spec: one of the bare names (params None), or an object naming exactly one of
    forms. A form maps to None when its params are a plain value, else to the (required, optional) keys
    of its params object."""
    if isinstance(spec, str) and spec in names:
        return spec, None
    if not (isinstance(spec, dict) and len(spec) == 1 and next(iter(spec)) in forms):
        raise ValidationError(f"{name} must be one of {', '.join(map(repr, [*names, *forms]))}, got {spec!r:.80}")
    form, params = next(iter(spec.items()))
    if forms[form] is not None:
        _keys(params, f"{name}.{form}", *forms[form])
    return form, params


def _numbers(value, name: str, shape: tuple) -> np.ndarray:
    """value as a float array of exactly shape (None: any length), every entry a finite number: a JSON
    int or float, never a string or a boolean, within the float range."""
    entries = np.array(value, dtype=object)  # keeps each entry's JSON type: no string or bool is converted
    if entries.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, entries.shape)):
        want = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
        got = repr(value)[:80] if entries.ndim == 0 else f"shape {entries.shape}"
        raise ValidationError(f"{name} must be numbers of shape {want}, got {got}")
    # An int compares exactly with a float, so one beyond the float range fails; NaN compares False.
    with np.errstate(invalid="ignore"):
        if set(map(type, entries.flat)) <= {int, float} and np.all(np.abs(entries) <= sys.float_info.max):
            return entries.astype(float)
    bad = next(v for v in entries.flat if type(v) not in (int, float) or not abs(v) <= sys.float_info.max)
    raise ValidationError(f"{name} must hold finite numbers only, got {bad!r:.80}")


def _complex(value, name: str, shape: tuple) -> np.ndarray:
    """A complex array of shape from [re, im] pairs; each entry keeps the bits of complex(re, im)."""
    return _numbers(value, name, shape + (2,)).view(complex)[..., 0]


def _real(value, name: str, low: float, strict: bool = False) -> float:
    """value, one finite number (a _numbers of shape ()), as a float >= low, or > low when strict."""
    number = float(_numbers(value, name, ()))
    if not (number > low if strict else number >= low):
        raise ValidationError(f"{name} must be {'>' if strict else '>='} {low:g}, got {value!r}")
    return number


def _count(value, name: str, positive: bool = False) -> int:
    """value, a JSON integer >= 0 (a seed), or >= 1 when positive (a dim or an N)."""
    if type(value) is not int or value < positive:
        raise ValidationError(f"{name} must be a {['nonnegative', 'positive'][positive]} integer, got {value!r:.80}")
    return value


def build_operator(spec, dim: int, name: str = "hamiltonian") -> np.ndarray:
    """Hermitian operator from a named, diagonal, dense, or seeded-random spec."""
    form, params = _form(spec, name, tuple(PAULI), diagonal=None, dense=None, random=(("seed",), ("norm",)))
    if form in PAULI and dim != 2:
        raise ValidationError(f"{name}: {form} requires dimension 2, scenario has {dim}")
    if form in PAULI:
        h = PAULI[form]
    elif form == "diagonal":
        h = np.diag(_numbers(params, f"{name}.diagonal", (dim,))).astype(complex)
    elif form == "dense":
        h = _complex(params, f"{name}.dense", (dim, dim))
    else:
        h = seeded_hermitian(dim, _count(params["seed"], f"{name}.random.seed"))
        if "norm" in params:
            h = h * (_real(params["norm"], f"{name}.random.norm", 0.0) / np.max(np.abs(np.linalg.eigvalsh(h))))
    # Such an entry fails the scale rule anyway (|h_ij| <= |h|), but would first overflow (h + h*)/2.
    largest = float(np.max(np.abs([h.real, h.imag])))
    if largest > sys.float_info.max / 2:
        raise ValidationError(f"{name} has an entry of size {largest:.3e}, beyond half the float range")
    return h


def build_basis(spec, dim: int):
    """The state basis as matrix columns; None for "curve", a sampled curve's first frame."""
    form, params = _form(spec, "state.basis", ("standard", "curve"), dense=None, random=(("seed",), ()))
    if form == "standard":
        return np.eye(dim, dtype=complex)
    if form == "curve":
        return None
    if form == "random":
        return seeded_cons(dim, _count(params["seed"], "state.basis.random.seed"))
    return require_cons(_complex(params, "state.basis.dense", (dim, dim)), name="state.basis")


def build_curve(curve_spec, basis, dim: int, tau: float, base_dir: str = ".") -> BasisCurve:
    """The curve through the built state basis; None (the "curve" spec) takes a sampled curve's first frame."""
    kind, params = _form(curve_spec, "curve", (), static=((), ()), generated=(("generator",), ()),
                         sampled=(("file",), ()))
    if basis is None and kind != "sampled":
        raise ValidationError(f'state.basis "curve" needs a sampled curve, got {kind!r}')
    if kind == "static":
        return StaticCurve(basis, tau)
    if kind == "generated":
        return GeneratedCurve(build_operator(params["generator"], dim, "curve.generated.generator"), basis, tau)
    file = params["file"]
    if not isinstance(file, str):
        raise ValidationError(f"curve.sampled.file must be a path string, got {file!r:.80}")
    data = _keys(_read_json(os.path.join(base_dir, file)), file, ("times", "frames"))
    curve = SampledCurve(_numbers(data["times"], f"{file}: times", (None,)),
                         _complex(data["frames"], f"{file}: frames", (None, dim, dim)))
    if abs(curve.tau - tau) > time_tol(tau):
        raise ValidationError(f"sampled grid ends at {curve.tau}, scenario tau is {tau}")
    if basis is not None and float(np.max(np.abs(basis - curve.base))) > 1e-9:
        raise ValidationError(
            'state basis differs from the sampled curve\'s first frame; use "curve" '
            "as the basis spec or supply a matching basis"
        )
    return curve


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
    form, params = _form(plan, "partitions", (), uniform=None, random=(("n", "seed"), ()))
    name, sizes = ("partitions.uniform", params) if form == "uniform" else ("partitions.random.n", params["n"])
    if not (isinstance(sizes, list) and sizes):
        raise ValidationError(f"{name} must be a non-empty list of partition sizes, got {sizes!r:.80}")
    sizes = [_count(n, f"{name}[{i}]", positive=True) for i, n in enumerate(sizes)]
    _require_steps_fit(sizes)
    if form == "uniform":
        return [uniform_partition(tau, n) for n in sizes]
    seed = _count(params["seed"], "partitions.random.seed")
    return [random_partition(tau, n, seed + i) for i, n in enumerate(sizes)]


def _weights(state, name: str, dim) -> np.ndarray:
    """The state object's eigenvalues, held to a run's weights rule; dim None leaves their length open."""
    _keys(state, name, ("eigenvalues",), ("basis",))
    return require_weights(_numbers(state["eigenvalues"], f"{name}.eigenvalues", (dim,)), f"{name}.eigenvalues")


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file, reporting every top-level problem at once."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    problems = [f"unknown field {key!r}" for key in data if key not in FIELDS]
    problems += [f"missing required field {key!r}" for key in FIELDS[:6] if key not in data]

    def read(key, rule, *args):
        try:
            return rule(data[key], key, *args) if key in data else None
        except ValidationError as exc:
            problems.append(str(exc))

    dim = read("dim", _count, True)
    tau = read("tau", _real, 0.0, True)
    weights = read("state", _weights, dim)
    a = read("a", _real, 1.0, True) if "a" in data else 2.0
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output must be a path string, got {output!r:.80}")
    if problems:
        raise ValidationError("; ".join(problems))

    hamiltonian = hermitian_eigendecompose(build_operator(data["hamiltonian"], dim), name="hamiltonian")
    basis = build_basis(data["state"].get("basis", "standard"), dim)
    curve = build_curve(data["curve"], basis, dim, tau, os.path.dirname(os.path.abspath(path)))
    _require_scale_fits(hamiltonian, curve)
    partitions = tuple(sorted(build_partitions(data["partitions"], tau), key=lambda p: p.n))
    if isinstance(curve, SampledCurve):
        for partition in partitions:
            curve.frames_at(partition.times)
    return Scenario(hamiltonian, weights, curve, partitions, a=a, output=output, label=os.path.basename(path))
