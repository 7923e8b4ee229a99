"""zenolab: numerical verification of repeated projective measurement
protocols on finite-dimensional quantum states.

The package alternates unitary evolution with projective decoherence onto a
moving orthonormal basis over refining time partitions, tracks the induced
doubly stochastic coefficient dynamics, and checks trace-norm convergence,
explicit error bounds, the measurement-freezing (Zeno) limit, and the
conditions under which the von Neumann entropy converges along the way.
"""

from .bounds import (
    dominating_operator,
    leakage_upper_bound,
    mesh_condition,
    survival_lower_bound,
    trace_distance_bound,
    weight_error_bound,
)
from .corpus import CorpusScenario, build_scenario, check_suite, run_battery, scenario_seeds
from .curves import (
    BasisCurve,
    GeneratedCurve,
    SampledCurve,
    StaticCurve,
    curve_bounds,
)
from .errors import InvariantViolation, ValidationError, ZenolabError
from .linalg import (
    HermitianEigen,
    hermitian_eigendecompose,
    seeded_cons,
    seeded_hermitian,
    trace_norm,
)
from .measurement import (
    MeasurementResult,
    Partition,
    leakage_by_path_enumeration,
    random_partition,
    run_measurement,
    uniform_partition,
)
from .scenario import Scenario, load_scenario
from .states import (
    DensityMatrix,
    FannesBound,
    entr,
    von_neumann_entropy,
)
from .sweep import RateFit, SweepRecord, fit_loglog, fit_rate, read_csv, run_sweep, write_csv

__version__ = "0.1.0"
