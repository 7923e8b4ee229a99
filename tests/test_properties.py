"""Property test: every identity run_measurement asserts, and the weight-gap
identity of the check table, holds on drawn protocols, checked here from
the outside as well.

The examples are derandomized and bounded so the tier-1 run stays fast and
repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolab.bounds import CHECKS
from zenolab.curves import GeneratedCurve
from zenolab.linalg import seeded_cons, seeded_hermitian
from zenolab.measurement import (
    DIAGONAL_TOL,
    LEAKAGE_FLOOR,
    _trajectory_blocks,
    _transfer_matrices,
    random_partition,
    run_measurement,
    uniform_partition,
)
from zenolab.states import DensityMatrix


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(2, 6),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["uniform", "random"]),
)
def test_run_measurement_identities(dim, n, seed, kind):
    rng = np.random.default_rng(seed)
    base = seeded_cons(dim, seed)
    w = rng.exponential(size=dim)
    w /= w.sum()
    rho = DensityMatrix.from_weights(w, base)
    h = seeded_hermitian(dim, seed + 1)
    curve = GeneratedCurve(seeded_hermitian(dim, seed + 2), base, 1.0)
    partition = uniform_partition(1.0, n) if kind == "uniform" else random_partition(1.0, n, seed=seed)

    result = run_measurement(rho, h, curve, partition)

    # Route agreement: the channel route's state, read in the frame at tau,
    # carries the transfer route's weights on its diagonal.
    final_basis = curve.evaluate(1.0)
    by_channels = np.real(np.diag(final_basis.conj().T @ result.rho_final.matrix @ final_basis))
    np.testing.assert_allclose(by_channels, result.weights_out, rtol=0, atol=DIAGONAL_TOL)
    np.testing.assert_allclose(result.weights, w, rtol=0, atol=DIAGONAL_TOL)

    # Weight split: weight_out_k = weight_k * survival_k + leakage_k, leakage
    # clamped at 0 from at most -LEAKAGE_FLOOR below.
    assert np.all(result.survivals <= 1.0 + 1e-12)
    assert np.all(result.leakage >= 0.0)
    np.testing.assert_allclose(w * result.survivals + result.leakage, result.weights_out, rtol=0, atol=-LEAKAGE_FLOOR)

    # The trace distance to the target equals the weight gap.
    gap = float(np.sum(np.abs(result.weights_out - w)))
    tol = next(c.tol for c in CHECKS if c.name == "trace_distance_equals_weight_gap")
    assert abs(result.trace_distance_to_target - gap) <= tol

    # Every step matrix is doubly stochastic.
    for m in np.concatenate([_transfer_matrices(*block) for block in _trajectory_blocks(curve, h, partition)]):
        assert np.all(m >= 0.0)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=DIAGONAL_TOL)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=DIAGONAL_TOL)
