import numpy as np
import pytest

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def pauli_x():
    return PAULI_X.copy()


@pytest.fixture
def pauli_y():
    return PAULI_Y.copy()


@pytest.fixture
def pauli_z():
    return PAULI_Z.copy()


def overlap_is_unit(u, v, tol=1e-9):
    """True when u and v agree up to a global phase."""
    return abs(abs(np.vdot(u, v)) - 1.0) <= tol


@pytest.fixture
def validations(monkeypatch):
    """(names, eighs): the name label of every linalg.require_hermitian call and
    the argument of every np.linalg.eigh call made while the test runs."""
    import zenolab.linalg as linalg

    names, eighs = [], []
    require_hermitian, eigh = linalg.require_hermitian, np.linalg.eigh
    monkeypatch.setattr(linalg, "require_hermitian", lambda m, name="matrix": names.append(name)
                        or require_hermitian(m, name))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m) or eigh(m))
    return names, eighs


def state_matrix(weights, base):
    """sum_k w_k |b_k><b_k| over the columns b_k of base, symmetrized: the
    state a run starts from."""
    m = (base * np.asarray(weights, dtype=float)) @ base.conj().T
    return (m + m.conj().T) / 2
