"""Metamorphic relations of the exact series at n = 8 in both register modes
and at n = 10 with exact binning, where no dense joint-space oracle is
needed: unitary covariance in both forms, and linearity in the observable for
the operator form.

Covariance: (W A W^dag, W Delta W^dag, W r) has A's eigenvalues, eigenvectors
W V, the coefficients V^dag r and Delta^eig = V^dag Delta V, so every series
is unchanged (phi -> W phi in the vector form). Linearity: the series of
Delta_1 + 2.5 Delta_2 is the series of Delta_1 plus 2.5 times that of Delta_2.
Both hold to 1e-11 of the series' largest magnitude. Each matrix is
eigendecomposed once, and every run on it shares that spectrum.
"""

import functools

import numpy as np
import pytest

from ethsim import EthConfig, InitialState, QpeConfig, StateVector, WeightSpec, eigendecompose, operator_from_matrix, run_operator_form, run_vector_form

# (n, register mode): circuit mode at n = 8 only, so the n = 10 cases stay within a few seconds
CASES = [(8, "exact-binning"), (8, "circuit"), (10, "exact-binning")]
INVERSE = WeightSpec(kind="inverse")
RTOL = 1e-11

pytestmark = pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")  # 2^n levels in 32 bins


def _unit(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def _operator(mat):
    return operator_from_matrix(0.5 * (mat + mat.conj().T))


@functools.cache
def _problem(n_qubits):
    """The spectra of A and W A W^dag, Delta_1, Delta_2, r, phi and W for n
    qubits. A is 1.5 + H / (4.4 sqrt(N)) for a GUE matrix H, whose semicircle
    has radius about 2 sqrt(N), so its spectrum lies in [1, 2), as checked.
    W is A's eigenvector matrix, Haar-distributed as a GUE matrix's is."""
    dim = 2**n_qubits
    rng = np.random.default_rng([20, n_qubits])
    a = 1.5 * np.eye(dim) + _hermitian(rng, dim) / (4.4 * np.sqrt(dim))
    delta_1, delta_2 = _hermitian(rng, dim), _hermitian(rng, dim)
    r, phi = _unit(rng, dim), _unit(rng, dim)
    spec = eigendecompose(_operator(a))
    assert 1.0 <= spec.eigenvalues[0] and spec.eigenvalues[-1] < 2.0
    w = spec.eigenvectors
    return (spec, eigendecompose(_operator(w @ a @ w.conj().T))), delta_1, delta_2, r, phi, w


@pytest.fixture(scope="module", autouse=True)
def _release_problems():
    """Drop the cached problems (about 100 MiB at n = 10) and series once the module is done."""
    yield
    _problem.cache_clear()
    _series.cache_clear()


def _eth(r):
    return EthConfig(dt=0.5, num_steps=512, initial_state=InitialState(kind="explicit", amplitudes=tuple(r)))


def _qpe(mode):
    return QpeConfig(m=5, shift=1.0, scale=0.9, mode=mode)


@functools.cache
def _series(n_qubits, mode, form, observable, rotated=False):
    """The exact series of one run on the n-qubit problem, kept for every
    test that makes the same run. observable names Delta_1, Delta_2 or
    Delta_1 + 2.5 Delta_2 (operator form) or phi (vector form); rotated runs
    on (W A W^dag, W Delta W^dag or W phi, W r)."""
    (spec, rotated_spec), delta_1, delta_2, r, phi, w = _problem(n_qubits)
    if observable == "combined":
        mat = delta_1 + 2.5 * delta_2
    else:
        mat = {"delta_1": delta_1, "delta_2": delta_2, "phi": phi}[observable]
    if rotated:
        spec, r = rotated_spec, w @ r
        mat = w @ mat @ w.conj().T if form == "operator" else w @ mat
    if form == "operator":
        return run_operator_form(spec, _operator(mat), INVERSE, _eth(r), _qpe(mode)).series
    return run_vector_form(spec, StateVector(n_qubits, mat), _eth(r), _qpe(mode), INVERSE).series


def _assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.ptp(want) > 1e-3 * scale  # a flat series would make the relation vacuous
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.mark.parametrize("n_qubits,mode", CASES)
@pytest.mark.parametrize("form,observable", [("operator", "delta_1"), ("vector", "phi")])
def test_unitary_covariance(form, observable, n_qubits, mode):
    _assert_close(_series(n_qubits, mode, form, observable, rotated=True), _series(n_qubits, mode, form, observable))


@pytest.mark.parametrize("n_qubits,mode", CASES)
def test_linearity_in_the_observable(n_qubits, mode):
    parts = _series(n_qubits, mode, "operator", "delta_1") + 2.5 * _series(n_qubits, mode, "operator", "delta_2")
    _assert_close(_series(n_qubits, mode, "operator", "combined"), parts)
