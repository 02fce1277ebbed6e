"""Metamorphic relations of the exact series at n = 8, where no dense
joint-space oracle is needed: unitary covariance in both forms and both
register modes, and linearity in the observable for the operator form.

Covariance: (W A W^dag, W Delta W^dag, W r) has A's eigenvalues, eigenvectors
W V, the coefficients V^dag r and Delta^eig = V^dag Delta V, so every series
is unchanged (phi -> W phi in the vector form). Linearity: the series of
Delta_1 + 2.5 Delta_2 is the series of Delta_1 plus 2.5 times that of Delta_2.
Both hold to 1e-11 of the series' largest magnitude.
"""

import numpy as np
import pytest

from ethsim import EthConfig, InitialState, QpeConfig, StateVector, WeightSpec, operator_from_matrix, run_operator_form, run_vector_form
from helpers import haar_unitary

N_QUBITS = 8
DIM = 2**N_QUBITS
MODES = ("exact-binning", "circuit")
INVERSE = WeightSpec(kind="inverse")
RTOL = 1e-11

pytestmark = pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")  # 256 levels in 32 bins


def _unit(rng):
    vec = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    return vec / np.linalg.norm(vec)


def _hermitian(rng):
    m = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    return 0.5 * (m + m.conj().T)


RNG = np.random.default_rng([20, N_QUBITS])
V = haar_unitary(RNG, DIM)
A = (V * np.sort(RNG.uniform(1.0, 2.0, DIM))) @ V.conj().T  # spectrum in [1, 2)
DELTA_1, DELTA_2 = _hermitian(RNG), _hermitian(RNG)
R, PHI = _unit(RNG), _unit(RNG)
W = haar_unitary(RNG, DIM)


def _operator(mat):
    return operator_from_matrix(0.5 * (mat + mat.conj().T))


def _eth(r):
    return EthConfig(dt=0.5, num_steps=512, initial_state=InitialState(kind="explicit", amplitudes=tuple(r)))


def _qpe(mode):
    return QpeConfig(m=5, shift=1.0, scale=0.9, mode=mode)


def _series(form, mode, a, observable, r):
    """The exact series of one run: observable is Delta's matrix in the operator form, phi in the vector form."""
    if form == "operator":
        return run_operator_form(_operator(a), _operator(observable), INVERSE, _eth(r), _qpe(mode)).series
    return run_vector_form(_operator(a), StateVector(N_QUBITS, observable), _eth(r), _qpe(mode), INVERSE).series


def _assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.ptp(want) > 1e-3 * scale  # a flat series would make the relation vacuous
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("form", ["operator", "vector"])
def test_unitary_covariance(form, mode):
    observable = DELTA_1 if form == "operator" else PHI
    rotated = W @ observable @ W.conj().T if form == "operator" else W @ observable
    _assert_close(_series(form, mode, W @ A @ W.conj().T, rotated, W @ R), _series(form, mode, A, observable, R))


@pytest.mark.parametrize("mode", MODES)
def test_linearity_in_the_observable(mode):
    combined = _series("operator", mode, A, DELTA_1 + 2.5 * DELTA_2, R)
    _assert_close(combined, _series("operator", mode, A, DELTA_1, R) + 2.5 * _series("operator", mode, A, DELTA_2, R))
