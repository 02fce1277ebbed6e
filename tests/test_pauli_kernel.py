"""Pauli strings as a bit flip and a sign: PauliTerm.action() against the
Kronecker-product matrices, the operator build and the Trotter sweeps
against their dense-matrix constructions, their traced peaks, and the term
checks that run before any allocation."""

import itertools
import tracemalloc

import numpy as np
import pytest

from ethsim import (
    DomainError,
    EvolutionConfig,
    PauliTerm,
    basis_state,
    evolution_series,
    evolve_trotter,
    from_pauli_terms,
    random_state,
)
from ethsim.core import MAX_QUBITS, StateVector
from helpers import action_matrix, pauli_matrix

# all 84 strings of one to three letters
STRINGS = ["".join(letters) for n in (1, 2, 3) for letters in itertools.product("IXYZ", repeat=n)]


def _seeded_terms(n_qubits: int, seed: int, count: int = 6) -> list:
    """count random strings with normal coefficients, plus an all-Y string so every sum carries Y."""
    rng = np.random.default_rng(seed)
    terms = [PauliTerm(float(rng.normal()), "".join(rng.choice(list("IXYZ"), n_qubits))) for _ in range(count)]
    return terms + [PauliTerm(0.3, "Y" * n_qubits)]


def _dense_sum(n_qubits: int, terms) -> np.ndarray:
    total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in terms:
        total += term.coefficient * pauli_matrix(term.axes)
    return total


def _dense_trotter(terms, state: StateVector, t: float, config: EvolutionConfig) -> np.ndarray:
    """evolve_trotter's product formula with every exponential a dense N x N product."""
    mats = [pauli_matrix(term.axes) for term in terms]
    angles = np.array([term.coefficient for term in terms], dtype=float)
    substeps = max(1, int(np.ceil(t / config.dt - 1e-12))) * config.steps_per_dt
    delta = t / substeps
    if config.method == "trotter1":
        sweep = [(mat, coeff * delta) for mat, coeff in zip(mats, angles)]
    else:
        half = [(mat, coeff * delta / 2.0) for mat, coeff in zip(mats, angles)]
        sweep = half + half[::-1]
    vec = state.amplitudes.copy()
    for _ in range(substeps):
        for mat, angle in sweep:
            vec = np.cos(angle) * vec - 1.0j * np.sin(angle) * (mat @ vec)
    vec /= np.linalg.norm(vec)
    return vec


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("axes", STRINGS)
def test_action_is_the_kronecker_product(axes):
    np.testing.assert_array_equal(action_matrix(PauliTerm(1.0, axes)), pauli_matrix(axes))


@pytest.mark.parametrize("n_qubits", range(1, 8))
def test_operator_build_is_byte_equal_to_the_dense_sum(n_qubits):
    for seed in range(3):
        terms = _seeded_terms(n_qubits, seed)
        built = from_pauli_terms(n_qubits, terms)
        assert built.entries.tobytes() == _dense_sum(n_qubits, terms).tobytes()
        assert built.hermitian


@pytest.mark.parametrize("n_qubits", range(1, 8))
@pytest.mark.parametrize("method", ["trotter1", "trotter2"])
def test_trotter_states_are_byte_equal_to_dense_products(n_qubits, method):
    terms = _seeded_terms(n_qubits, seed=n_qubits)
    psi = random_state(n_qubits, seed=n_qubits)
    config = EvolutionConfig(method=method, dt=0.2, steps_per_dt=2)
    out, tallied = evolve_trotter(terms, psi, 0.7, config)
    assert out.amplitudes.tobytes() == _dense_trotter(terms, psi, 0.7, config).tobytes()
    assert tallied.cost_counter == (1 if method == "trotter1" else 2) * len(terms) * 4 * 2

    states, _ = evolution_series(terms, psi, 0.3, 3, config)
    state, step_config = psi, EvolutionConfig(method=method, dt=0.3, steps_per_dt=2)
    for step in states:
        state = StateVector(n_qubits, _dense_trotter(terms, state, 0.3, step_config))
        assert step.amplitudes.tobytes() == state.amplitudes.tobytes()


class TestTracedPeak:
    """At n = 10 one N x N complex array is 16 MiB."""

    N_QUBITS = 10

    def test_build_holds_one_matrix(self):
        dim = 2**self.N_QUBITS
        terms = _seeded_terms(self.N_QUBITS, seed=1, count=30)
        # the sum itself and the Hermitian scan's row blocks; no per-term N x N array, no copy
        assert _traced_peak(lambda: from_pauli_terms(self.N_QUBITS, terms)) <= 1.5 * 16 * dim**2

    @pytest.mark.parametrize("method", ["trotter1", "trotter2"])
    def test_trotter_holds_vectors_per_term(self, method):
        dim = 2**self.N_QUBITS
        terms = _seeded_terms(self.N_QUBITS, seed=2, count=19)
        psi = random_state(self.N_QUBITS, seed=2)
        config = EvolutionConfig(method=method, dt=0.05)
        # one index and one phase vector per term, and a few transient N-vectors
        peak = _traced_peak(lambda: evolve_trotter(terms, psi, 0.1, config))
        assert peak <= 16 * dim * (2 * len(terms) + 8)


class TestTermChecks:
    def test_a_later_term_of_another_length_is_a_domain_error(self):
        terms = [PauliTerm(1.0, "Z"), PauliTerm(0.5, "XZ")]
        with pytest.raises(DomainError, match="'XZ' has length 2, expected 1"):
            evolve_trotter(terms, basis_state(1, 0), 0.5, EvolutionConfig(method="trotter1"))
        with pytest.raises(DomainError, match="'XZ' has length 2, expected 1"):
            evolve_trotter(terms, basis_state(1, 0), 0.0, EvolutionConfig(method="trotter2"))

    def test_a_string_longer_than_the_cap_is_a_domain_error(self):
        PauliTerm(1.0, "Z" * MAX_QUBITS)
        with pytest.raises(DomainError, match=f"exceeds the dense-simulation cap of {MAX_QUBITS}"):
            PauliTerm(1.0, "Z" * (MAX_QUBITS + 1))
        # a 16-letter term on a 1-qubit state fails before any 2^16 x 2^16 array
        with pytest.raises(DomainError):
            evolve_trotter([PauliTerm(1.0, "Z" * 16)], basis_state(1, 0), 0.5, EvolutionConfig(method="trotter1"))

    def test_axes_outside_the_alphabet_are_a_domain_error(self):
        for axes in ("", "ZA", "zz"):
            with pytest.raises(DomainError, match="drawn from I,X,Y,Z"):
                PauliTerm(1.0, axes)
