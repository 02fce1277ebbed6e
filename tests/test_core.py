"""States, operators, and Pauli-term construction."""

import math

import numpy as np
import pytest

from ethsim import (
    DenseOperator,
    DomainError,
    PauliTerm,
    StateVector,
    all_ones_delta,
    basis_state,
    commutator_norm,
    derivative_mask,
    from_pauli_terms,
    identity_operator,
    inner_product,
    operator_from_matrix,
    projector_from_state,
    qft_matrix,
    random_state,
    uniform_superposition,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_dimension_must_match_qubit_count(self):
        with pytest.raises(DomainError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amplitudes_frozen(self):
        s = basis_state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_basis_and_uniform(self):
        assert basis_state(2, 3).amplitudes[3] == 1.0
        u = uniform_superposition(2)
        np.testing.assert_allclose(u.amplitudes, 0.5 * np.ones(4))

    def test_inner_product_conjugates_left(self):
        a = StateVector(1, np.array([1.0, 1.0j]) / math.sqrt(2))
        b = basis_state(1, 1)
        assert inner_product(a, b) == pytest.approx(-1.0j / math.sqrt(2))


class TestRandomStates:
    def test_haar_reproducible_and_normalized(self):
        a = random_state(3, seed=5)
        b = random_state(3, seed=5)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_seeds_differ(self):
        a = random_state(3, seed=5)
        b = random_state(3, seed=6)
        assert np.abs(a.amplitudes - b.amplitudes).max() > 1e-3

    def test_phase_product_has_flat_magnitudes(self):
        s = random_state(4, seed=9, ensemble="phase-product")
        np.testing.assert_allclose(np.abs(s.amplitudes), 0.25, atol=1e-14)

    def test_unknown_ensemble(self):
        with pytest.raises(Exception):
            random_state(2, seed=1, ensemble="bogus")

    def test_haar_mean_population_is_uniform(self):
        # |<0|r>|^2 averages to 1/N over the ensemble
        pops = [abs(random_state(2, seed=s).amplitudes[0]) ** 2 for s in range(400)]
        assert np.mean(pops) == pytest.approx(0.25, abs=0.02)


class TestOperators:
    def test_flag_validation(self):
        with pytest.raises(DomainError):
            DenseOperator(2, np.array([[0, 1], [0, 0]]), hermitian=True)
        with pytest.raises(DomainError):
            DenseOperator(2, np.array([[1, 0], [0, 2]]), unitary=True)
        with pytest.raises(DomainError):
            DenseOperator(2, SX, diagonal=True)

    def test_operator_from_matrix_detects_flags(self):
        op = operator_from_matrix(SZ)
        assert op.hermitian and op.unitary and op.diagonal
        op = operator_from_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
        assert not op.hermitian

    def test_unitary_flag(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        assert operator_from_matrix(q).unitary
        # Hermitian, not unitary: the column norms already rule it out
        herm = operator_from_matrix(np.diag([1.0, 2.0]).astype(complex))
        assert herm.hermitian and not herm.unitary
        # unit-norm columns that are not orthogonal: only the product rules it out
        cols = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0)
        assert not operator_from_matrix(cols).unitary
        assert not operator_from_matrix(q + 1e-6 * np.eye(8)).unitary

    def test_pauli_term_matrix(self):
        np.testing.assert_array_equal(PauliTerm(2.0, "X").matrix(), SX)
        zz = PauliTerm(1.0, "ZZ").matrix()
        np.testing.assert_array_equal(np.diag(zz), [1, -1, -1, 1])

    def test_from_pauli_terms_frozen_example(self):
        # ZI + 0.5 IX, written out by hand
        a = from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX")])
        expected = np.array(
            [
                [1.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.5],
                [0.0, 0.0, 0.5, -1.0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(a.entries, expected, atol=1e-15)
        assert a.hermitian

    def test_diagonal_flag_for_iz_terms(self):
        a = from_pauli_terms(2, [PauliTerm(0.625, "II"), PauliTerm(0.25, "ZI")])
        assert a.diagonal

    def test_identity_operator(self):
        np.testing.assert_array_equal(identity_operator(2).entries, np.eye(4))


class TestAllOnesDelta:
    def test_every_entry_is_scale_over_dim(self):
        d = all_ones_delta(3, scale=2.0)
        np.testing.assert_allclose(d.entries, 2.0 / 8.0, atol=1e-14)
        assert d.hermitian

    def test_single_qubit_matches_hadamard_combination(self):
        # scale sqrt(2) gives (I + X)/sqrt(2)
        d = all_ones_delta(1, scale=math.sqrt(2.0))
        np.testing.assert_allclose(d.entries, (np.eye(2) + SX) / math.sqrt(2.0), atol=1e-14)

    def test_rank_one_times_dim(self):
        d = all_ones_delta(2)
        evals = np.linalg.eigvalsh(d.entries)
        np.testing.assert_allclose(sorted(evals), [0, 0, 0, 1], atol=1e-12)


class TestQft:
    def test_unitary(self):
        f = qft_matrix(2)
        assert f.unitary
        np.testing.assert_allclose(f.entries @ f.entries.conj().T, np.eye(4), atol=1e-12)

    def test_first_column_uniform(self):
        f = qft_matrix(3)
        np.testing.assert_allclose(f.entries[:, 0], np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_conjugation_builds_all_ones(self):
        # F^dag diag(1,0,...,0) F has every entry 1/N
        f = qft_matrix(2).entries
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = 1.0
        np.testing.assert_allclose(f.conj().T @ proj @ f, np.full((4, 4), 0.25), atol=1e-12)


class TestMiscOperators:
    def test_projector_idempotent(self):
        p = projector_from_state(uniform_superposition(2))
        np.testing.assert_allclose(p.entries @ p.entries, p.entries, atol=1e-12)
        assert p.hermitian

    def test_commutator_norm_values(self):
        z = operator_from_matrix(SZ)
        x = operator_from_matrix(SX)
        assert commutator_norm(z, x) == pytest.approx(2.0)
        assert commutator_norm(z, z) == 0.0

    def test_derivative_mask_requires_hermitian_pattern(self):
        m = derivative_mask(2, [(0, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        assert m.hermitian
        assert m.entries[1, 2] == 0.5
        with pytest.raises(DomainError):
            derivative_mask(2, [(1, 2, 0.5)])

    def test_derivative_mask_accumulates_repeats(self):
        m = derivative_mask(1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert m.entries[0, 0] == 3.0

    def test_qubit_cap(self):
        with pytest.raises(DomainError):
            uniform_superposition(15)
