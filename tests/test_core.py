"""States, operators, and Pauli-term construction."""

import math

import numpy as np
import pytest

from ethsim import (
    ConfigError,
    DenseOperator,
    DomainError,
    EthConfig,
    PauliTerm,
    QpeConfig,
    StateVector,
    WeightSpec,
    all_ones_delta,
    basis_state,
    commutator_norm,
    derivative_mask,
    eigendecompose,
    from_pauli_terms,
    identity_operator,
    matrix_function,
    operator_from_matrix,
    projector_from_state,
    qft_matrix,
    random_state,
    reweighted_delta,
    run_operator_form,
    uniform_superposition,
)
from ethsim.core import HERMITIAN_TOL
from ethsim.spectral import spectral_commutator_norm
from helpers import action_matrix, as_matrix

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


def _flag_cases():
    """Every builder at three qubits, with the flag its output must measure."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = from_pauli_terms(3, [PauliTerm(1.5, "III"), PauliTerm(0.5, "ZII"), PauliTerm(0.3, "IXI"), PauliTerm(0.2, "IZZ")])
    mask = derivative_mask(3, [(0, 0, 1.0), (1, 6, 0.5 - 0.25j), (6, 1, 0.5 + 0.25j)])
    inverse = WeightSpec(kind="inverse")
    return {
        "qft": (lambda: qft_matrix(3), False),
        "pauli": (lambda: a, True),
        "identity": (lambda: identity_operator(3), True),
        "projector": (lambda: projector_from_state(random_state(3, seed=4)), True),
        "all-ones": (lambda: all_ones_delta(3, scale=0.7), True),
        "mask": (lambda: mask, True),
        "matrix-function": (lambda: matrix_function(eigendecompose(a), inverse), True),
        "reweighted": (lambda: reweighted_delta(mask, eigendecompose(a), inverse), True),
        "hermitian-matrix": (lambda: DenseOperator(8, x + x.conj().T), True),
        "non-hermitian-matrix": (lambda: DenseOperator(8, x), False),
    }


FLAG_CASES = _flag_cases()


@pytest.fixture
def scans(monkeypatch):
    """The shapes of the arrays core passes to np.abs, one per Hermitian scan."""
    from ethsim import core

    shapes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x):
            shapes.append(np.shape(x))
            return np.abs(x)

    monkeypatch.setattr(core, "np", CountingNumpy())
    return shapes


class TestOperators:
    @pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
    @pytest.mark.parametrize("name", list(FLAG_CASES))
    def test_each_builders_flag_equals_the_full_scan(self, name):
        build, flag = FLAG_CASES[name]
        op = build()
        mat = as_matrix(op)
        assert op.hermitian is flag
        assert bool(np.abs(mat - mat.conj().T).max() <= HERMITIAN_TOL) is flag
        if flag:
            # any Hermitian operator decomposes, whichever builder made it
            assert np.abs(eigendecompose(op).operator() - mat).max() <= 1e-12 * max(1.0, np.abs(mat).max())
            return
        with pytest.raises(DomainError, match="eigendecompose requires a Hermitian operator"):
            eigendecompose(op)
        spec = eigendecompose(FLAG_CASES["pauli"][0]())
        with pytest.raises(DomainError, match="needs a Hermitian observable"):
            spectral_commutator_norm(spec, op)
        eth = EthConfig(dt=0.3, num_steps=4, sampling="shots", shots=8)
        with pytest.raises(ConfigError, match="shot sampling requires a Hermitian observable"):
            run_operator_form(spec, op, WeightSpec(kind="inverse"), eth, QpeConfig(m=3, shift=0.0, scale=0.35))

    def test_operator_from_matrix_detects_flags(self):
        op = operator_from_matrix(SZ)
        assert op.hermitian
        op = operator_from_matrix(np.array([[0, 2], [0, 0]], dtype=complex))
        assert not op.hermitian

    def test_operator_from_matrix_scans_once_at_the_flag_tolerance(self, scans):
        herm = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
        for skew, flag in ((0.0, True), (0.9e-12, True), (1.1e-12, False)):
            scans.clear()
            op = operator_from_matrix(herm + skew * np.array([[0, 1], [0, 0]]))
            assert op.hermitian is flag
            assert scans == [(2, 2)]

    def test_a_projector_takes_no_scan(self, scans):
        # L = R = phi, one array: L L^dag is exactly Hermitian without a look at it
        assert projector_from_state(random_state(10, seed=3)).hermitian is True
        # a writeable array given twice is copied once, and stays one array
        col = np.ones((1024, 1), dtype=complex)
        op = DenseOperator(1024, None, factors=(col, col))
        assert op.hermitian is True and op.factors[0] is op.factors[1] is not col
        assert scans == []

    def test_pauli_term_matrix(self):
        # the bare string, coefficient excluded; Y = iXZ
        np.testing.assert_array_equal(action_matrix(PauliTerm(2.0, "X")), SX)
        np.testing.assert_array_equal(action_matrix(PauliTerm(1.0, "Y")), SY)
        zz = action_matrix(PauliTerm(1.0, "ZZ"))
        np.testing.assert_array_equal(zz, np.diag([1, -1, -1, 1]))
        # the first letter acts on the most significant bit: ZI is Z x I
        np.testing.assert_array_equal(np.diag(action_matrix(PauliTerm(1.0, "ZI"))), [1, 1, -1, -1])

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

    def test_identity_operator(self):
        np.testing.assert_array_equal(identity_operator(2).entries, np.eye(4))


class TestAllOnesDelta:
    def test_every_entry_is_scale_over_dim(self):
        d = all_ones_delta(3, scale=2.0)
        np.testing.assert_allclose(as_matrix(d), 2.0 / 8.0, atol=1e-14)
        assert d.hermitian

    def test_single_qubit_matches_hadamard_combination(self):
        # scale sqrt(2) gives (I + X)/sqrt(2)
        d = all_ones_delta(1, scale=math.sqrt(2.0))
        np.testing.assert_allclose(as_matrix(d), (np.eye(2) + SX) / math.sqrt(2.0), atol=1e-14)

    def test_rank_one_times_dim(self):
        d = all_ones_delta(2)
        evals = np.linalg.eigvalsh(as_matrix(d))
        np.testing.assert_allclose(sorted(evals), [0, 0, 0, 1], atol=1e-12)


class TestQft:
    def test_unitary(self):
        f = qft_matrix(2)
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
        np.testing.assert_allclose(as_matrix(p) @ as_matrix(p), as_matrix(p), atol=1e-12)
        assert p.hermitian

    def test_commutator_norm_values(self):
        z = operator_from_matrix(SZ)
        x = operator_from_matrix(SX)
        assert commutator_norm(z, x) == pytest.approx(2.0)
        assert commutator_norm(z, z) == 0.0

    def test_derivative_mask_requires_hermitian_pattern(self):
        m = derivative_mask(2, [(0, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        assert m.hermitian
        assert as_matrix(m)[1, 2] == 0.5
        with pytest.raises(DomainError):
            derivative_mask(2, [(1, 2, 0.5)])

    def test_derivative_mask_accumulates_repeats(self):
        m = derivative_mask(1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert as_matrix(m)[0, 0] == 3.0

    def test_qubit_cap(self):
        with pytest.raises(DomainError):
            uniform_superposition(15)
