"""The factored observable Delta = L R^dag against the dense constructions it replaces."""

import warnings

import numpy as np
import pytest

from ethsim import (
    DomainError,
    EthConfig,
    InitialState,
    PhaseCollisionWarning,
    QpeConfig,
    WeightSpec,
    diagonal_ensemble,
    eigendecompose,
    operator_from_matrix,
    run_operator_form,
    trace_weighted,
)
from ethsim.core import (
    DenseOperator,
    all_ones_delta,
    commutator_norm,
    derivative_mask,
    identity_operator,
    projector_from_state,
    qft_matrix,
    random_state,
    uniform_superposition,
)
from ethsim.phase_estimation import reweighted_delta
from ethsim.spectral import eigenbasis_ensemble, in_eigenbasis, spectral_commutator_norm
from helpers import as_matrix

KINDS = ("projector", "mask", "identity", "all-ones", "dense")
SIZES = (1, 2, 4, 6)  # N = 2 .. 64


def _haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _operator(n_qubits, degenerate):
    """Seeded A with eigenvalues in [1, 2]; degenerate repeats each of N/2 levels
    twice, except one level repeated three times and one left single."""
    dim = 2**n_qubits
    rng = np.random.default_rng([n_qubits, degenerate])
    evals = np.sort(rng.uniform(1.0, 2.0, size=dim))
    if degenerate and dim >= 4:
        evals = np.sort(np.concatenate([np.repeat(evals[: dim // 2 - 1], 2), evals[dim // 2 - 2 : dim // 2 - 1], [2.5]]))
    v = _haar_unitary(rng, dim)
    mat = (v * evals) @ v.conj().T
    return operator_from_matrix(0.5 * (mat + mat.conj().T))


def _delta(kind, n_qubits):
    dim = 2**n_qubits
    rng = np.random.default_rng([dim, KINDS.index(kind)])
    if kind == "projector":
        return projector_from_state(random_state(n_qubits, seed=dim))
    if kind == "mask":
        entries = [(0, 0, 0.7)]
        for _ in range(5):
            i, j = (int(x) for x in rng.integers(0, dim, size=2))
            z = complex(rng.normal(), rng.normal()) if i != j else float(rng.normal())
            entries += [(i, j, z), (j, i, np.conj(z))] if i != j else [(i, i, z)]
        return derivative_mask(n_qubits, entries)
    if kind == "identity":
        return identity_operator(n_qubits)
    if kind == "all-ones":
        return all_ones_delta(n_qubits, scale=0.7)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return operator_from_matrix(x + x.conj().T)


def _close(got, ref):
    return np.abs(np.asarray(got) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("n_qubits", SIZES)
@pytest.mark.parametrize("kind", KINDS)
class TestFactoredForms:
    def problem(self, kind, n_qubits, degenerate):
        a = _operator(n_qubits, degenerate)
        spec = eigendecompose(a)
        if degenerate and a.dim >= 4:
            assert max(len(g) for g in spec.degeneracy_groups) == 3
        delta = _delta(kind, n_qubits)
        v = spec.eigenvectors
        return a, spec, delta, v.conj().T @ as_matrix(delta) @ v

    def test_eigenbasis_matrix(self, kind, n_qubits, degenerate):
        _, spec, delta, dense = self.problem(kind, n_qubits, degenerate)
        assert _close(in_eigenbasis(spec, delta), dense)

    def test_eigenbasis_diagonal(self, kind, n_qubits, degenerate):
        _, spec, delta, dense = self.problem(kind, n_qubits, degenerate)
        for w in (WeightSpec(kind="unit"), WeightSpec(kind="inverse")):
            values = w.evaluate(spec.eigenvalues, spec.spectral_range)
            assert _close(trace_weighted(spec, delta, w), np.sum(values * np.diag(dense)).real)

    def test_commutator_of_delta_and_of_delta_eff(self, kind, n_qubits, degenerate):
        a, spec, delta, _ = self.problem(kind, n_qubits, degenerate)
        got = spectral_commutator_norm(spec, delta)
        eff = reweighted_delta(delta, spec, WeightSpec(kind="inverse"))
        assert _close(got, commutator_norm(a, eff))
        assert _close(got, commutator_norm(a, delta))

    def test_diagonal_ensemble_against_group_loop(self, kind, n_qubits, degenerate):
        _, spec, delta, dense = self.problem(kind, n_qubits, degenerate)
        r = random_state(n_qubits, seed=3)
        c = spec.eigenvectors.conj().T @ r.amplitudes
        ref = sum(c[list(g)].conj() @ dense[np.ix_(g, g)] @ c[list(g)] for g in spec.degeneracy_groups).real
        assert _close(eigenbasis_ensemble(spec, dense, r), ref)
        assert _close(diagonal_ensemble(spec, delta, r), ref)


class TestFactorsCarried:
    def test_projector_is_rank_one(self):
        phi = random_state(3, seed=4)
        left, right = projector_from_state(phi).factors
        assert left.shape == right.shape == (8, 1)
        np.testing.assert_array_equal(left[:, 0], phi.amplitudes)

    def test_mask_carries_its_nonzero_columns(self):
        mask = derivative_mask(3, [(1, 5, 2.0 + 1.0j), (5, 1, 2.0 - 1.0j), (6, 6, -0.5)])
        left, right = mask.factors
        assert left.shape == (8, 3)
        np.testing.assert_array_equal(np.flatnonzero(right.sum(axis=1)), [1, 5, 6])
        np.testing.assert_array_equal(left @ right.conj().T, as_matrix(mask))

    def test_plain_operators_carry_none(self):
        assert identity_operator(2).factors is None
        assert all_ones_delta(2).factors is not None


class TestFactorsAreTheDefinition:
    """A factored operator holds L and R and no entries; its flag comes from the factored scan."""

    @staticmethod
    def factors(hermitian):
        rng = np.random.default_rng(11)
        left, right = (rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)) for _ in range(2))
        # L R^dag + R L^dag is Hermitian; L R^dag alone is not
        return (np.hstack([left, right]), np.hstack([right, left])) if hermitian else (left, right)

    def test_a_non_hermitian_product_with_the_flag_raises(self):
        left, right = self.factors(hermitian=False)
        full = left @ right.conj().T
        with pytest.raises(DomainError, match=r"hermitian flag set but max \|M - M\^dag\| = ") as err:
            DenseOperator(8, None, hermitian=True, factors=(left, right))
        assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(np.abs(full - full.conj().T).max(), rel=1e-12)

    def test_an_unset_flag_comes_from_the_factored_scan(self):
        for hermitian in (True, False):
            op = DenseOperator(8, None, hermitian=None, factors=self.factors(hermitian))
            assert op.hermitian is hermitian
            assert op.entries is None

    def test_all_ones_with_an_imaginary_scale_raises(self):
        with pytest.raises(DomainError, match="hermitian flag set"):
            all_ones_delta(2, 1j)

    def test_a_non_hermitian_mask_keeps_its_error_text(self):
        with pytest.raises(DomainError) as err:
            derivative_mask(2, [(1, 2, 0.5)])
        assert str(err.value) == "derivative mask is not Hermitian: max |M - M^dag| = 0.5"

    def test_matrix_is_the_product_of_the_factors(self):
        for delta in (_delta("projector", 3), _delta("mask", 3), _delta("all-ones", 3)):
            left, right = delta.factors
            assert delta.entries is None
            np.testing.assert_array_equal(delta.matrix(), left @ right.conj().T)
            assert not delta.matrix().flags.writeable
        plain = identity_operator(3)
        assert plain.matrix() is plain.entries

    def test_mask_matrix_equals_its_accumulated_triples(self):
        entries = [(0, 0, 0.7), (2, 5, 0.5 - 1j), (5, 2, 0.5 + 1j), (2, 5, 0.25), (5, 2, 0.25), (3, 3, -1.0), (3, 3, 1.0)]
        dense = np.zeros((8, 8), dtype=complex)
        for row, col, value in entries:
            dense[row, col] += value
        mask = derivative_mask(3, entries)
        assert mask.factors[0].shape == (8, 3)  # column 3 cancels
        np.testing.assert_array_equal(mask.matrix(), dense)

    def test_entries_and_factors_exclude_each_other(self):
        col = np.array([[1.0], [0.0]])
        for entries, factors in ((np.eye(2), (col, col)), (None, None)):
            with pytest.raises(DomainError, match="either entries or factors"):
                DenseOperator(2, entries, factors=factors)
        with pytest.raises(DomainError, match=r"factors of shapes \(2, 2\) and \(2, 1\) are not two \(2, r\) arrays"):
            DenseOperator(2, None, factors=(np.eye(2), col))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
@pytest.mark.parametrize("kind", ["projector", "mask"])
def test_operator_form_with_and_without_factors(kind, mode):
    a = _operator(4, False)
    delta = _delta(kind, 4)
    assert delta.factors is not None
    plain = DenseOperator(delta.dim, as_matrix(delta), hermitian=True)
    init = InitialState(kind="haar", seed=8)
    eth = EthConfig(dt=0.37, num_steps=200, initial_state=init)
    qpe = QpeConfig(m=3, shift=0.9, scale=0.5, mode=mode)
    w = WeightSpec(kind="inverse")
    got, ref = (run_operator_form(a, d, w, eth, qpe) for d in (delta, plain))
    assert _close(got.series, ref.series)
    for field in ("trace_target", "diagonal_target", "commutator", "plateau"):
        assert _close(getattr(got.thermalized, field), getattr(ref.thermalized, field))
    assert got.thermalized.verdict == ref.thermalized.verdict


def test_commutator_norm_needs_a_hermitian_observable():
    # X - X^dag equals [A, Delta] only for Hermitian Delta
    spec = eigendecompose(_operator(2, False))
    upper = operator_from_matrix(np.triu(np.ones((4, 4))))
    with pytest.raises(DomainError, match="needs a Hermitian observable"):
        spectral_commutator_norm(spec, upper)
    unflagged = DenseOperator(4, _delta("dense", 2).entries)
    assert _close(spectral_commutator_norm(spec, unflagged), commutator_norm(_operator(2, False), unflagged))


def _qft_all_ones(n_qubits, scale):
    """scale * F^dag diag(1, 0, ..., 0) F by explicit products, without factors."""
    f = qft_matrix(n_qubits).entries
    d0 = np.zeros_like(f)
    d0[0, 0] = 1.0
    mat = scale * (f.conj().T @ d0 @ f)
    return DenseOperator(f.shape[0], 0.5 * (mat + mat.conj().T), hermitian=True)


class TestAllOnesFactors:
    @pytest.mark.parametrize("scale", [1.0, 0.7, -2.5])
    @pytest.mark.parametrize("n_qubits", [1, 3, 5])
    def test_entries_and_rank_one_factors(self, n_qubits, scale):
        delta = all_ones_delta(n_qubits, scale=scale)
        dim = 2**n_qubits
        left, right = delta.factors
        assert left.shape == right.shape == (dim, 1)
        # the factors, not entries, are the operator: exactly (scale * u, u)
        u = uniform_superposition(n_qubits).amplitudes[:, None]
        np.testing.assert_array_equal(left, scale * u)
        np.testing.assert_array_equal(right, u)
        np.testing.assert_allclose(left @ right.conj().T, as_matrix(delta), rtol=0, atol=1e-15 * abs(scale))
        np.testing.assert_allclose(as_matrix(delta), _qft_all_ones(n_qubits, scale).entries, rtol=0, atol=1e-14 * abs(scale))

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_exact_series_matches_the_qft_construction(self, degenerate, mode):
        a = _operator(4, degenerate)
        qpe = QpeConfig(m=4, shift=1.0, scale=0.4, mode=mode)
        init = InitialState(kind="explicit", amplitudes=tuple(random_state(4, seed=8).amplitudes))
        eth = EthConfig(dt=0.37, num_steps=300, initial_state=init)
        w = WeightSpec(kind="inverse")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PhaseCollisionWarning)
            got = run_operator_form(a, all_ones_delta(4, scale=0.7), w, eth, qpe)
            want = run_operator_form(a, _qft_all_ones(4, 0.7), w, eth, qpe)
        assert _close(got.series, want.series)
        assert _close(got.thermalized.diagonal_target, want.thermalized.diagonal_target)
        assert _close(got.thermalized.commutator, want.thermalized.commutator)

    def test_shot_run_takes_no_full_eigendecomposition(self, monkeypatch):
        spec = eigendecompose(_operator(6, False))
        qpe = QpeConfig(m=3, shift=1.0, scale=0.4)
        eth = EthConfig(dt=0.37, num_steps=20, sampling="shots", shots=16, seed=5)
        shapes = []
        eigh = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PhaseCollisionWarning)
            run_operator_form(spec, all_ones_delta(6), WeightSpec(kind="inverse"), eth, qpe)
        assert shapes == [(1, 1)]
