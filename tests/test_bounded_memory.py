"""Bounded-memory dense runs: the factored eigenbasis observable against the
N x N construction it replaced, the row-blocked checks against full scans,
and the traced peak of a whole run."""

import tracemalloc

import numpy as np
import pytest

from ethsim import core, estimators
from ethsim.config import from_dict
from ethsim.core import (
    HERMITIAN_TOL,
    DenseOperator,
    StateVector,
    all_ones_delta,
    derivative_mask,
    hermitian_deviation,
    operator_from_matrix,
    projector_from_state,
)
from ethsim.errors import DomainError
from ethsim.estimators import EthConfig, InitialState, run_operator_form, run_vector_form, thermalization_diagnostics
from ethsim.fileio import read_matrix_file, write_matrix_file
from ethsim.phase_estimation import QpeConfig, energy_table, reached_weight_table, register_amplitudes
from ethsim.runner import execute_experiment
from ethsim.spectral import (
    Spectrum,
    _logdet_curvature,
    eigenbasis_ensemble,
    eigenbasis_factors,
    eigendecompose,
    factored_commutator_norm,
    in_eigenbasis,
    logdet_gradient_oracle,
)
from ethsim.weights import WeightSpec
from helpers import as_matrix

MODES = ("exact-binning", "circuit")


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def _unit(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _mask_entries(rng, dim, count):
    """count Hermitian (row, col, value) pairs; the first pair cancels at its own position."""
    entries = [(1, 2, 0.5), (1, 2, -0.5)]
    while len(entries) < count:
        i, j = (int(x) for x in rng.integers(0, dim, size=2))
        value = complex(*rng.normal(size=2))
        entries += [(i, i, value.real)] if i == j else [(i, j, value), (j, i, value.conjugate())]
    return entries


def _degenerate_problem(n_qubits=4, m=3, seed=5):
    """A spectrum with exactly degenerate pairs, more eigenvalues than bins
    (merged bins) and phases off the bin centres, on a shift-1 scale-1 register."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    evals = 1.0 + (rng.integers(1, 2**m, size=dim) + rng.uniform(-0.3, 0.3, size=dim)) / 2**m
    evals[1::4] = evals[::4]
    v = _unitary(rng, dim)
    a = (v * evals) @ v.conj().T
    spec = eigendecompose(operator_from_matrix(0.5 * (a + a.conj().T)))
    assert any(len(group) > 1 for group in spec.degeneracy_groups)
    herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    deltas = {
        "rank-1": projector_from_state(StateVector(n_qubits, _unit(rng, dim))),
        "mask": derivative_mask(n_qubits, _mask_entries(rng, dim, 12)),
        "unfactored": DenseOperator(dim, herm + herm.conj().T, hermitian=True),
    }
    init = InitialState(kind="explicit", amplitudes=tuple(_unit(rng, dim)))
    return spec, deltas, StateVector(n_qubits, np.asarray(init.amplitudes)), EthConfig(dt=0.37, num_steps=300, initial_state=init)


def _dense_reference(spec, delta_eig, r, weights, eth, g=None):
    """The N x N construction: the three-operand contraction of a dense G over
    all steps at once, Tr(Delta_eff)/N and the ensemble of the dense Delta_eff."""
    t = eth.dt * np.arange(1, eth.num_steps + 1)
    c = spec.coefficients(r.amplitudes)[:, None] * np.exp(-1j * np.outer(spec.eigenvalues, t))
    series = None if g is None else np.einsum("qk,qp,pk->k", c.conj(), g, c).real
    eff = delta_eig * weights[:, None]
    return series, np.trace(eff).real / spec.dim, eigenbasis_ensemble(spec, eff, r)


def _assert_rel(got, want, rel=1e-12):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * scale


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", MODES)
class TestFactoredObservable:
    """(P, Q) = (V^dag L, V^dag R) against Delta^eig, K, G and Delta_eff built N x N."""

    @pytest.mark.parametrize("kind", ["rank-1", "mask", "unfactored"])
    def test_operator_form_matches_the_dense_g_contraction(self, mode, kind):
        spec, deltas, r, eth = _degenerate_problem()
        delta, qpe, w = deltas[kind], QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode), WeightSpec(kind="inverse")
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, w).real
        delta_eig = in_eigenbasis(spec, delta)
        g = delta_eig * ((amps.conj() * table) @ amps.T)
        energies = energy_table(qpe)[np.abs(amps).argmax(axis=1)] if mode == "exact-binning" else spec.eigenvalues
        series, trace_target, diag_target = _dense_reference(spec, delta_eig, r, w.evaluate(energies, spec.spectral_range), eth, g)
        out = run_operator_form(spec, delta, w, eth, qpe)
        _assert_rel(out.series, series)
        assert out.thermalized.trace_target == pytest.approx(trace_target, rel=1e-12, abs=1e-15)
        assert out.thermalized.diagonal_target == pytest.approx(diag_target, rel=1e-12, abs=1e-15)

    def test_vector_form_targets_match_the_dense_outer_product(self, mode):
        spec, _, r, eth = _degenerate_problem()
        phi = StateVector(4, _unit(np.random.default_rng(9), 16))
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        amps = register_amplitudes(spec, qpe)
        energies = energy_table(qpe)[np.abs(amps).argmax(axis=1)] if mode == "exact-binning" else spec.eigenvalues
        b = spec.coefficients(phi.amplitudes)
        weights = WeightSpec(kind="inverse").evaluate(energies, spec.spectral_range)
        _, trace_target, diag_target = _dense_reference(spec, np.outer(b, b.conj()), r, weights, eth)
        out = run_vector_form(spec, phi, eth, qpe)
        assert out.thermalized.trace_target == pytest.approx(trace_target, rel=1e-12, abs=1e-15)
        assert out.thermalized.diagonal_target == pytest.approx(diag_target, rel=1e-12, abs=1e-15)

    def test_diagnostics_targets_match_the_dense_delta(self, mode):
        spec, deltas, r, eth = _degenerate_problem()
        for delta in deltas.values():
            verdict = thermalization_diagnostics(np.linspace(0.1, 0.2, 50), spec, delta, r)
            _, trace_target, diag_target = _dense_reference(spec, in_eigenbasis(spec, delta), r, np.ones(spec.dim), eth)
            assert verdict.trace_target == pytest.approx(trace_target, rel=1e-12, abs=1e-15)
            assert verdict.diagonal_target == pytest.approx(diag_target, rel=1e-12, abs=1e-15)


def test_factors_stay_n_by_r():
    spec, deltas, _, _ = _degenerate_problem()
    for kind, rank in (("rank-1", 1), ("mask", deltas["mask"].factors[0].shape[1])):
        p, q = eigenbasis_factors(spec, deltas[kind])
        assert p.shape == q.shape == (spec.dim, rank)
        _assert_rel(p @ q.conj().T, in_eigenbasis(spec, deltas[kind]))
    p, q = eigenbasis_factors(spec, deltas["unfactored"])
    assert q is None and p.shape == (spec.dim, spec.dim)


@pytest.fixture
def small_rows(monkeypatch):
    """Five rows per check block at N = 12: blocks of 5, 5 and 2 rows."""
    monkeypatch.setattr(core, "_ROW_BYTES", 16 * 12 * 5)
    assert [s.stop - s.start for s in core.row_blocks(12)][:2] == [5, 5]


class TestBlockedChecks:
    """Row-blocked scans give the maxima, flags and error text of the full N x N scans."""

    @staticmethod
    def full_deviation(mat):
        return float(np.abs(mat - mat.conj().T).max())

    def matrices(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        herm = x + x.conj().T
        near = herm.copy()
        near[3, 10] += 0.5 * HERMITIAN_TOL
        return {"general": x, "hermitian": herm, "near": near, "off": herm + 1e-9 * np.triu(x, 1)}

    def test_hermitian_deviation_equals_the_full_scan(self, small_rows):
        for mat in self.matrices().values():
            assert hermitian_deviation(mat) == self.full_deviation(mat)
        for dim in (1, 13, 64):
            mat = np.arange(dim * dim, dtype=complex).reshape(dim, dim)
            assert hermitian_deviation(mat) == self.full_deviation(mat)

    def test_flags_and_errors_match_the_full_scan(self, small_rows):
        for mat in self.matrices().values():
            dev = self.full_deviation(mat)
            assert DenseOperator(12, mat, hermitian=None).hermitian == (dev <= HERMITIAN_TOL)
            if dev > HERMITIAN_TOL:
                with pytest.raises(DomainError) as err:
                    DenseOperator(12, mat, hermitian=True)
                assert str(err.value) == f"hermitian flag set but max |M - M^dag| = {dev}"
            else:
                assert DenseOperator(12, mat, hermitian=True).hermitian

    def test_factored_deviation_equals_the_full_scan_of_the_product(self, small_rows):
        rng = np.random.default_rng(6)
        left, right = (rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3)) for _ in range(2))
        for factors in ((left, right), (np.hstack([left, right]), np.hstack([right, left])), (left, left)):
            want = self.full_deviation(factors[0] @ factors[1].conj().T)
            assert hermitian_deviation(*factors) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert hermitian_deviation(left, left) == 0.0

    def test_mask_factors_skip_cancelled_columns(self, small_rows):
        entries = _mask_entries(np.random.default_rng(3), 16, 12)
        mask = derivative_mask(4, entries)
        cols = np.flatnonzero(np.abs(as_matrix(mask)).max(axis=0))
        assert 2 not in cols
        np.testing.assert_array_equal(mask.factors[0], as_matrix(mask)[:, cols])
        np.testing.assert_array_equal(mask.factors[1], 1.0 * (np.arange(16)[:, None] == cols))

    def test_commutator_matches_the_dense_product(self, small_rows):
        rng = np.random.default_rng(2)
        v = _unitary(rng, 12)
        spec = Spectrum(np.sort(rng.normal(size=12)), v, tuple((i,) for i in range(12)))
        left = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        right = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        herm_left = np.hstack([left, right])
        herm_right = np.hstack([right, left])  # L R^dag + R L^dag is Hermitian
        for factors in ((herm_left, herm_right), (herm_left @ herm_right.conj().T, None)):
            x = v @ (spec.eigenvalues[:, None] * (v.conj().T @ factors[0]))
            x = x if factors[1] is None else x @ factors[1].conj().T
            want = self.full_deviation(x)
            got = factored_commutator_norm(spec, *factors)
            if factors[1] is None:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)


class TestLogdetOracle:
    def problem(self):
        rng = np.random.default_rng(12)
        v = _unitary(rng, 16)
        a = operator_from_matrix(0.5 * ((v * rng.uniform(0.3, 1.7, 16)) @ v.conj().T + ((v * rng.uniform(0.3, 1.7, 16)) @ v.conj().T).conj().T))
        return a, eigendecompose(a)

    def test_value_and_allowance_match_the_dense_formulas(self):
        a, spec = self.problem()
        _, deltas, _, _ = _degenerate_problem()
        inverse = 1.0 / spec.eigenvalues
        for delta in deltas.values():
            delta_eig = in_eigenbasis(spec, delta)
            assert logdet_gradient_oracle(a, delta, spec) == pytest.approx(float(np.real(inverse @ np.diag(delta_eig))), rel=1e-12)
            want = float(abs(inverse @ np.abs(delta_eig) ** 2 @ inverse))
            assert _logdet_curvature(inverse, *eigenbasis_factors(spec, delta)) == pytest.approx(want, rel=1e-12)

    def test_the_check_reads_the_operator_it_is_given(self, monkeypatch):
        a, spec = self.problem()
        mask = derivative_mask(4, _mask_entries(np.random.default_rng(1), 16, 12))
        expected = np.trace(np.linalg.solve(a.entries, as_matrix(mask))).real
        assert logdet_gradient_oracle(spec, mask) == pytest.approx(expected, rel=1e-12)

        def rebuilt(self):
            raise AssertionError("the check rebuilt V diag(E) V^dag")

        monkeypatch.setattr(Spectrum, "operator", rebuilt)
        assert logdet_gradient_oracle(a, mask, spec) == pytest.approx(expected, rel=1e-12)

    def test_the_check_shifts_a_by_the_product_of_the_factors(self, monkeypatch):
        a, spec = self.problem()
        mask = derivative_mask(4, _mask_entries(np.random.default_rng(1), 16, 12))
        plain = DenseOperator(16, as_matrix(mask), hermitian=True)
        seen = []
        slogdet = np.linalg.slogdet

        def recorded(mat):
            seen.append(np.array(mat))
            return slogdet(mat)

        monkeypatch.setattr(np.linalg, "slogdet", recorded)
        assert logdet_gradient_oracle(a, mask, spec) == pytest.approx(logdet_gradient_oracle(a, plain, spec), rel=1e-12)
        assert len(seen) == 4
        np.testing.assert_array_equal(seen[0], a.entries)
        np.testing.assert_allclose(seen[1], a.entries + 1e-6 * as_matrix(mask), rtol=0, atol=1e-15)
        np.testing.assert_allclose(seen[1], seen[3], rtol=0, atol=1e-15)


DENSE_QUBITS = 8


@pytest.fixture(scope="module")
def dense_inputs(tmp_path_factory):
    """A seeded Hermitian A at N = 256 in a matrix file, its phi and a 12-entry mask."""
    directory = tmp_path_factory.mktemp("dense")
    rng = np.random.default_rng(2)
    dim = 2**DENSE_QUBITS
    v = _unitary(rng, dim)
    a = (v * rng.uniform(0.1, 0.9, size=dim)) @ v.conj().T
    write_matrix_file(directory / "a.txt", 0.5 * (a + a.conj().T))
    phi = _unit(rng, dim)
    mask = [[i, j, value.real, value.imag] for i, j, value in _mask_entries(rng, dim, 12)]
    return directory, [[x.real, x.imag] for x in phi], mask


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize(
    "target,form",
    [("inverse-expectation", "operator"), ("logdet-gradient", "operator"), ("inverse-expectation", "vector")],
)
def test_a_dense_run_holds_a_v_delta_and_one_block(dense_inputs, target, form):
    """Traced peak of a run over the traced size at its start: A, V and Delta
    (at most five N x N arrays counting construction), one block of evolved
    coefficients and 1 MiB of small arrays."""
    directory, phi, mask = dense_inputs
    data = {
        "name": f"{target}-{form}",
        "target": target,
        "form": form,
        "seed": 3,
        "problem": {"kind": "dense-matrix-file", "path": "a.txt"},
        "qpe": {"m": 5, "shift": 0.0, "scale": 1.0, "mode": "exact-binning"},
        "eth": {"dt": 0.5, "num_steps": 2048},
        "outputs": {"out_dir": str(directory / "out")},
    }
    data.update({"delta": {"kind": "derivative-mask", "entries": mask}} if target == "logdet-gradient" else {"phi": phi})
    config = from_dict(data, base_dir=str(directory))
    dim = 2**DENSE_QUBITS
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = execute_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.reports[0].cost.time_steps == 2048
    assert peak - start <= 5 * 16 * dim**2 + estimators._CHUNK_BYTES + 2**20


def _traced_units(call, dim):
    """Traced peak of call() over the traced size at its start, in N x N complex arrays."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / (16 * dim**2)
    finally:
        tracemalloc.stop()


class TestHandover:
    """Builders hand their fresh arrays over read-only; a caller's writeable
    array is copied, one it has made read-only is kept as given."""

    def test_eigendecompose_holds_one_eigenvector_matrix(self):
        rng = np.random.default_rng(4)
        dim = 256
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = operator_from_matrix(m + m.conj().T)
        assert _traced_units(lambda: eigendecompose(a), dim) <= 1.2

    def test_operator_from_a_matrix_file_keeps_the_loaded_array(self, dense_inputs):
        directory = dense_inputs[0]
        dim = 2**DENSE_QUBITS
        # the loaded N x N array and loadtxt's row transient; a copy would add a whole unit
        assert _traced_units(lambda: operator_from_matrix(read_matrix_file(directory / "a.txt")), dim) <= 1.7
        assert not read_matrix_file(directory / "a.txt").flags.writeable

    def test_spectrum_copies_a_writeable_array(self):
        evals, evecs = np.array([0.5, 1.5]), np.eye(2, dtype=complex)
        spec = Spectrum(evals, evecs, ((0,), (1,)))
        evals[0], evecs[0, 0] = 9.0, 9.0
        assert spec.eigenvalues.tolist() == [0.5, 1.5]
        assert spec.eigenvectors[0, 0] == 1.0
        assert not spec.eigenvectors.flags.writeable

    def test_spectrum_keeps_a_read_only_array(self):
        evals, evecs = np.array([0.5, 1.5]), np.eye(2, dtype=complex)
        for arr in (evals, evecs):
            arr.setflags(write=False)
        spec = Spectrum(evals, evecs, ((0,), (1,)))
        assert spec.eigenvalues is evals and spec.eigenvectors is evecs

    def test_operator_copies_writeable_entries_and_factors(self):
        phi = np.array([0.6, 0.8], dtype=complex)
        mat = np.outer(phi, phi.conj())
        left = phi[:, None].copy()
        op = DenseOperator(2, mat, hermitian=True)
        factored = DenseOperator(2, None, hermitian=True, factors=(left, left))
        mat[0, 0], left[0, 0] = 5.0, 5.0
        assert op.entries[0, 0] == pytest.approx(0.36)
        assert factored.factors[0][0, 0] == 0.6
        assert not op.entries.flags.writeable

    def test_builders_hand_over_without_a_copy(self):
        dim = 2**DENSE_QUBITS
        phi = StateVector(DENSE_QUBITS, np.full(dim, dim**-0.5, dtype=complex))
        builders = (
            lambda: projector_from_state(phi),
            lambda: derivative_mask(DENSE_QUBITS, [(0, 1, 0.5), (1, 0, 0.5), (3, 3, 1.0)]),
        )
        for build in builders:
            assert not as_matrix(build()).flags.writeable
            # the factors and the scan's row-block transients; a copy would add a whole unit
            assert _traced_units(build, dim) <= 2.0

    @pytest.mark.parametrize("kind", ["projector", "mask", "all-ones"])
    def test_factored_builders_peak_below_one_mib(self, kind):
        # at n = 10 one N x N complex array is 16 MiB; a builder holds its N x r
        # factors (r = 10 for this 12-entry mask) and two 256 KiB row-block products
        n_qubits = 10
        dim = 2**n_qubits
        phi = StateVector(n_qubits, np.full(dim, dim**-0.5, dtype=complex))
        entries = _mask_entries(np.random.default_rng(3), dim, 12)
        build = {
            "projector": lambda: projector_from_state(phi),
            "mask": lambda: derivative_mask(n_qubits, entries),
            "all-ones": lambda: all_ones_delta(n_qubits, 0.7),
        }[kind]
        assert build().entries is None
        assert _traced_units(build, dim) * 16 * dim**2 < 2**20

    def test_a_read_only_array_of_another_dtype_is_converted(self):
        real = np.eye(4)
        real.setflags(write=False)
        assert DenseOperator(4, real).entries.dtype == complex
        assert Spectrum(np.array([1, 2]), real[:2, :2], ((0,), (1,))).eigenvalues.dtype == float
