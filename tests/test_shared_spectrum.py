"""One eigendecomposition per run, shared by estimator, diagnostics and oracle.

Every eigenbasis shortcut is checked against the computational-basis
construction it replaces, on a seeded dense A with n = 4.
"""

import sys

import numpy as np
import pytest

import ethsim
from ethsim import (
    EthConfig,
    InitialState,
    QpeConfig,
    StateVector,
    WeightSpec,
    eigendecompose,
    execute_experiment,
    inverse_expectation_result,
    logdet_gradient_oracle,
    logdet_gradient_result,
    operator_from_matrix,
    projector_from_state,
    run_operator_form,
    run_vector_form,
    thermalization_diagnostics,
)
from ethsim.config import from_dict
from ethsim.core import commutator_norm, derivative_mask
from ethsim.fileio import write_matrix_file
from ethsim.phase_estimation import energy_table, register_indices, reweighted_delta
from ethsim.spectral import diagonal_ensemble
from helpers import as_matrix

N_QUBITS = 4
MODES = ("exact-binning", "circuit")
# (target, form) pairs a config can name
RUNS = [
    ("time-average", "operator"),
    ("time-average", "vector"),
    ("inverse-expectation", "operator"),
    ("inverse-expectation", "vector"),
    ("logdet-gradient", "operator"),
]
MASK = [(0, 0, 1.0), (3, 3, -0.5), (1, 6, 0.25), (6, 1, 0.25), (2, 9, 0.4), (9, 2, 0.4)]

pytestmark = pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")


def _problem(seed=43):
    """Dense A with eigenvalues in (1, 2) off the bin centres of a 3-bit
    register (shift 1, scale 1), a probe state phi and an initial state."""
    rng = np.random.default_rng(seed)
    dim = 2**N_QUBITS
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    evals = 1.0 + (rng.integers(1, 8, size=dim) + rng.uniform(-0.3, 0.3, size=dim)) / 8
    a = (q * evals) @ q.conj().T
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    init = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return 0.5 * (a + a.conj().T), phi / np.linalg.norm(phi), init / np.linalg.norm(init)


MATRIX, PHI, INIT = _problem()
A = operator_from_matrix(MATRIX)


def _qpe(mode):
    return QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)


def _eth():
    return EthConfig(dt=0.41, num_steps=64, initial_state=InitialState(kind="explicit", amplitudes=tuple(INIT)))


def _config(tmp_path, target, form, mode):
    write_matrix_file(tmp_path / "a.mat", MATRIX)
    data = {
        "name": f"{target}-{form}-{mode}",
        "target": target,
        "form": form,
        "seed": 3,
        "problem": {"kind": "dense-matrix-file", "path": "a.mat"},
        "phi": [[float(x.real), float(x.imag)] for x in PHI],
        "weight": {"kind": "inverse", "policy": "reject"},
        "qpe": {"m": 3, "shift": 1.0, "scale": 1.0, "mode": mode},
        "eth": {
            "dt": 0.41,
            "num_steps": 64,
            "initial_state": {"kind": "explicit", "amplitudes": [[float(x.real), float(x.imag)] for x in INIT]},
        },
        "outputs": {"format": "csv", "out_dir": str(tmp_path / "out")},
    }
    if target == "logdet-gradient":
        data["delta"] = {"kind": "derivative-mask", "entries": [list(e) for e in MASK]}
    return from_dict(data, base_dir=str(tmp_path))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts eigendecompose calls through every ethsim binding of it."""
    calls = []
    original = ethsim.spectral.eigendecompose

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "ethsim" or name.startswith("ethsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    patched.add(name)
    assert {"ethsim.runner", "ethsim.spectral"} <= patched
    return calls


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("target,form", RUNS)
def test_one_eigendecomposition_per_run(target, form, mode, tmp_path, eigh_calls):
    execute_experiment(_config(tmp_path, target, form, mode))
    assert len(eigh_calls) == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("form", ["operator", "vector"])
def test_one_projector_per_inverse_expectation_run(form, mode, tmp_path, monkeypatch):
    built = []
    original = ethsim.core.projector_from_state

    def counted(phi):
        built.append(phi)
        return original(phi)

    for name, module in list(sys.modules.items()):
        if name == "ethsim" or name.startswith("ethsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    summary = execute_experiment(_config(tmp_path, "inverse-expectation", form, mode)).summary
    assert len(built) == 1
    assert summary["oracle_value"] == pytest.approx(np.vdot(PHI, np.linalg.solve(MATRIX, PHI)).real, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_oracles_match_linear_solves(mode, tmp_path):
    inverse = execute_experiment(_config(tmp_path, "inverse-expectation", "operator", mode)).summary
    assert inverse["oracle_value"] == pytest.approx(np.vdot(PHI, np.linalg.solve(MATRIX, PHI)).real, rel=1e-12, abs=1e-12)
    logdet = execute_experiment(_config(tmp_path, "logdet-gradient", "operator", mode)).summary
    mask = derivative_mask(N_QUBITS, MASK)
    expected = np.trace(np.linalg.solve(MATRIX, as_matrix(mask))).real
    assert logdet["oracle_value"] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert logdet_gradient_oracle(A, mask) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert logdet_gradient_oracle(eigendecompose(A), mask) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _effective_reference(spec, delta, w, qpe):
    """The computational-basis Delta_eff the diagnostics used to rebuild."""
    energies = energy_table(qpe)[register_indices(spec, qpe)] if qpe.mode == "exact-binning" else None
    return reweighted_delta(delta, spec, w, energies=energies)


def _assert_targets(verdict, spec, eff, r):
    assert verdict.trace_target == pytest.approx(np.trace(eff.entries).real / spec.dim, rel=1e-12, abs=1e-12)
    assert verdict.diagonal_target == pytest.approx(diagonal_ensemble(spec, eff, r), rel=1e-12, abs=1e-12)
    # the spectrum is nondegenerate, so the diagonal ensemble is sum_p |c_p|^2 <p|eff|p>
    assert all(len(group) == 1 for group in spec.degeneracy_groups)
    v = spec.eigenvectors
    c = v.conj().T @ r.amplitudes
    explicit = np.sum(np.abs(c) ** 2 * np.diag(v.conj().T @ eff.entries @ v)).real
    assert verdict.diagonal_target == pytest.approx(explicit, rel=1e-12, abs=1e-12)
    assert verdict.commutator == pytest.approx(commutator_norm(A, eff), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
class TestEigenbasisDiagnostics:
    r = StateVector(N_QUBITS, INIT)

    def test_operator_form_targets(self, mode):
        spec = eigendecompose(A)
        delta = derivative_mask(N_QUBITS, MASK)
        w = WeightSpec(kind="inverse")
        out = run_operator_form(spec, delta, w, _eth(), _qpe(mode))
        _assert_targets(out.thermalized, spec, _effective_reference(spec, delta, w, _qpe(mode)), self.r)

    def test_vector_form_targets(self, mode):
        spec = eigendecompose(A)
        phi = StateVector(N_QUBITS, PHI)
        w = WeightSpec(kind="inverse")
        out = run_vector_form(spec, phi, _eth(), _qpe(mode))
        eff = _effective_reference(spec, projector_from_state(phi), w, _qpe(mode))
        _assert_targets(out.thermalized, spec, eff, self.r)

    def test_thermalization_diagnostics_targets(self, mode):
        spec = eigendecompose(A)
        delta = derivative_mask(N_QUBITS, MASK)
        eff = _effective_reference(spec, delta, WeightSpec(kind="inverse"), _qpe(mode))
        series = np.linspace(0.1, 0.2, 50)
        _assert_targets(thermalization_diagnostics(series, spec, eff, self.r), spec, eff, self.r)

    def test_operator_and_spectrum_arguments_agree(self, mode):
        spec = eigendecompose(A)
        phi = StateVector(N_QUBITS, PHI)
        mask = derivative_mask(N_QUBITS, MASK)
        for form in ("operator", "vector"):
            dense = inverse_expectation_result(A, phi, _eth(), _qpe(mode), form=form)
            shared = inverse_expectation_result(spec, phi, _eth(), _qpe(mode), form=form)
            np.testing.assert_array_equal(dense.raw.series, shared.raw.series)
            assert dense.normalization == shared.normalization == 2**N_QUBITS
        dense = logdet_gradient_result(A, mask, _eth(), _qpe(mode))
        shared = logdet_gradient_result(spec, mask, _eth(), _qpe(mode))
        np.testing.assert_array_equal(dense.raw.series, shared.raw.series)
        assert shared.value == 2**N_QUBITS * shared.raw.estimate
