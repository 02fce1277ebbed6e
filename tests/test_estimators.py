"""Time-average estimators: exact-mode values, shot statistics, diagnostics."""

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from ethsim import (
    ConfigError,
    DenseOperator,
    DomainError,
    EthConfig,
    InitialState,
    PauliTerm,
    PhaseCollisionWarning,
    QpeConfig,
    StateVector,
    WeightSpec,
    basis_state,
    batch_means_standard_error,
    eigendecompose,
    estimate_inverse_expectation,
    estimate_logdet_gradient,
    execute_experiment,
    from_pauli_terms,
    inverse_expectation_result,
    logdet_gradient_oracle,
    logdet_gradient_result,
    operator_from_matrix,
    projector_from_state,
    run_operator_form,
    run_vector_form,
    swap_test_estimate,
    thermalization_diagnostics,
    trace_weighted,
    uniform_superposition,
)
from ethsim.core import all_ones_delta, derivative_mask, identity_operator
from ethsim import estimators
from ethsim.config import from_dict
from ethsim.core import MAX_QUBITS
from ethsim.errors import SingularityError
from ethsim.estimators import (
    _CHUNK_BYTES,
    _chunk_columns,
    _resolve_initial_state,
    _series_kernel as series_kernel,
    _shot_outcomes,
    running_mean,
    running_standard_error,
)
from ethsim.phase_estimation import (
    WeightedJointState,
    apply_upsilon,
    eigen_weights,
    energy_table,
    joint_observable_matrix,
    qpe_disentangle,
    qpe_entangle,
    qpe_sandwich_matrix,
    reached_weight_table,
    register_amplitudes,
    register_indices,
    register_residual,
    reweighted_delta,
    system_slice,
    upsilon_table,
)
from ethsim.presets import build_preset
from ethsim.rng import substream
from ethsim.spectral import Spectrum, eigenbasis_block, eigenbasis_factors, in_eigenbasis
from helpers import as_matrix

DYADIC_2Q = from_pauli_terms(
    2, [PauliTerm(0.625, "II"), PauliTerm(0.25, "ZI"), PauliTerm(0.125, "IZ")]
)
DYADIC_QPE = QpeConfig(m=3, shift=0.0, scale=0.5)
DIAG_12 = from_pauli_terms(1, [PauliTerm(1.5, "I"), PauliTerm(-0.5, "Z")])
DIAG_12_QPE = QpeConfig(m=2, shift=0.0, scale=0.25)


class TestRunningStatistics:
    def test_running_mean(self):
        np.testing.assert_allclose(running_mean(np.array([1.0, 3.0, 5.0])), [1.0, 2.0, 3.0])

    def test_running_se_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        se = running_standard_error(x)
        assert se[0] == 0.0
        for j in (1, 7, 39):
            head = x[: j + 1]
            expected = head.std(ddof=1) / math.sqrt(j + 1)
            assert se[j] == pytest.approx(expected, rel=1e-10)

    def test_batch_means_on_iid_noise(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1000)
        se = batch_means_standard_error(x)
        # iid case: batch means SE estimates sigma/sqrt(n) = ~0.0316
        assert 0.015 < se < 0.06

    def test_batch_means_grows_with_correlation(self):
        rng = np.random.default_rng(12)
        eps = rng.normal(size=4000)
        ar = np.empty_like(eps)
        ar[0] = eps[0]
        for j in range(1, len(eps)):  # AR(1) with strong positive correlation
            ar[j] = 0.95 * ar[j - 1] + eps[j]
        assert batch_means_standard_error(ar) > 3 * len(ar) ** -0.5 * ar.std(ddof=1)

    def test_batch_means_needs_enough_samples(self):
        assert batch_means_standard_error(np.ones(3)) == 0.0


class TestEthConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EthConfig(dt=0.0, num_steps=10)
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=0)
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=10, sampling="guess")
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=10, sampling="shots", shots=0)
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=10, repetitions=0)
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=10, initial_state=InitialState(kind="w-state"))

    def test_explicit_state_needs_amplitudes(self):
        with pytest.raises(ConfigError):
            EthConfig(dt=0.1, num_steps=10, initial_state=InitialState(kind="explicit"))


class TestInitialStateResolution:
    def test_uniform(self):
        eth = EthConfig(dt=0.1, num_steps=4)
        state = _resolve_initial_state(eth, 2, rep=0)
        np.testing.assert_allclose(state.amplitudes, 0.5 * np.ones(4))

    def test_explicit(self):
        init = InitialState(kind="explicit", amplitudes=(math.sqrt(0.8), math.sqrt(0.2)))
        eth = EthConfig(dt=0.1, num_steps=4, initial_state=init)
        state = _resolve_initial_state(eth, 1, rep=0)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0.8, 0.2], atol=1e-12)

    def test_restarts_reseed_random_kinds(self):
        init = InitialState(kind="phase-product", seed=9)
        eth = EthConfig(dt=0.1, num_steps=4, initial_state=init)
        s0 = _resolve_initial_state(eth, 2, rep=0)
        s1 = _resolve_initial_state(eth, 2, rep=1)
        s0_again = _resolve_initial_state(eth, 2, rep=0)
        assert not np.allclose(s0.amplitudes, s1.amplitudes)
        np.testing.assert_array_equal(s0.amplitudes, s0_again.amplitudes)

    def test_restart_of_deterministic_kind_is_identical(self):
        eth = EthConfig(dt=0.1, num_steps=4)
        s0 = _resolve_initial_state(eth, 2, rep=0)
        s1 = _resolve_initial_state(eth, 2, rep=3)
        np.testing.assert_array_equal(s0.amplitudes, s1.amplitudes)


class TestOperatorForm:
    def test_identity_observable_is_one_at_every_step(self):
        eth = EthConfig(dt=0.13, num_steps=50)
        out = run_operator_form(DYADIC_2Q, identity_operator(2), WeightSpec(kind="unit"), eth, DYADIC_QPE)
        np.testing.assert_allclose(out.series, np.ones(50), atol=1e-12)
        assert out.estimate == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_weighted_trace_over_n(self):
        phi = uniform_superposition(2)
        delta = projector_from_state(phi)
        w = WeightSpec(kind="inverse")
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        out = run_operator_form(DYADIC_2Q, delta, w, eth, DYADIC_QPE)
        target = trace_weighted(eigendecompose(DYADIC_2Q), delta, w) / 4.0
        tol = max(3 * out.standard_error, 1e-10)
        assert abs(out.estimate - target) <= tol

    def test_diag_12_ground_state_projector(self):
        # A = diag(1, 2), uniform start, projector on |0>: time average 0.5
        delta = projector_from_state(basis_state(1, 0))
        eth = EthConfig(dt=2 * math.pi / 64, num_steps=640)
        out = run_operator_form(DIAG_12, delta, WeightSpec(kind="unit"), eth, DIAG_12_QPE)
        assert out.estimate == pytest.approx(0.5, abs=1e-10)

    def test_diag_12_inverse_weight_plus_state(self):
        # <+|A^{-1}|+> for A = diag(1, 2): (1/2)(1 + 1/2) = 0.75
        eth = EthConfig(dt=2 * math.pi / 64, num_steps=640)
        val = estimate_inverse_expectation(DIAG_12, uniform_superposition(1), eth, DIAG_12_QPE)
        assert val == pytest.approx(0.75, abs=1e-9)

    def test_cost_counters(self):
        eth = EthConfig(dt=0.1, num_steps=25, repetitions=2)
        out = run_operator_form(DYADIC_2Q, identity_operator(2), WeightSpec(kind="unit"), eth, DYADIC_QPE)
        assert out.cost.time_steps == 50
        assert out.cost.gate_tally == 3 * 50
        assert out.cost.shots == 0

    def test_series_length_is_steps_times_reps(self):
        eth = EthConfig(dt=0.1, num_steps=20, repetitions=3)
        out = run_operator_form(DYADIC_2Q, all_ones_delta(2), WeightSpec(kind="unit"), eth, DYADIC_QPE)
        assert len(out.series) == 60
        assert len(out.running_mean) == 60
        assert out.estimate == out.running_mean[-1]

    def test_shots_mode_consistency(self):
        delta = projector_from_state(uniform_superposition(2))
        w = WeightSpec(kind="inverse")
        exact = run_operator_form(
            DYADIC_2Q, delta, w, EthConfig(dt=math.pi / 32, num_steps=2560), DYADIC_QPE
        )
        eth = EthConfig(dt=math.pi / 32, num_steps=2560, sampling="shots", shots=2000, seed=7)
        noisy = run_operator_form(DYADIC_2Q, delta, w, eth, DYADIC_QPE)
        assert noisy.cost.shots == 2000 * 2560
        assert abs(noisy.estimate - exact.estimate) <= 4 * noisy.standard_error

    def test_shots_runs_are_reproducible(self):
        eth = EthConfig(dt=0.21, num_steps=40, sampling="shots", shots=64, seed=3)
        a = run_operator_form(DYADIC_2Q, all_ones_delta(2), WeightSpec(kind="unit"), eth, DYADIC_QPE)
        b = run_operator_form(DYADIC_2Q, all_ones_delta(2), WeightSpec(kind="unit"), eth, DYADIC_QPE)
        np.testing.assert_array_equal(a.series, b.series)

    def test_more_shots_tighten_error(self):
        delta = all_ones_delta(2)
        w = WeightSpec(kind="unit")
        ses = []
        for shots in (100, 400, 1600, 6400):
            eth = EthConfig(dt=0.37, num_steps=64, sampling="shots", shots=shots, seed=5)
            ses.append(run_operator_form(DYADIC_2Q, delta, w, eth, DYADIC_QPE).standard_error)
        assert ses[0] > ses[1] > ses[2] > ses[3]

    def test_repetitions_tighten_error(self):
        # merged register bins keep the series oscillating, and phase-product
        # restarts decorrelate it between repeats
        merged = QpeConfig(m=1, shift=0.0, scale=0.05)
        delta = all_ones_delta(2)
        init = InitialState(kind="phase-product", seed=2)
        base = dict(dt=0.37, num_steps=256, initial_state=init, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = run_operator_form(
                DYADIC_2Q, delta, WeightSpec(kind="unit"), EthConfig(repetitions=1, **base), merged
            )
            four = run_operator_form(
                DYADIC_2Q, delta, WeightSpec(kind="unit"), EthConfig(repetitions=4, **base), merged
            )
        assert one.standard_error > 0
        assert four.standard_error < one.standard_error


class TestVectorForm:
    def test_flat_spectrum_matches_operator_form(self):
        # fully degenerate generator: one group, no collision to warn about
        a = identity_operator(2)
        qpe = QpeConfig(m=2, shift=0.0, scale=0.5)
        phi = uniform_superposition(2)
        eth = EthConfig(dt=0.3, num_steps=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = run_vector_form(a, phi, eth, qpe)
            op = run_operator_form(
                a, projector_from_state(phi), WeightSpec(kind="unit"), eth, qpe
            )
        # weights are all 1 on the flat spectrum, so the two runs coincide
        np.testing.assert_allclose(vec.series, op.series, atol=1e-10)

    def test_diag_12_ground_state_overlap(self):
        # (1/N) sum_p |<0|p>|^2 / E_p = (1/2)(1/1) with Phi = |0>
        eth = EthConfig(dt=2 * math.pi / 64, num_steps=640)
        out = run_vector_form(DIAG_12, basis_state(1, 0), eth, DIAG_12_QPE)
        assert out.estimate == pytest.approx(0.5, abs=1e-9)

    def test_matches_operator_form_through_inverse_weight(self):
        phi = uniform_superposition(2)
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        vec = inverse_expectation_result(DYADIC_2Q, phi, eth, DYADIC_QPE, form="vector")
        op = inverse_expectation_result(DYADIC_2Q, phi, eth, DYADIC_QPE, form="operator")
        assert vec.value == pytest.approx(op.value, abs=1e-9)

    def test_register_residual_zero_in_exact_binning(self):
        phi = uniform_superposition(2)
        eth = EthConfig(dt=0.19, num_steps=16)
        out = run_vector_form(DYADIC_2Q, phi, eth, DYADIC_QPE)
        assert out.register_residual <= 1e-13


def _merged_problem(n_qubits, m, seed):
    """Seeded dense A whose 2**n eigenvalues sit off the bin centres of an
    m-bit register with shift 1 and scale 1, with more eigenvalues than
    bins: phases are non-dyadic and bins merge. Returns A, phi and an
    explicit initial state."""
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    bins = rng.integers(1, 2**m, size=dim)
    evals = 1.0 + (bins + rng.uniform(-0.3, 0.3, size=dim)) / 2**m
    a = (q * evals) @ q.conj().T
    a = operator_from_matrix(0.5 * (a + a.conj().T))
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    init = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return (
        a,
        StateVector(n_qubits, phi / np.linalg.norm(phi)),
        InitialState(kind="explicit", amplitudes=tuple(init / np.linalg.norm(init))),
    )


KERNEL_CASES = [
    (n, m, mode) for n, m in ((3, 3), (4, 4)) for mode in ("exact-binning", "circuit")
]


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("n_qubits,m,mode", KERNEL_CASES)
class TestEigenbasisKernel:
    """The eigenbasis register kernel against the joint-space references."""

    def problem(self, n_qubits, m, mode):
        a, phi, init = _merged_problem(n_qubits, m, seed=31 * n_qubits + m)
        qpe = QpeConfig(m=m, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=48, initial_state=init)
        return a, phi, eth, qpe

    def evolved_states(self, a, eth):
        spec = eigendecompose(a)
        v = spec.eigenvectors
        coeffs = v.conj().T @ np.asarray(eth.initial_state.amplitudes)
        for j in range(1, eth.num_steps + 1):
            yield v @ (coeffs * np.exp(-1.0j * spec.eigenvalues * j * eth.dt))

    def test_operator_series_equals_the_sandwich_expectation(self, n_qubits, m, mode):
        a, phi, eth, qpe = self.problem(n_qubits, m, mode)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(a.dim, a.dim)) + 1j * rng.normal(size=(a.dim, a.dim))
        delta = operator_from_matrix(x + x.conj().T)
        w = WeightSpec(kind="inverse")
        out = run_operator_form(a, delta, w, eth, qpe)
        sandwich = qpe_sandwich_matrix(delta, eigendecompose(a), qpe, w)
        expected = [np.vdot(psi, sandwich @ psi).real for psi in self.evolved_states(a, eth)]
        np.testing.assert_allclose(out.series, expected, rtol=0, atol=1e-12)

    def test_vector_series_and_residual_equal_the_per_step_pipeline(self, n_qubits, m, mode):
        a, phi, eth, qpe = self.problem(n_qubits, m, mode)
        spec = eigendecompose(a)
        w = WeightSpec(kind="inverse")
        samples, residuals = [], []
        for psi in self.evolved_states(a, eth):
            joint = qpe_entangle(spec, StateVector(n_qubits, psi), qpe)
            weighted = apply_upsilon(joint, qpe, w, power="half")
            returned = qpe_disentangle(weighted, spec, qpe)
            overlap = np.vdot(phi.amplitudes, system_slice(returned, qpe))
            samples.append(weighted.norm_factor**2 * abs(overlap) ** 2)
            residuals.append(register_residual(returned, qpe))
        out = run_vector_form(a, phi, eth, qpe)
        np.testing.assert_allclose(out.series, samples, rtol=0, atol=1e-12)
        assert out.register_residual == pytest.approx(np.mean(residuals), rel=0, abs=1e-12)

    def test_shot_outcomes_match_the_joint_observable_spectrum(self, n_qubits, m, mode):
        a, phi, eth, qpe = self.problem(n_qubits, m, mode)
        spec = eigendecompose(a)
        delta = projector_from_state(phi)
        w = WeightSpec(kind="inverse")
        table = upsilon_table(spec, qpe, w)
        values, probabilities = _shot_outcomes(spec, delta, table, register_amplitudes(spec, qpe))
        r = np.asarray(eth.initial_state.amplitudes)
        probs = probabilities(spec.eigenvectors.conj().T @ r)

        obs_values, obs_vectors = np.linalg.eigh(joint_observable_matrix(delta, spec, qpe, w))
        joint0 = np.zeros(a.dim * qpe.register_size, dtype=complex)
        joint0[:: qpe.register_size] = r
        obs_probs = np.abs(obs_vectors.conj().T @ joint0) ** 2
        for power in (1, 2, 3):
            assert probs @ values**power == pytest.approx(obs_probs @ obs_values**power, rel=1e-12, abs=1e-12)


class TestRealWeights:
    # decoded bin energies -1 + 3k/8 are negative for k < 3, where the
    # regularized inverse_sqrt weight is complex; every eigenvalue bins at k >= 6
    QPE = dict(m=3, shift=-1.0, scale=1.0 / 3.0)
    A = operator_from_matrix(np.diag([1.2, 1.6]).astype(complex))

    def run(self, mode):
        w = WeightSpec(kind="inverse_sqrt", policy="regularize")
        eth = EthConfig(dt=0.3, num_steps=8)
        return run_operator_form(self.A, identity_operator(1), w, eth, QpeConfig(mode=mode, **self.QPE))

    def test_circuit_mode_rejects_complex_weights_its_leakage_reaches(self):
        with pytest.raises(SingularityError, match="inverse_sqrt weight is complex at negative eigenvalue E = -1.0"):
            self.run("circuit")

    def test_exact_binning_ignores_complex_weights_on_unreached_bins(self):
        # the eigenvalues bin at k = 6 and 7, decoded energies 1.25 and 1.625
        assert self.run("exact-binning").estimate == pytest.approx(0.5 * (1.25**-0.5 + 1.625**-0.5), abs=1e-12)


class TestSingularRegisterBins:
    """Both forms treat a bin as reached when the register amplitudes put
    more than OCCUPANCY_EPS of probability there."""

    A = operator_from_matrix(np.diag([0.3, 0.55]).astype(complex))
    ETH = EthConfig(dt=0.7, num_steps=50)

    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_leaked_singular_bin_raises_in_both_forms(self, form):
        # circuit leakage reaches bin 0, whose decoded energy is 0
        qpe = QpeConfig(m=3, shift=0.0, scale=1.0, mode="circuit")
        with pytest.raises(SingularityError):
            inverse_expectation_result(self.A, uniform_superposition(1), self.ETH, qpe, form=form)

    def test_unreached_singular_bin_is_zero(self):
        # exact binning reaches only bins 2 and 4 (energies 0.25 and 0.5)
        qpe = QpeConfig(m=3, shift=0.0, scale=1.0)
        table = upsilon_table(eigendecompose(self.A), qpe, WeightSpec(kind="inverse"))
        np.testing.assert_array_equal(table, [0.0, 0.0, 4.0, 0.0, 2.0, 0.0, 0.0, 0.0])


class TestOneSingularityWindow:
    """The per-eigenvalue weights behind the verdict's targets see the bin
    table's singularity window. Eigenvalues 0, 0.25, 0.5 and 0.75 bin at
    k = 0..3; bin 0 decodes to -3e-10, inside the default eta of both the
    register span (1.75e-8) and the spectral range (7.5e-9), where the
    regularized 1/E is -9.79e5 and -5.33e6 respectively."""

    TERMS = [[0.375, "II"], [0.25, "ZI"], [0.125, "IZ"]]
    QPE = QpeConfig(m=3, shift=-3e-10, scale=0.5)
    W = WeightSpec(kind="inverse", policy="regularize")
    # K dt spans ten periods of every gap (multiples of 0.25), so the series mean is the diagonal ensemble
    ETH = EthConfig(dt=math.pi / 32, num_steps=2560, initial_state=InitialState(kind="haar", seed=3))

    def test_eigen_weights_are_the_bin_table_entries(self):
        spec = eigendecompose(from_pauli_terms(2, [PauliTerm(c, s) for c, s in self.TERMS]))
        amps = register_amplitudes(spec, self.QPE)
        table = reached_weight_table(amps, self.QPE, self.W)
        np.testing.assert_array_equal(eigen_weights(spec, self.QPE, amps, self.W), table[register_indices(spec, self.QPE)])

    def test_reweighted_delta_under_the_register_span_is_the_sandwich(self):
        # under the spectral range's window bin 0 would read -1.33e6 instead of -2.45e5
        spec = eigendecompose(from_pauli_terms(2, [PauliTerm(c, s) for c, s in self.TERMS]))
        delta = all_ones_delta(2)
        decoded = energy_table(self.QPE)[register_indices(spec, self.QPE)]
        folded = reweighted_delta(delta, spec, self.W, energies=decoded, span=self.QPE.representable_span)
        v = spec.eigenvectors
        diagonal = np.diag(v.conj().T @ folded.entries @ v)
        sandwich = np.diag(v.conj().T @ qpe_sandwich_matrix(delta, spec, self.QPE, self.W) @ v)
        np.testing.assert_allclose(diagonal, sandwich, rtol=1e-12, atol=1e-12)
        weights = eigen_weights(spec, self.QPE, register_amplitudes(spec, self.QPE), self.W)
        np.testing.assert_allclose(diagonal, np.diag(v.conj().T @ as_matrix(delta) @ v) * weights, rtol=1e-12, atol=1e-12)
        assert diagonal[0].real == pytest.approx(-2.448e5, rel=1e-3)

    def test_diagonal_target_is_the_plateau_of_the_series(self):
        a = from_pauli_terms(2, [PauliTerm(c, s) for c, s in self.TERMS])
        verdict = run_operator_form(a, all_ones_delta(2), self.W, self.ETH, self.QPE).thermalized
        assert verdict.plateau == pytest.approx(-131066.28, rel=1e-7)
        assert verdict.diagonal_target == pytest.approx(verdict.plateau, rel=1e-12)
        assert verdict.verdict == "DIAGONAL-ENSEMBLE-ONLY"

    def test_vector_form_rejects_the_negative_bin_weight(self):
        # sqrt of the regularized 1/E at bin 0 (-9.79e5) has no real value
        a = from_pauli_terms(2, [PauliTerm(c, s) for c, s in self.TERMS])
        with pytest.raises(SingularityError, match=r"negative weight at decoded energy -3e-10 under half power"):
            run_vector_form(a, uniform_superposition(2), self.ETH, self.QPE, self.W)

    def test_time_average_oracle_is_the_estimate(self, tmp_path):
        config = from_dict({
            "name": "window", "target": "time-average", "seed": 3,
            "problem": {"kind": "pauli-terms", "terms": self.TERMS},
            "delta": {"kind": "all-ones"},
            "weight": {"kind": "inverse", "policy": "regularize"},
            "qpe": {"m": 3, "shift": -3e-10, "scale": 0.5},
            "eth": {"dt": math.pi / 32, "num_steps": 2560, "initial_state": {"kind": "haar", "seed": 3}},
            "outputs": {"out_dir": str(tmp_path)},
        })
        summary = execute_experiment(config).summary
        assert summary["oracle_value"] == pytest.approx(summary["estimate"], rel=1e-12)


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
class TestProjectorFromStateDelta:
    """An operator-form time-average run of delta.kind = projector-from-state:
    its oracle is the diagonal ensemble of |s><s|, built from a dense eigh."""

    TERMS = [[0.625, "III"], [0.25, "ZII"], [0.13, "IZI"], [0.07, "IIZ"], [0.2, "XXI"], [0.11, "IYY"], [0.05, "XIX"]]

    @staticmethod
    def pairs(vec):
        return [[float(x.real), float(x.imag)] for x in vec]

    @pytest.mark.parametrize("state", ["explicit", "uniform"])
    def test_the_oracle_is_the_dense_diagonal_ensemble(self, state, tmp_path):
        rng = np.random.default_rng(21)
        r, s = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8)))
        delta = {"kind": "projector-from-state"}
        if state == "explicit":
            delta["state"] = self.pairs(s)
        else:
            s = np.full(8, 8**-0.5)
        config = from_dict({
            "name": "projector", "target": "time-average", "form": "operator", "seed": 3,
            "problem": {"kind": "pauli-terms", "terms": self.TERMS},
            "delta": delta,
            "weight": {"kind": "unit"},
            "qpe": {"m": 3, "shift": -0.5, "scale": 0.25},
            "eth": {"dt": 0.7, "num_steps": 64, "initial_state": {"kind": "explicit", "amplitudes": self.pairs(r)}},
            "outputs": {"out_dir": str(tmp_path)},
        })
        evals, vecs = np.linalg.eigh(as_matrix(from_pauli_terms(3, [PauliTerm(c, a) for c, a in self.TERMS])))
        assert np.diff(evals).min() > 1e-3  # no degeneracy: the ensemble sums over single eigenvectors
        want = np.sum(np.abs(vecs.conj().T @ r) ** 2 * np.abs(vecs.conj().T @ s) ** 2)
        assert execute_experiment(config).summary["oracle_value"] == pytest.approx(want, rel=1e-12)


class TestVectorFormBinTable:
    """The vector form weighs the bins any eigenvector reaches, so whether a
    run is accepted depends on the register, not on the initial state's zeros."""

    # eigenvalues -0.5 and 0.5 bin at k = 1 and 3, decoded energies -0.5 and 0.5
    A = operator_from_matrix(np.diag([-0.5, 0.5]).astype(complex))
    QPE = QpeConfig(m=2, shift=-1.0, scale=0.5)

    @pytest.mark.parametrize("amplitudes", [(0.0, 1.0), (0.6, 0.8)])
    def test_a_negative_weight_on_any_reached_bin_raises(self, amplitudes):
        eth = EthConfig(dt=0.3, num_steps=16, initial_state=InitialState(kind="explicit", amplitudes=amplitudes))
        with pytest.raises(SingularityError) as err:
            run_vector_form(self.A, uniform_superposition(1), eth, self.QPE, WeightSpec(kind="identity_of_e"))
        assert str(err.value) == "negative weight at decoded energy -0.5 under half power"


class TestChunkBudget:
    def test_block_bytes_stay_within_the_budget(self):
        assert _chunk_columns(2) == 32768
        assert _chunk_columns(1024) == 64
        assert 16 * 1024 * _chunk_columns(1024) == _CHUNK_BYTES == 2**20
        assert _chunk_columns(2**MAX_QUBITS) == 4
        for n in range(1, MAX_QUBITS + 1):
            assert 16 * 2**n * _chunk_columns(2**n) <= _CHUNK_BYTES

    @pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_small_budget_series_equals_unchunked(self, monkeypatch, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=23, initial_state=init)
        delta = projector_from_state(phi)
        whole = [run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe), run_vector_form(a, phi, eth, qpe)]
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * a.dim * 5)
        assert estimators._chunk_columns(a.dim) == 5
        chunked = [run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe), run_vector_form(a, phi, eth, qpe)]
        for x, y in zip(whole, chunked):
            # block width changes only the order of the BLAS sums
            np.testing.assert_allclose(y.series, x.series, rtol=1e-13, atol=1e-15)


class TestPhaseTableKernel:
    """_evolved builds c_p(t_j) from one table row and one offset per _PHASE_WIDTH steps."""

    @staticmethod
    def inputs(dim, seed=7):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return np.sort(rng.uniform(-3.0, 3.0, size=dim)), coeffs / np.linalg.norm(coeffs)

    @staticmethod
    def columns(eigenvalues, coeffs, dt, num_steps):
        return np.hstack(list(estimators._evolved(eigenvalues, coeffs, dt, num_steps)))

    @pytest.mark.parametrize("num_steps", [50, 2048, 4097])
    @pytest.mark.parametrize("dim", [2, 32, 512])
    def test_matches_direct_exponentials(self, dim, num_steps):
        eigenvalues, coeffs = self.inputs(dim)
        got = self.columns(eigenvalues, coeffs, 0.37, num_steps)
        direct = coeffs[:, None] * np.exp(-1.0j * np.outer(eigenvalues, 0.37 * np.arange(1, num_steps + 1)))
        assert got.shape == (dim, num_steps)
        assert np.abs(got - direct).max() <= 1e-12

    def test_columns_do_not_depend_on_the_block_width(self, monkeypatch):
        eigenvalues, coeffs = self.inputs(8)
        whole = self.columns(eigenvalues, coeffs, 0.37, 300)
        for chunk in (1, 5, 63, 64, 65):
            monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * 8 * chunk)
            blocks = list(estimators._evolved(eigenvalues, coeffs, 0.37, 300))
            assert [b.shape[1] for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
            np.testing.assert_array_equal(np.hstack(blocks), whole)

    def test_short_run_is_a_prefix_of_a_longer_one(self):
        eigenvalues, coeffs = self.inputs(8)
        long = self.columns(eigenvalues, coeffs, 0.37, 1000)
        for num_steps in (1, 63, 64, 65, 300):
            np.testing.assert_array_equal(self.columns(eigenvalues, coeffs, 0.37, num_steps), long[:, :num_steps])

    def test_exponentials_per_call(self, monkeypatch):
        eigenvalues, coeffs = self.inputs(16)
        counted = []
        exp = np.exp

        def recorded(x, *args, **kwargs):
            counted.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(estimators.np, "exp", recorded)
        self.columns(eigenvalues, coeffs, 0.37, 2048)
        # the N x W table, then N offsets for each of the 32 rows of W steps
        assert sum(counted) == 16 * (64 + 32)


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
class TestTimeAverageDriver:
    """The repetition loop both forms share: restarts, concatenation, means, costs."""

    @staticmethod
    def run(form, a, phi, eth, qpe):
        if form == "operator":
            return run_operator_form(a, projector_from_state(phi), WeightSpec(kind="inverse"), eth, qpe)
        return run_vector_form(a, phi, eth, qpe)

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_repetitions_concatenate_single_runs(self, form, mode):
        a, phi, _ = _merged_problem(3, 3, seed=23)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=17, initial_state=InitialState(kind="haar", seed=29), repetitions=3)
        whole = self.run(form, a, phi, eth, qpe)

        def single(rep):
            # one repetition, started as an explicit state from the state repetition rep restarts from
            state = InitialState(kind="explicit", amplitudes=tuple(_resolve_initial_state(eth, 3, rep).amplitudes))
            return self.run(form, a, phi, dataclasses.replace(eth, repetitions=1, initial_state=state), qpe)

        singles = [single(rep) for rep in range(3)]
        np.testing.assert_array_equal(whole.series, np.concatenate([s.series for s in singles]))
        assert whole.thermalized.diagonal_target == np.mean([s.thermalized.diagonal_target for s in singles])
        assert whole.register_residual == np.mean([s.register_residual for s in singles])
        assert whole.cost.time_steps == 3 * 17

    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_shot_count_is_repetitions_times_steps_times_shots(self, form):
        a, phi, init = _merged_problem(2, 3, seed=5)
        eth = EthConfig(dt=0.37, num_steps=11, sampling="shots", shots=7, seed=3, initial_state=init, repetitions=3)
        out = self.run(form, a, phi, eth, QpeConfig(m=3, shift=1.0, scale=1.0))
        assert out.cost == estimators.CostCounters(time_steps=33, gate_tally=99, shots=3 * 11 * 7)

    def test_initial_state_of_another_dimension_is_domain_error(self):
        # a 3x3 operator: the uniform initial state on int(log2 3) = 1 qubit has dimension 2
        a = operator_from_matrix(np.diag([1.1, 1.4, 1.8]))
        delta = operator_from_matrix(np.eye(3))
        eth = EthConfig(dt=0.1, num_steps=4)
        with pytest.raises(DomainError, match="initial state dimension 2 does not match 3"):
            run_operator_form(a, delta, WeightSpec(kind="unit"), eth, QpeConfig(m=3, shift=1.0, scale=1.0))


class TestOneRegisterPass:
    @staticmethod
    def collisions(config, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            execute_experiment(config.with_outputs(out_dir=str(tmp_path)))
        return [w for w in caught if issubclass(w.category, PhaseCollisionWarning)]

    def test_exact_binning_run_warns_once(self, tmp_path):
        # paper-example merges both levels into one bin on purpose
        assert len(self.collisions(build_preset("paper-example"), tmp_path)) == 1

    def test_circuit_run_does_not_warn(self, tmp_path):
        config = build_preset("paper-example")
        config = dataclasses.replace(config, qpe=dataclasses.replace(config.qpe, mode="circuit"))
        assert self.collisions(config, tmp_path) == []


def _einsum_series(spec, g_eig, coeffs, dt, num_steps):
    """The unblocked three-operand contraction _exact_series replaced, over all steps at once."""
    c = coeffs[:, None] * np.exp(-1.0j * np.outer(spec.eigenvalues, dt * np.arange(1, num_steps + 1)))
    return np.einsum("qk,qp,pk->k", c.conj(), g_eig, c).real


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
class TestExactSeriesKernel:
    """_exact_series against the three-operand einsum on seeded dense G."""

    def kernel_inputs(self, n_qubits, mode):
        a, _, init = _merged_problem(n_qubits, 3, seed=40 + n_qubits)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, WeightSpec(kind="inverse")).real
        rng = np.random.default_rng(n_qubits)
        x = rng.normal(size=(a.dim, a.dim)) + 1j * rng.normal(size=(a.dim, a.dim))
        delta_eig = in_eigenbasis(spec, operator_from_matrix(x + x.conj().T))
        g_eig = delta_eig * ((amps.conj() * table) @ amps.T)
        # the kernel's arguments (Delta^eig, Q = None, amps, table) and the reference's G
        return spec, (delta_eig, None, amps, table), g_eig, spec.eigenvectors.conj().T @ np.asarray(init.amplitudes)

    @staticmethod
    def assert_matches(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 6])
    def test_matches_three_operand_einsum(self, mode, n_qubits):
        spec, (left, right, amps, table), g_eig, coeffs = self.kernel_inputs(n_qubits, mode)
        got = estimators._exact_series(spec, estimators._series_kernel(spec, left, right, amps, table), coeffs, 0.37, 300)
        self.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 300))

    def test_concatenated_blocks_match(self, monkeypatch, mode):
        spec, (left, right, amps, table), g_eig, coeffs = self.kernel_inputs(3, mode)
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * spec.dim * 7)
        assert estimators._chunk_columns(spec.dim) == 7
        # circuit: one block of all 8 eigenvalues, 8 time blocks of 7 steps, the last one short;
        # exact binning: a bin of b eigenvalues takes 56 // b steps a time block
        got = estimators._exact_series(spec, estimators._series_kernel(spec, left, right, amps, table), coeffs, 0.37, 50)
        self.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 50))


class TestBinBlockedSeries:
    """_exact_series with one-hot register rows against the unblocked einsum, on a G that vanishes across bins."""

    # several eigenvalues per bin, singleton bins 8 and 9, empty bins 1, 4 and 6, in no sorted order
    BINS = np.array([3, 0, 5, 3, 7, 0, 3, 2, 5, 3, 8, 0, 7, 2, 3, 9])
    AMPS = np.eye(10, dtype=complex)[BINS]

    def inputs(self):
        rng = np.random.default_rng(11)
        dim = self.BINS.size
        spec = Spectrum(np.sort(rng.uniform(1.0, 2.0, size=dim)), np.eye(dim), tuple((p,) for p in range(dim)))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w = rng.uniform(0.5, 2.0, size=self.BINS.max() + 1)
        g_eig = (x + x.conj().T) * (self.BINS[:, None] == self.BINS[None, :]) * w[self.BINS]
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return spec, (x + x.conj().T, None, self.AMPS, w), g_eig, coeffs / np.linalg.norm(coeffs)

    def test_matches_unblocked_einsum(self):
        spec, (delta_eig, right, amps, w), g_eig, coeffs = self.inputs()
        got = estimators._exact_series(spec, estimators._series_kernel(spec, delta_eig, right, amps, w), coeffs, 0.37, 300)
        TestExactSeriesKernel.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 300))

    def test_matches_across_time_blocks(self, monkeypatch):
        spec, (delta_eig, right, amps, w), g_eig, coeffs = self.inputs()
        # a bin of b eigenvalues takes 112 // b steps a time block: the five of bin 3 make 3 time blocks, a singleton 1
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * spec.dim * 7)
        got = estimators._exact_series(spec, estimators._series_kernel(spec, delta_eig, right, amps, w), coeffs, 0.37, 50)
        TestExactSeriesKernel.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 50))

    @pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
    def test_each_bin_evolves_its_own_coefficients(self, monkeypatch):
        # one _evolved call per occupied bin, on exactly that bin's eigenvalues; each block of
        # evolved coefficients fits the budget and is gone before the next one is built
        a, _, init = _merged_problem(6, 3, seed=46)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode="exact-binning")
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * 8 * 5)
        calls, sizes, evolved = [], [], estimators._evolved

        def recorded(eigenvalues, *args):
            calls.append(sorted(eigenvalues))
            for block in evolved(eigenvalues, *args):
                sizes.append(block.nbytes)
                alive = weakref.ref(block)
                yield block
                del block
                assert alive() is None

        monkeypatch.setattr(estimators, "_evolved", recorded)
        mask = derivative_mask(6, [(0, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        run_operator_form(spec, mask, WeightSpec(kind="inverse"), EthConfig(dt=0.37, num_steps=50, initial_state=init), qpe)
        bins = register_indices(spec, qpe)
        assert sorted(calls) == sorted(sorted(spec.eigenvalues[bins == k]) for k in set(bins))
        assert 1 < len(calls) < len(sizes)
        assert max(sizes) <= estimators._CHUNK_BYTES

    def test_mixed_rows_make_one_block(self):
        # one dense row among one-hot rows: G no longer vanishes across bins, so it is one block
        spec, (delta_eig, _, amps, w), _, coeffs = self.inputs()
        amps = amps.copy()
        amps[4] = np.random.default_rng(5).normal(size=amps.shape[1]) + 0j
        g_eig = delta_eig * ((amps.conj() * w) @ amps.T)
        assert np.count_nonzero(g_eig[4] * (self.BINS != self.BINS[4]))
        got = estimators._exact_series(spec, estimators._series_kernel(spec, delta_eig, None, amps, w), coeffs, 0.37, 300)
        TestExactSeriesKernel.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 300))

    @pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_register_rows_of_either_mode(self, mode):
        # exact binning: one-hot rows at register_indices, several bins; circuit: dense rows, one bin
        spec, (left, right, amps, table), g_eig, coeffs = TestExactSeriesKernel().kernel_inputs(6, mode)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        one_hot = np.count_nonzero(amps, axis=1) == 1
        if mode == "exact-binning":
            assert one_hot.all()
            np.testing.assert_array_equal(np.abs(amps).argmax(axis=1), register_indices(spec, qpe))
            assert len(set(register_indices(spec, qpe))) > 1
        else:
            assert not one_hot.any()
        got = estimators._exact_series(spec, estimators._series_kernel(spec, left, right, amps, table), coeffs, 0.37, 300)
        TestExactSeriesKernel.assert_matches(got, _einsum_series(spec, g_eig, coeffs, 0.37, 300))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
class TestSeriesKernelOncePerRun:
    """An exact operator-form run builds G once and shares it between its repetitions."""

    REPS = 8

    def run(self, mode):
        a, _, _ = _merged_problem(3, 3, seed=43)
        mask = derivative_mask(3, [(0, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        eth = EthConfig(dt=0.37, num_steps=64, repetitions=self.REPS, seed=5, initial_state=InitialState(kind="haar"))
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        return a, mask, eth, qpe, run_operator_form(a, mask, WeightSpec(kind="inverse"), eth, qpe)

    def test_the_blocks_are_built_once(self, monkeypatch, mode):
        kernels, blocks = [], []
        monkeypatch.setattr(estimators, "_series_kernel", lambda *args: kernels.append(args) or series_kernel(*args))
        monkeypatch.setattr(estimators, "eigenbasis_block", lambda *args: blocks.append(args) or eigenbasis_block(*args))
        self.run(mode)
        assert len(kernels) == 1
        # one block per occupied bin in exact binning, one block in circuit mode
        amps = kernels[0][3]
        assert len(blocks) == (len(set(np.abs(amps).argmax(axis=1))) if mode == "exact-binning" else 1)

    def test_each_repetition_is_bit_identical_to_a_fresh_kernel(self, mode):
        a, mask, eth, qpe, out = self.run(mode)
        spec = eigendecompose(a)
        left, right = eigenbasis_factors(spec, mask)
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, WeightSpec(kind="inverse")).real
        for rep in range(self.REPS):
            coeffs = spec.coefficients(_resolve_initial_state(eth, 3, rep).amplitudes)
            fresh = estimators._exact_series(spec, series_kernel(spec, left, right, amps, table), coeffs, eth.dt, eth.num_steps)
            assert out.series[rep * eth.num_steps : (rep + 1) * eth.num_steps].tobytes() == fresh.tobytes()


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
class TestBlockBatchedShots:
    """Shot series drawn block by block from one generator per repetition."""

    @staticmethod
    def run(form, mode, num_steps=40, sampling="shots", seed=13):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=num_steps, sampling=sampling, shots=48, seed=seed, initial_state=init, repetitions=2)
        if form == "operator":
            return run_operator_form(a, projector_from_state(phi), WeightSpec(kind="inverse"), eth, qpe)
        return run_vector_form(a, phi, eth, qpe)

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_series_is_bit_identical_across_block_widths(self, monkeypatch, form, mode):
        whole = self.run(form, mode)
        # five steps per block of evolved coefficients, and per shot sub-block of
        # the rank-one projector (r x max(N, 2^m) = 8 complex per step)
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * 8 * 5)
        np.testing.assert_array_equal(self.run(form, mode).series, whole.series)

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("form", ["operator", "vector"])
    def test_short_run_is_a_prefix_of_a_longer_one(self, form, mode):
        short = self.run(form, mode, num_steps=20).series.reshape(2, 20)
        long = self.run(form, mode, num_steps=40).series.reshape(2, 40)
        np.testing.assert_array_equal(short, long[:, :20])

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_block_probabilities_match_single_steps(self, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, WeightSpec(kind="inverse")).real
        values, probabilities = _shot_outcomes(spec, projector_from_state(phi), table, amps)
        coeffs = spec.eigenvectors.conj().T @ np.asarray(init.amplitudes)
        block = next(estimators._evolved(spec.eigenvalues, coeffs, 0.37, 9))
        probs = probabilities(block)
        assert probs.shape == (9, values.size)
        for j in range(9):
            np.testing.assert_allclose(probs[j], probabilities(block[:, j]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    def test_circuit_operator_shots_agree_with_the_exact_series(self):
        exact = self.run("operator", "circuit", num_steps=400, sampling="exact")
        shots = self.run("operator", "circuit", num_steps=400)
        # draws are independent across steps, so the per-step differences give the SE
        diff = shots.series - exact.series
        assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / math.sqrt(diff.size)


def _full_eigh_distribution(spec, delta, table, amps, c):
    """The reference outcome distribution of one step: all N eigenpairs
    (d_j, u_j) of Delta from a full eigh, outcome d_j w_k with probability
    |sum_p <u_j|p> c_p a_p[k]|^2, N * 2^m outcomes in all."""
    d, u = np.linalg.eigh(as_matrix(delta))
    amp = (u.conj().T @ spec.eigenvectors) @ (c[:, None] * amps)
    return np.outer(d, table).ravel(), (np.abs(amp) ** 2).ravel()


def _merged_by_value(*distributions, tol=1e-9):
    """Each (values, probabilities) pair summed over one common set of
    clusters of values, split where sorted values differ by more than tol."""
    every = np.sort(np.concatenate([values for values, _ in distributions]))
    gaps = np.flatnonzero(np.diff(every) > tol)
    edges = 0.5 * (every[gaps] + every[gaps + 1])
    return [np.bincount(np.searchsorted(edges, v), weights=p, minlength=edges.size + 1) for v, p in distributions]


# Hermitian masks on n = 3: five nonzero columns; and columns 1 and 2 equal
# (both e_0), so the nonzero columns are linearly dependent
MASK_RANK5 = [(0, 0, 0.7), (1, 2, 0.3 + 0.2j), (2, 1, 0.3 - 0.2j), (5, 6, -0.4), (6, 5, -0.4)]
MASK_DEPENDENT = [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0)]


def _span_observables(phi):
    """Observables of every shape the shot path meets, with their span's rank r."""
    amp = phi.amplitudes[:, None]
    # |phi><phi| through factors whose columns repeat: R is rank-deficient
    repeated = DenseOperator(phi.dim, None, factors=(np.hstack([amp, amp]), 0.5 * np.hstack([amp, amp])))
    return {
        "projector": (projector_from_state(phi), 1),
        "mask": (derivative_mask(3, MASK_RANK5), 5),
        "dependent-mask": (derivative_mask(3, MASK_DEPENDENT), 3),
        "repeated-factors": (repeated, 2),
        "identity": (identity_operator(3), 8),
    }


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
class TestSpanShotOutcomes:
    """Shot outcomes on the span of Delta's factors: r * 2^m + 1 of them."""

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("name", ["projector", "mask", "dependent-mask", "repeated-factors", "identity"])
    def test_distribution_equals_the_full_eigh_reference(self, name, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, WeightSpec(kind="inverse")).real
        delta, rank = _span_observables(phi)[name]
        values, probabilities = _shot_outcomes(spec, delta, table, amps)
        assert values.size == rank * qpe.register_size + 1
        assert values[-1] == 0.0
        coeffs = spec.coefficients(np.asarray(init.amplitudes))
        block = next(estimators._evolved(spec.eigenvalues, coeffs, 0.37, 9))
        probs = probabilities(block)
        assert np.all(probs >= 0.0)
        for j in range(block.shape[1]):
            got, want = _merged_by_value((values, probs[j]), _full_eigh_distribution(spec, delta, table, amps, block[:, j]))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_factored_observables_take_no_full_eigendecomposition(self, monkeypatch, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=20, sampling="shots", shots=16, seed=5, initial_state=init)
        shapes = []
        eigh = np.linalg.eigh

        def recorded(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        for name in ("projector", "mask", "dependent-mask", "repeated-factors"):
            run_operator_form(spec, _span_observables(phi)[name][0], WeightSpec(kind="inverse"), eth, qpe)
        assert shapes and all(shape[0] < spec.dim for shape in shapes)

    def test_an_unflagged_observable_is_scanned_for_hermiticity(self):
        a, phi, init = _merged_problem(3, 3, seed=17)
        spec = eigendecompose(a)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0)
        amps = register_amplitudes(spec, qpe)
        table = reached_weight_table(amps, qpe, WeightSpec(kind="inverse")).real
        herm = as_matrix(projector_from_state(phi))
        values, _ = _shot_outcomes(spec, DenseOperator(spec.dim, herm), table, amps)
        assert values.size == spec.dim * qpe.register_size + 1
        with pytest.raises(ConfigError, match="shot sampling requires a Hermitian observable"):
            _shot_outcomes(spec, DenseOperator(spec.dim, herm + 0.1 * np.triu(np.ones_like(herm), 1)), table, amps)

    def test_a_slightly_non_hermitian_observable_fails_before_any_draw(self, monkeypatch):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0)
        eth = EthConfig(dt=0.37, num_steps=20, sampling="shots", shots=16, seed=5, initial_state=init)
        herm = as_matrix(projector_from_state(phi))
        skewed = DenseOperator(phi.dim, herm + 1e-10 * np.triu(np.ones_like(herm), 1))
        keys = []
        monkeypatch.setattr(estimators, "substream", lambda *key: keys.append(key))
        with pytest.raises(ConfigError, match="shot sampling requires a Hermitian observable"):
            run_operator_form(a, skewed, WeightSpec(kind="inverse"), eth, qpe)
        assert keys == []

    @staticmethod
    def record_widths(monkeypatch):
        """The steps of each sub-block the shot draw passes to probabilities, in call order."""
        widths = []
        outcomes = estimators._shot_outcomes

        def recorded(*args):
            values, probabilities = outcomes(*args)

            def recorded_probabilities(c):
                widths.append(c.shape[1])
                return probabilities(c)

            return values, recorded_probabilities

        monkeypatch.setattr(estimators, "_shot_outcomes", recorded)
        return widths

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_block_width_follows_the_largest_transient(self, monkeypatch, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=40, sampling="shots", shots=16, seed=5, initial_state=init)
        widths = self.record_widths(monkeypatch)
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * 5 * 8 * 3)
        # r x max(N, 2^m) complex per step: three steps of the rank-5 mask, fifteen of |phi><phi|,
        # cut from blocks of fifteen steps of evolved coefficients (N = 8)
        for name, expected in (("mask", [3] * 13 + [1]), ("projector", [15, 15, 10])):
            widths.clear()
            run_operator_form(a, _span_observables(phi)[name][0], WeightSpec(kind="inverse"), eth, qpe)
            assert widths == expected

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_series_is_bit_identical_when_sub_blocks_stop_at_block_ends(self, monkeypatch, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=40, sampling="shots", shots=48, seed=13, initial_state=init, repetitions=2)
        delta = derivative_mask(3, MASK_RANK5)
        whole = run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe).series
        widths = self.record_widths(monkeypatch)
        # 16-step blocks of evolved coefficients (N = 8) drawn three steps at a time
        # (rank-5 mask, 40 complex per step): a sub-block of three would straddle
        # each block end, so it is cut to one, or to two in a run's last 8-step block
        monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * 8 * 16)
        np.testing.assert_array_equal(run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe).series, whole)
        assert widths == ([3] * 5 + [1] + [3] * 5 + [1] + [3, 3, 2]) * 2

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    @pytest.mark.parametrize("name", ["projector", "mask"])
    def test_series_is_bit_identical_for_one_and_three_step_blocks(self, monkeypatch, name, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        eth = EthConfig(dt=0.37, num_steps=40, sampling="shots", shots=48, seed=13, initial_state=init)
        delta, rank = _span_observables(phi)[name]
        whole = run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe).series
        for steps in (1, 3):
            # blocks of rank * steps steps of evolved coefficients, drawn steps at a time
            monkeypatch.setattr(estimators, "_CHUNK_BYTES", 16 * rank * 8 * steps)
            np.testing.assert_array_equal(run_operator_form(a, delta, WeightSpec(kind="inverse"), eth, qpe).series, whole)

    @pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
    def test_logdet_mask_shots_agree_with_the_exact_series(self, mode):
        a, phi, init = _merged_problem(3, 3, seed=17)
        qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
        mask = derivative_mask(3, MASK_RANK5)

        def run(sampling):
            eth = EthConfig(dt=0.37, num_steps=400, sampling=sampling, shots=48, seed=13, initial_state=init, repetitions=2)
            return logdet_gradient_result(a, mask, eth, qpe).raw

        # draws are independent across steps, so the per-step differences give the SE
        diff = run("shots").series - run("exact").series
        assert diff.std() > 0.0
        assert abs(diff.mean()) <= 4.0 * diff.std(ddof=1) / math.sqrt(diff.size)


class TestSwapTest:
    def test_identical_states(self):
        s = uniform_superposition(1)
        assert swap_test_estimate(s, s, shots=500, seed=1) == pytest.approx(1.0, abs=0.15)

    def test_orthogonal_states(self):
        est = swap_test_estimate(basis_state(1, 0), basis_state(1, 1), shots=500, seed=2)
        assert est == pytest.approx(0.0, abs=0.15)

    def test_half_overlap_large_shots(self):
        est = swap_test_estimate(basis_state(1, 0), uniform_superposition(1), shots=100_000, seed=3)
        assert est == pytest.approx(0.5, abs=0.01)

    def test_unbiased_over_seeds(self):
        a = basis_state(1, 0)
        b = uniform_superposition(1)
        vals = np.array([swap_test_estimate(a, b, shots=32, seed=s) for s in range(500)])
        assert vals.mean() == pytest.approx(0.5, abs=3 * vals.std(ddof=1) / math.sqrt(len(vals)))

    def test_values_are_pinned(self):
        # one draw from substream(seed, "swap-test"), clamped; these values
        # come from the per-call implementation the array form replaced
        a = basis_state(2, 0)
        b = StateVector(2, np.array([0.6, 0.48j, 0.64, 0.0]))  # |<a|b>|^2 = 0.36
        got = [swap_test_estimate(a, b, shots=100, seed=s) for s in (1, 2, 3, 4, 5)]
        assert got == [0.21999999999999997, 0.32000000000000006, 0.30000000000000004, 0.3400000000000001, 0.43999999999999995]
        assert [swap_test_estimate(a, b, shots=7, seed=s) for s in (1, 2, 3)] == [0.4285714285714286, 0.7142857142857142, 0.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            swap_test_estimate(basis_state(1, 0), basis_state(1, 0), shots=0, seed=1)
        with pytest.raises(DomainError):
            swap_test_estimate(basis_state(1, 0), basis_state(2, 0), shots=10, seed=1)


class TestThermalizationDiagnostics:
    def test_thermalizing_preset_verdict(self):
        from ethsim import PhaseCollisionWarning

        cfg = build_preset("paper-example")
        a = from_pauli_terms(1, [PauliTerm(c, ax) for c, ax in cfg.problem.terms])
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        # the preset merges both levels into one bin on purpose
        with pytest.warns(PhaseCollisionWarning):
            out = run_operator_form(a, delta, WeightSpec(kind="unit"), cfg.eth, cfg.qpe)
        assert out.thermalized.verdict == "THERMALIZED"
        assert out.thermalized.plateau == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_integrable_generator_is_vetoed(self):
        # observable commutes with the generator: no relaxation can occur
        from ethsim import PhaseCollisionWarning

        cfg = build_preset("integrable-counterexample")
        a = from_pauli_terms(1, [PauliTerm(c, ax) for c, ax in cfg.problem.terms])
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        with pytest.warns(PhaseCollisionWarning):
            out = run_operator_form(a, delta, WeightSpec(kind="unit"), cfg.eth, cfg.qpe)
        assert out.thermalized.verdict == "DIAGONAL-ENSEMBLE-ONLY"
        assert out.thermalized.commutator <= 1e-10
        assert abs(out.thermalized.plateau - out.thermalized.trace_target) > 0.1

    def test_nonstationary_series(self):
        # a series plateauing far from both oracle targets matches neither
        spec = eigendecompose(DIAG_12)
        drifting = np.linspace(5.0, 6.0, 200)
        verdict = thermalization_diagnostics(
            drifting, spec, all_ones_delta(1), uniform_superposition(1)
        )
        assert verdict.verdict == "NON-STATIONARY"


# A = diag(5, 5, 1, 1): two doubly degenerate levels, at phases 5/8 and 1/8
DEGENERATE_2Q = from_pauli_terms(2, [PauliTerm(3.0, "II"), PauliTerm(2.0, "ZI")])
DEGENERATE_START = np.array([0.1, 0.7, 0.3, 0.2 + 0.6j]) / math.sqrt(0.99)


@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
@pytest.mark.parametrize("form", ["operator", "vector"])
def test_degenerate_groups_keep_their_weight_in_the_diagonal_target(form, mode):
    """The plateau is sum_G f(E_G) c_G^dag Delta_GG c_G, cross terms inside
    each degenerate group G included; the diagonal target must be too."""
    spec = eigendecompose(DEGENERATE_2Q)
    qpe = QpeConfig(m=3, shift=0.0, scale=0.125, mode=mode)
    eth = EthConfig(dt=0.37, num_steps=4000, initial_state=InitialState(kind="explicit", amplitudes=tuple(DEGENERATE_START)))
    if form == "operator":
        delta, w = all_ones_delta(2), WeightSpec(kind="identity_of_e")
        out = run_operator_form(spec, delta, w, eth, qpe)
    else:
        phi = StateVector(2, np.array([0.6, 0.48, 0.64, 0.0]))
        delta, w = projector_from_state(phi), WeightSpec(kind="inverse")
        out = run_vector_form(spec, phi, eth, qpe)
    v = spec.eigenvectors
    dense = v.conj().T @ as_matrix(delta) @ v
    c = v.conj().T @ DEGENERATE_START
    f = w.evaluate(spec.eigenvalues, spec.spectral_range)
    assert [len(g) for g in spec.degeneracy_groups] == [2, 2]
    want = sum(f[g[0]] * (c[list(g)].conj() @ dense[np.ix_(g, g)] @ c[list(g)]).real for g in spec.degeneracy_groups)
    verdict = out.thermalized
    assert verdict.diagonal_target == pytest.approx(want, rel=1e-12)
    assert abs(verdict.plateau - want) <= verdict.tolerance
    assert verdict.verdict == "DIAGONAL-ENSEMBLE-ONLY"


class TestInverseExpectation:
    def test_dyadic_closed_form(self):
        phi = uniform_superposition(2)
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        val = estimate_inverse_expectation(DYADIC_2Q, phi, eth, DYADIC_QPE)
        assert val == pytest.approx(25.0 / 12.0, abs=1e-9)

    def test_normalization_is_dimension(self):
        phi = uniform_superposition(2)
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        out = inverse_expectation_result(DYADIC_2Q, phi, eth, DYADIC_QPE)
        assert out.normalization == pytest.approx(4.0)
        assert out.value == pytest.approx(out.raw.estimate * 4.0)

    def test_degenerate_identity_needs_haar_averaging(self):
        # a single run gives N |<phi|r>|^2; only the restart average recovers 1
        a = identity_operator(2)
        qpe = QpeConfig(m=2, shift=0.0, scale=0.5)
        phi = uniform_superposition(2)
        init = InitialState(kind="haar", seed=21)
        eth = EthConfig(dt=0.3, num_steps=4, initial_state=init, repetitions=200)
        out = inverse_expectation_result(a, phi, eth, qpe)
        block = out.raw.series.reshape(200, 4).mean(axis=1)
        se = block.std(ddof=1) / math.sqrt(len(block))
        assert abs(out.value - 1.0) <= 3 * 4.0 * se


class TestLogdetGradient:
    def test_self_mask_gives_dimension(self):
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        val = estimate_logdet_gradient(DYADIC_2Q, DYADIC_2Q, eth, DYADIC_QPE)
        assert val == pytest.approx(4.0, abs=1e-9)

    def test_matches_oracle_and_finite_difference(self):
        mask = derivative_mask(2, [(0, 0, 1.0), (3, 3, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        eth = EthConfig(dt=math.pi / 32, num_steps=2560)
        out = logdet_gradient_result(DYADIC_2Q, mask, eth, DYADIC_QPE)
        assert out.value == pytest.approx(5.0, abs=1e-9)
        assert logdet_gradient_oracle(DYADIC_2Q, mask) == pytest.approx(5.0, rel=1e-9)
        h = 1e-4
        up = np.linalg.slogdet(DYADIC_2Q.entries + h * as_matrix(mask))[1]
        dn = np.linalg.slogdet(DYADIC_2Q.entries - h * as_matrix(mask))[1]
        fd = (up - dn) / (2 * h)
        assert abs(out.value - fd) <= max(3 * 4.0 * out.raw.standard_error, 1e-3)


class TestDeterminism:
    def test_identical_configs_identical_series(self):
        eth = EthConfig(dt=0.23, num_steps=64, sampling="shots", shots=128, seed=19)
        w = WeightSpec(kind="inverse")
        delta = all_ones_delta(2)
        a = run_operator_form(DYADIC_2Q, delta, w, eth, DYADIC_QPE)
        b = run_operator_form(DYADIC_2Q, delta, w, eth, DYADIC_QPE)
        np.testing.assert_array_equal(a.series, b.series)
        assert a.estimate == b.estimate

    def test_seed_changes_shot_noise(self):
        w = WeightSpec(kind="inverse")
        delta = all_ones_delta(2)
        eth_a = EthConfig(dt=0.23, num_steps=64, sampling="shots", shots=128, seed=19)
        eth_b = EthConfig(dt=0.23, num_steps=64, sampling="shots", shots=128, seed=20)
        a = run_operator_form(DYADIC_2Q, delta, w, eth_a, DYADIC_QPE)
        b = run_operator_form(DYADIC_2Q, delta, w, eth_b, DYADIC_QPE)
        assert not np.array_equal(a.series, b.series)

    def test_substream_independence(self):
        s1 = substream(7, "shots", 0, 1).random(4)
        s2 = substream(7, "shots", 0, 2).random(4)
        s1_again = substream(7, "shots", 0, 1).random(4)
        assert not np.allclose(s1, s2)
        np.testing.assert_array_equal(s1, s1_again)
