"""Propagator correctness, Trotter convergence orders, and gate tallies."""

import numpy as np
import pytest

from ethsim import (
    ConfigError,
    DomainError,
    EvolutionConfig,
    PauliTerm,
    StateVector,
    eigendecompose,
    evolution_series,
    evolve_exact,
    evolve_trotter,
    from_pauli_terms,
    uniform_superposition,
)

TERMS = [PauliTerm(1.0, "Z"), PauliTerm(0.7, "X")]
GENERATOR = from_pauli_terms(1, TERMS)


def expm_taylor(mat: np.ndarray, order: int = 40) -> np.ndarray:
    """Series exponential, adequate for the small norms used here."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ mat / k
        out = out + term
    return out


class TestExactEvolution:
    def test_matches_series_exponential(self):
        spec = eigendecompose(GENERATOR)
        psi = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        t = 0.83
        evolved = evolve_exact(spec, psi, t)
        expected = expm_taylor(-1.0j * GENERATOR.entries * t) @ psi.amplitudes
        np.testing.assert_allclose(evolved.amplitudes, expected, atol=1e-12)

    def test_zero_time_is_identity(self):
        spec = eigendecompose(GENERATOR)
        psi = uniform_superposition(1)
        np.testing.assert_allclose(evolve_exact(spec, psi, 0.0).amplitudes, psi.amplitudes)

    def test_norm_preserved(self):
        spec = eigendecompose(GENERATOR)
        psi = StateVector(1, np.array([0.28, 0.96j], dtype=complex))
        out = evolve_exact(spec, psi, 17.3)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-13)

    def test_dimension_mismatch(self):
        spec = eigendecompose(GENERATOR)
        with pytest.raises(DomainError):
            evolve_exact(spec, uniform_superposition(2), 0.1)

    def test_nonfinite_time(self):
        spec = eigendecompose(GENERATOR)
        with pytest.raises(DomainError):
            evolve_exact(spec, uniform_superposition(1), float("nan"))


class TestTrotter:
    def test_negative_time_rejected(self):
        cfg = EvolutionConfig(method="trotter1", dt=0.1)
        with pytest.raises(DomainError):
            evolve_trotter(TERMS, uniform_superposition(1), -0.5, cfg)

    def test_zero_time_passthrough(self):
        cfg = EvolutionConfig(method="trotter2", dt=0.1)
        psi = uniform_superposition(1)
        out, cfg2 = evolve_trotter(TERMS, psi, 0.0, cfg)
        assert out is psi
        assert cfg2.cost_counter == 0

    def test_wrong_method_rejected(self):
        cfg = EvolutionConfig(method="exact", dt=0.1)
        with pytest.raises(ConfigError):
            evolve_trotter(TERMS, uniform_superposition(1), 0.5, cfg)

    def test_gate_tally(self):
        psi = uniform_superposition(1)
        _, cfg1 = evolve_trotter(TERMS, psi, 1.0, EvolutionConfig(method="trotter1", dt=0.25))
        assert cfg1.cost_counter == 2 * 4  # terms * substeps
        _, cfg2 = evolve_trotter(TERMS, psi, 1.0, EvolutionConfig(method="trotter2", dt=0.25))
        assert cfg2.cost_counter == 2 * 2 * 4

    def test_single_term_is_exact(self):
        term = [PauliTerm(0.9, "Z")]
        spec = eigendecompose(from_pauli_terms(1, term))
        psi = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        out, _ = evolve_trotter(term, psi, 2.3, EvolutionConfig(method="trotter1", dt=0.5))
        np.testing.assert_allclose(out.amplitudes, evolve_exact(spec, psi, 2.3).amplitudes, atol=1e-12)

    def _error_at(self, method: str, dt: float) -> float:
        spec = eigendecompose(GENERATOR)
        psi = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        t = 1.0
        exact = evolve_exact(spec, psi, t)
        approx, _ = evolve_trotter(TERMS, psi, t, EvolutionConfig(method=method, dt=dt))
        return float(np.linalg.norm(approx.amplitudes - exact.amplitudes))

    def test_first_order_convergence(self):
        dts = np.array([0.5, 0.25, 0.125, 0.0625])
        errs = np.array([self._error_at("trotter1", dt) for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.8 < slope < 1.2

    def test_second_order_convergence(self):
        dts = np.array([0.5, 0.25, 0.125, 0.0625])
        errs = np.array([self._error_at("trotter2", dt) for dt in dts])
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2

    def test_second_order_beats_first(self):
        assert self._error_at("trotter2", 0.125) < self._error_at("trotter1", 0.125)


class TestEvolutionSeries:
    def test_exact_matches_independent_evolutions(self):
        spec = eigendecompose(GENERATOR)
        r = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        states, cfg = evolution_series(spec, r, 0.3, 5, EvolutionConfig(method="exact", dt=0.3))
        assert cfg.cost_counter == 5
        for j, state in enumerate(states, start=1):
            expected = evolve_exact(spec, r, 0.3 * j)
            np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=1e-12)

    def test_exact_states_come_from_the_estimator_kernel(self):
        # one exact propagator: V c(t_j) with c(t_j) from the phase-table kernel
        from ethsim import estimators

        spec = eigendecompose(from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.7, "XX"), PauliTerm(0.3, "IY")]))
        r = StateVector(2, np.array([0.6, 0.0, 0.8j, 0.0]))
        states, _ = evolution_series(spec, r, 0.3, 200, EvolutionConfig(method="exact", dt=0.3))
        cols = np.hstack(list(estimators._evolved(spec.eigenvalues, spec.coefficients(r.amplitudes), 0.3, 200)))
        np.testing.assert_allclose([s.amplitudes for s in states], (spec.eigenvectors @ cols).T, rtol=0, atol=1e-15)

    def test_trotter_series_tally(self):
        r = uniform_superposition(1)
        _, cfg = evolution_series(
            TERMS, r, 0.3, 5, EvolutionConfig(method="trotter1", dt=0.3, steps_per_dt=3)
        )
        assert cfg.cost_counter == 2 * 3 * 5

    def test_trotter_series_composes(self):
        # stepping dt five times equals one evolution over 5*dt
        r = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        cfg = EvolutionConfig(method="trotter2", dt=0.3)
        states, _ = evolution_series(TERMS, r, 0.3, 5, cfg)
        direct, _ = evolve_trotter(TERMS, r, 1.5, cfg)
        np.testing.assert_allclose(states[-1].amplitudes, direct.amplitudes, atol=1e-10)

    def test_argument_validation(self):
        spec = eigendecompose(GENERATOR)
        r = uniform_superposition(1)
        cfg = EvolutionConfig(method="exact", dt=0.3)
        with pytest.raises(ConfigError):
            evolution_series(spec, r, -0.1, 5, cfg)
        with pytest.raises(ConfigError):
            evolution_series(spec, r, 0.3, 0, cfg)
        with pytest.raises(DomainError):
            evolution_series(TERMS, r, 0.3, 5, cfg)  # exact mode needs a Spectrum


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(method="magic")
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=0.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(steps_per_dt=0)

    def test_add_cost_returns_copy(self):
        cfg = EvolutionConfig()
        cfg2 = cfg.add_cost(7)
        assert cfg.cost_counter == 0
        assert cfg2.cost_counter == 7
