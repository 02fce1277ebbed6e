"""Exact spectral oracles and weight evaluation."""

import math

import numpy as np
import pytest

from ethsim import (
    ConfigError,
    DomainError,
    PauliTerm,
    SingularityError,
    StateVector,
    WeightSpec,
    diagonal_ensemble,
    eigendecompose,
    from_pauli_terms,
    logdet_gradient_oracle,
    matrix_function,
    operator_from_matrix,
    singularity_window,
    trace_weighted,
    uniform_superposition,
)
from ethsim.core import all_ones_delta, basis_state, derivative_mask, identity_operator, projector_from_state
from ethsim.weights import WEIGHT_KINDS
from helpers import as_matrix

DYADIC_2Q = from_pauli_terms(
    2, [PauliTerm(0.625, "II"), PauliTerm(0.25, "ZI"), PauliTerm(0.125, "IZ")]
)


class TestEigendecompose:
    def test_requires_hermitian(self):
        bad = operator_from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(DomainError):
            eigendecompose(bad)

    def test_a_factored_operator_decomposes_through_its_matrix(self):
        spec = eigendecompose(projector_from_state(uniform_superposition(2)))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_dyadic_spectrum(self):
        spec = eigendecompose(DYADIC_2Q)
        np.testing.assert_allclose(spec.eigenvalues, [0.25, 0.5, 0.75, 1.0], atol=1e-14)
        assert spec.spectral_range == pytest.approx(0.75)
        assert len(spec.degeneracy_groups) == 4

    def test_degeneracy_grouping(self):
        spec = eigendecompose(identity_operator(2))
        assert spec.degeneracy_groups == ((0, 1, 2, 3),)

    def test_operator_reconstruction(self):
        a = from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX")])
        spec = eigendecompose(a)
        np.testing.assert_allclose(spec.operator(), a.entries, atol=1e-12)

    def test_mixed_generator_spectrum(self):
        a = from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX")])
        spec = eigendecompose(a)
        np.testing.assert_allclose(spec.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


class TestMatrixFunction:
    def test_inverse_of_diagonal(self):
        a = operator_from_matrix(np.diag([1.0, 2.0]).astype(complex))
        inv = matrix_function(eigendecompose(a), WeightSpec(kind="inverse"))
        np.testing.assert_allclose(inv.entries, np.diag([1.0, 0.5]), atol=1e-13)

    def test_inverse_in_rotated_basis(self):
        # (I + 0.5 X)^{-1} worked out from eigenvalues 1.5, 0.5 on |+->, |->
        a = from_pauli_terms(1, [PauliTerm(1.0, "I"), PauliTerm(0.5, "X")])
        inv = matrix_function(eigendecompose(a), WeightSpec(kind="inverse"))
        expected = np.linalg.inv(a.entries)
        np.testing.assert_allclose(inv.entries, expected, atol=1e-12)

    def test_function_composes_identity(self):
        spec = eigendecompose(DYADIC_2Q)
        ident = matrix_function(spec, WeightSpec(kind="unit"))
        np.testing.assert_allclose(ident.entries, np.eye(4), atol=1e-13)


class TestTraceWeighted:
    def test_hand_sum_on_dyadic(self):
        spec = eigendecompose(DYADIC_2Q)
        val = trace_weighted(spec, identity_operator(2), WeightSpec(kind="inverse"))
        assert val == pytest.approx(1 / 0.25 + 1 / 0.5 + 1 / 0.75 + 1 / 1.0, rel=1e-13)

    def test_projector_observable(self):
        spec = eigendecompose(DYADIC_2Q)
        phi = uniform_superposition(2)
        from ethsim import projector_from_state

        val = trace_weighted(spec, projector_from_state(phi), WeightSpec(kind="inverse"))
        # eigenbasis is computational, so each |<phi|p>|^2 = 1/4
        assert val == pytest.approx(0.25 * (4 + 2 + 4 / 3 + 1), rel=1e-12)


class TestDiagonalEnsemble:
    def test_nondegenerate_hand_value(self):
        spec = eigendecompose(operator_from_matrix(np.diag([1.0, -1.0]).astype(complex)))
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        r = StateVector(1, np.array([math.sqrt(0.8), math.sqrt(0.2)], dtype=complex))
        # sum_p |c_p|^2 <p|Delta|p> with both diagonal entries 1/sqrt(2)
        assert diagonal_ensemble(spec, delta, r) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_sigma_x_generator(self):
        spec = eigendecompose(operator_from_matrix(np.array([[0, 1], [1, 0]], dtype=complex)))
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        assert diagonal_ensemble(spec, delta, basis_state(1, 0)) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )

    def test_fully_degenerate_keeps_whole_state(self):
        spec = eigendecompose(identity_operator(1))
        delta = operator_from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
        plus = uniform_superposition(1)
        # single degeneracy group: the projector keeps everything
        assert diagonal_ensemble(spec, delta, plus) == pytest.approx(1.0, rel=1e-12)

    def test_infinite_time_average_agreement(self):
        # long Cesaro mean of <r(t)|D|r(t)> against the closed form
        a = from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX")])
        spec = eigendecompose(a)
        delta = all_ones_delta(2)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = StateVector(2, amps / np.linalg.norm(amps))
        coeffs = spec.eigenvectors.conj().T @ r.amplitudes
        t = 0.37 * np.arange(1, 200_001)
        phases = np.exp(-1j * np.outer(spec.eigenvalues, t))
        deig = spec.eigenvectors.conj().T @ as_matrix(delta) @ spec.eigenvectors
        c = coeffs[:, None] * phases
        series = np.einsum("qk,qp,pk->k", c.conj(), deig, c).real
        assert series.mean() == pytest.approx(diagonal_ensemble(spec, delta, r), abs=2e-4)


class TestLogdetGradientOracle:
    def test_dyadic_mask_value(self):
        mask = derivative_mask(2, [(0, 0, 1.0), (3, 3, 1.0), (1, 2, 0.5), (2, 1, 0.5)])
        assert logdet_gradient_oracle(DYADIC_2Q, mask) == pytest.approx(5.0, rel=1e-9)

    def test_matches_finite_difference(self):
        a = from_pauli_terms(2, [PauliTerm(2.0, "II"), PauliTerm(0.5, "ZI"), PauliTerm(0.25, "IX")])
        mask = derivative_mask(2, [(0, 0, 1.0), (1, 1, 2.0), (0, 1, 0.3), (1, 0, 0.3)])
        val = logdet_gradient_oracle(a, mask)
        h = 1e-5
        up = np.linalg.slogdet(a.entries + h * as_matrix(mask))[1]
        dn = np.linalg.slogdet(a.entries - h * as_matrix(mask))[1]
        assert val == pytest.approx((up - dn) / (2 * h), abs=1e-6)

    def test_singular_operator_rejected(self):
        a = operator_from_matrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(SingularityError):
            logdet_gradient_oracle(a, identity_operator(1))


class TestWeights:
    def test_kinds_frozen_values(self):
        e = np.array([0.5, 2.0])
        rng = 1.5
        assert list(WeightSpec(kind="unit").evaluate(e, rng)) == [1.0, 1.0]
        np.testing.assert_allclose(WeightSpec(kind="inverse").evaluate(e, rng), [2.0, 0.5])
        np.testing.assert_allclose(
            WeightSpec(kind="inverse_sqrt").evaluate(e, rng), [math.sqrt(2.0), math.sqrt(0.5)]
        )
        np.testing.assert_allclose(WeightSpec(kind="identity_of_e").evaluate(e, rng), [0.5, 2.0])
        np.testing.assert_allclose(
            WeightSpec(kind="log_of_e").evaluate(e, rng), [math.log(0.5), math.log(2.0)]
        )

    def test_custom_weight(self):
        w = WeightSpec(kind="custom", fn=lambda x: x**2)
        np.testing.assert_allclose(w.evaluate(np.array([2.0, 3.0]), 1.0), [4.0, 9.0])

    def test_reject_inside_window(self):
        w = WeightSpec(kind="inverse", policy="reject")
        window = singularity_window(2.0)
        with pytest.raises(SingularityError):
            w.evaluate(np.array([1.0, window / 2]), 2.0)

    def test_regularized_inverse_is_finite_and_odd(self):
        w = WeightSpec(kind="inverse", policy="regularize", eta=1e-3)
        vals = w.evaluate(np.array([0.0, 1e-3, -1e-3, 1.0]), 2.0)
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(500.0)
        assert vals[2] == pytest.approx(-500.0)
        assert vals[3] == pytest.approx(1.0 / (1.0 + 1e-6))

    def test_negative_sqrt_policies(self):
        e = np.array([-1.0, 1.0])
        for policy in ("reject", "regularize"):
            with pytest.raises(SingularityError, match="inverse_sqrt weight is complex at negative eigenvalue E = -1.0"):
                WeightSpec(kind="inverse_sqrt", policy=policy, eta=1e-6).evaluate(e, 2.0)
            # inside the reject window too: no policy lets a negative energy through
            with pytest.raises(SingularityError, match="inverse_sqrt weight is complex at negative eigenvalue E = -1e-12"):
                WeightSpec(kind="inverse_sqrt", policy=policy).evaluate(np.array([-1e-12, 1.0]), 2.0)

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("policy", ["reject", "regularize"])
    def test_no_weight_is_complex(self, kind, policy):
        w = WeightSpec(kind=kind, policy=policy, fn=(lambda e: np.cos(3.0 * e)) if kind == "custom" else None)
        try:
            values = w.evaluate(np.array([-1.0, -1e-12, 0.0, 1e-12, 0.5]), 2.0)
        except SingularityError:
            return
        assert values.dtype == np.float64

    def test_complex_custom_weight_raises(self):
        w = WeightSpec(kind="custom", fn=lambda e: np.exp(1j * e))
        with pytest.raises(SingularityError, match="custom weight returned complex values"):
            w.evaluate(np.array([0.5, 1.0]), 1.0)

    def test_log_floor(self):
        w = WeightSpec(kind="log_of_e", policy="regularize", eta=1e-4)
        vals = w.evaluate(np.array([0.0, -2.0]), 4.0)
        assert vals[0] == pytest.approx(math.log(1e-4))
        assert vals[1] == pytest.approx(math.log(2.0))

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            WeightSpec(kind="nope")
        with pytest.raises(ConfigError):
            WeightSpec(kind="inverse", policy="ignore")
        with pytest.raises(ConfigError):
            WeightSpec(kind="custom")
        with pytest.raises(ConfigError):
            WeightSpec(kind="inverse", eta=-1.0)
