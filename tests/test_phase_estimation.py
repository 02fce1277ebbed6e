"""Register binning arithmetic, weighting, and the dense circuit oracles."""

import math
import warnings

import numpy as np
import pytest

from ethsim import (
    ConfigError,
    DomainError,
    PauliTerm,
    PhaseCollisionWarning,
    QpeConfig,
    SingularityError,
    Spectrum,
    StateVector,
    WeightSpec,
    WeightedJointState,
    apply_upsilon,
    eigendecompose,
    energy_table,
    from_pauli_terms,
    operator_from_matrix,
    phase_map,
    qpe_disentangle,
    qpe_entangle,
    register_indices,
    register_residual,
    reweighted_delta,
    system_slice,
    uniform_superposition,
)
from ethsim.core import all_ones_delta, identity_operator
from ethsim.phase_estimation import (
    OCCUPANCY_EPS,
    _hadamard_matrix,
    eigen_weights,
    energy_of_index,
    entangle_matrix,
    half_power_table,
    joint_observable_matrix,
    qpe_sandwich_matrix,
    reached_weight_table,
    register_amplitudes,
    upsilon_table,
)
from ethsim.weights import WEIGHT_KINDS
from helpers import as_matrix

SIGMA_Z = eigendecompose(from_pauli_terms(1, [PauliTerm(1.0, "Z")]))
DYADIC_2Q = eigendecompose(
    from_pauli_terms(2, [PauliTerm(0.625, "II"), PauliTerm(0.25, "ZI"), PauliTerm(0.125, "IZ")])
)
DYADIC_QPE = QpeConfig(m=3, shift=0.0, scale=0.5)


class TestPhaseMap:
    def test_sigma_z_bins(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        assert phase_map(config, -1.0) == 0
        assert phase_map(config, 1.0) == 2

    def test_out_of_range_phase(self):
        config = QpeConfig(m=2, shift=0.0, scale=0.25)
        with pytest.raises(ConfigError):
            phase_map(config, -0.5)
        with pytest.raises(ConfigError):
            phase_map(config, 4.0)

    def test_decode_roundtrip_on_dyadic(self):
        for e in DYADIC_2Q.eigenvalues:
            k = phase_map(DYADIC_QPE, e)
            assert energy_of_index(DYADIC_QPE, k) == pytest.approx(e, abs=1e-14)

    def test_energy_table_matches_decode(self):
        table = energy_table(DYADIC_QPE)
        assert len(table) == 8
        for k in range(8):
            assert table[k] == pytest.approx(energy_of_index(DYADIC_QPE, k))

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            energy_of_index(DYADIC_QPE, 8)

    def test_register_indices_dyadic(self):
        np.testing.assert_array_equal(register_indices(DYADIC_2Q, DYADIC_QPE), [1, 2, 3, 4])

    @pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_register_indices_match_the_scalar_phase_map(self, seed):
        """One array expression, bit-identical to phase_map per eigenvalue,
        with phase_map's error for the first energy outside the register."""
        rng = np.random.default_rng(seed)
        for m in (1, 3, 6):
            shift, scale = rng.normal(), rng.uniform(0.2, 3.0)
            # bin centres, half-bin ties and random points, some just outside [0, 1)
            phases = np.concatenate([np.arange(2**m) / 2**m, (np.arange(2**m) + 0.5) / 2**m, rng.uniform(0.0, 1.0, 40)])
            for lo, hi in ((0.0, 1.0), (-0.2, 1.0), (0.0, 1.3)):
                energies = np.sort(shift + np.clip(phases * (hi - lo) + lo, lo, hi) / scale)
                spec = Spectrum(energies, np.eye(energies.size), tuple((i,) for i in range(energies.size)))
                config = QpeConfig(m=m, shift=shift, scale=scale)
                try:
                    want = np.array([phase_map(config, e) for e in spec.eigenvalues], dtype=int)
                except ConfigError as exc:
                    with pytest.raises(ConfigError) as err:
                        register_indices(spec, config)
                    assert str(err.value) == str(exc)
                    continue
                got = register_indices(spec, config)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_collision_warns(self):
        config = QpeConfig(m=1, shift=-1.0, scale=0.05)
        with pytest.warns(PhaseCollisionWarning):
            register_indices(SIGMA_Z, config)

    def test_collisions_warn_once_per_call(self):
        # 64 distinct levels in [0.1, 0.9] fall into the 7 bins 1..7 of a 3-bit register
        spec = eigendecompose(operator_from_matrix(np.diag(np.linspace(0.1, 0.9, 64)).astype(complex)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            register_indices(spec, QpeConfig(m=3, shift=0.0, scale=1.0))
        assert [w.category for w in caught] == [PhaseCollisionWarning]
        message = str(caught[0].message)
        assert message.startswith("64 eigenvalue groups share register bins")
        assert f"first 0.1 and {spec.eigenvalues[1]} in bin 1" in message

    def test_degenerate_levels_do_not_warn(self):
        spec = eigendecompose(identity_operator(1))
        config = QpeConfig(m=2, shift=0.0, scale=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            register_indices(spec, config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            QpeConfig(m=0)
        with pytest.raises(ConfigError):
            QpeConfig(m=2, scale=0.0)
        with pytest.raises(ConfigError):
            QpeConfig(m=2, mode="measured")


@pytest.mark.parametrize("m", range(1, 7))
def test_hadamard_matrix_matches_the_popcount_signs(m):
    dim = 2**m
    j = np.arange(dim)
    signs = (-1.0) ** np.array([[bin(a & b).count("1") for b in j] for a in j], dtype=float)
    np.testing.assert_array_equal(_hadamard_matrix(m), signs / np.sqrt(dim))


class TestEntangle:
    def test_two_term_expansion(self):
        # sigma z on |+>: E=-1 pairs with bin 0, E=+1 with bin 2
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        amps = joint.amplitudes.reshape(2, 4)
        # eigenvector of -1 is |1>, of +1 is |0>
        assert abs(amps[1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(amps[0, 2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_circuit_matches_binning_on_dyadic(self):
        r = StateVector(2, np.array([0.5, 0.5, 0.5j, -0.5], dtype=complex))
        exact = qpe_entangle(DYADIC_2Q, r, DYADIC_QPE)
        circ = qpe_entangle(
            DYADIC_2Q, r, QpeConfig(m=3, shift=0.0, scale=0.5, mode="circuit")
        )
        np.testing.assert_allclose(circ.amplitudes, exact.amplitudes, atol=1e-12)

    def test_roundtrip_restores_register(self):
        r = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        joint = qpe_entangle(DYADIC_2Q, r, DYADIC_QPE)
        back = qpe_disentangle(WeightedJointState.wrap(joint), DYADIC_2Q, DYADIC_QPE)
        assert register_residual(back, DYADIC_QPE) <= 1e-14
        np.testing.assert_allclose(system_slice(back, DYADIC_QPE), r.amplitudes, atol=1e-12)

    def test_entangle_matrix_unitary(self):
        for mode in ("exact-binning", "circuit"):
            u = entangle_matrix(DYADIC_2Q, QpeConfig(m=3, shift=0.0, scale=0.5, mode=mode))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(32), atol=1e-12)

    def test_entangle_matrix_agrees_with_transform(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        u = entangle_matrix(SIGMA_Z, config)
        psi = uniform_superposition(1)
        joint0 = np.zeros(8, dtype=complex)
        joint0[::4] = psi.amplitudes  # register |00> slices
        np.testing.assert_allclose(
            u @ joint0, qpe_entangle(SIGMA_Z, psi, config).amplitudes, atol=1e-12
        )


class TestUpsilon:
    def test_unit_weight_is_noop(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        weighted = apply_upsilon(joint, config, WeightSpec(kind="unit"))
        assert weighted.norm_factor == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(weighted.joint.amplitudes, joint.amplitudes, atol=1e-12)

    def test_half_power_rejects_negative_base(self):
        config = QpeConfig(m=2, shift=-2.0, scale=0.2)  # decoded energies straddle zero
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        with pytest.raises(SingularityError):
            apply_upsilon(joint, config, WeightSpec(kind="identity_of_e"), power="half")

    def test_half_power_regularized_lets_no_negative_weight_through(self):
        config = QpeConfig(m=2, shift=-2.0, scale=0.2)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        w = WeightSpec(kind="identity_of_e", policy="regularize", eta=1e-9)
        with pytest.raises(SingularityError, match="negative weight at decoded energy -0.75 under half power"):
            apply_upsilon(joint, config, w, power="half")

    def test_norm_factor_bookkeeping(self):
        # decoded energies -1 and +1 take weights 1 and 1/3 on equal slices
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        w = WeightSpec(kind="custom", fn=lambda e: 1.0 / (e + 2.0))
        weighted = apply_upsilon(joint, config, w)
        assert weighted.norm_factor == pytest.approx(math.sqrt(0.5 * (1.0 + 1.0 / 9.0)), rel=1e-12)
        assert np.linalg.norm(weighted.joint.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_bad_power(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        with pytest.raises(ConfigError):
            apply_upsilon(joint, config, WeightSpec(kind="unit"), power="two")

    def test_annihilating_weight(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        joint = qpe_entangle(SIGMA_Z, uniform_superposition(1), config)
        with pytest.raises(SingularityError):
            apply_upsilon(joint, config, WeightSpec(kind="custom", fn=lambda e: 0.0 * e))


class TestLeakage:
    NONDYADIC = eigendecompose(operator_from_matrix(np.diag([0.9, 2.1]).astype(complex)))

    def test_exact_binning_has_no_residual(self):
        config = QpeConfig(m=3, shift=0.0, scale=0.3)
        joint = qpe_entangle(self.NONDYADIC, uniform_superposition(1), config)
        weighted = apply_upsilon(joint, config, WeightSpec(kind="inverse"), power="half")
        back = qpe_disentangle(weighted, self.NONDYADIC, config)
        assert register_residual(back, config) <= 1e-13

    def test_circuit_mode_leaks_off_grid(self):
        # positive shift keeps every decoded bin energy away from zero, so the
        # leaked slices are weighted rather than rejected
        config = QpeConfig(m=3, shift=0.1, scale=0.3, mode="circuit")
        joint = qpe_entangle(self.NONDYADIC, uniform_superposition(1), config)
        weighted = apply_upsilon(joint, config, WeightSpec(kind="inverse"), power="half")
        back = qpe_disentangle(weighted, self.NONDYADIC, config)
        assert register_residual(back, config) > 1e-6

    def test_circuit_mode_exact_on_dyadic(self):
        config = QpeConfig(m=3, shift=0.0, scale=0.5, mode="circuit")
        r = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        joint = qpe_entangle(DYADIC_2Q, r, config)
        weighted = apply_upsilon(joint, config, WeightSpec(kind="inverse"), power="half")
        back = qpe_disentangle(weighted, DYADIC_2Q, config)
        assert register_residual(back, config) <= 1e-12


class TestReweightedDelta:
    def test_diagonal_scaled_offdiagonal_kept(self):
        delta = all_ones_delta(2)
        out = reweighted_delta(delta, DYADIC_2Q, WeightSpec(kind="inverse"))
        v = DYADIC_2Q.eigenvectors
        deig_in = v.conj().T @ as_matrix(delta) @ v
        deig_out = v.conj().T @ out.entries @ v
        f = 1.0 / DYADIC_2Q.eigenvalues
        np.testing.assert_allclose(np.diag(deig_out), np.diag(deig_in) * f, atol=1e-12)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(deig_out[off], deig_in[off], atol=1e-12)

    def test_explicit_energies_override(self):
        delta = identity_operator(2)
        out = reweighted_delta(
            delta, DYADIC_2Q, WeightSpec(kind="inverse"), energies=[2.0, 2.0, 2.0, 2.0]
        )
        np.testing.assert_allclose(out.entries, 0.5 * np.eye(4), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            reweighted_delta(identity_operator(1), DYADIC_2Q, WeightSpec(kind="unit"))


class TestJointObservable:
    def test_hermitian(self):
        obs = joint_observable_matrix(
            all_ones_delta(2), DYADIC_2Q, DYADIC_QPE, WeightSpec(kind="inverse")
        )
        np.testing.assert_allclose(obs, obs.conj().T, atol=1e-12)

    def test_sandwich_equals_masked_eigen_matrix(self):
        delta = all_ones_delta(2)
        w = WeightSpec(kind="inverse")
        got = qpe_sandwich_matrix(delta, DYADIC_2Q, DYADIC_QPE, w)
        v = DYADIC_2Q.eigenvectors
        deig = v.conj().T @ as_matrix(delta) @ v
        kp = register_indices(DYADIC_2Q, DYADIC_QPE)
        f = w.evaluate(energy_table(DYADIC_QPE)[kp], DYADIC_QPE.representable_span)
        g = deig * (kp[:, None] == kp[None, :]) * f[None, :]
        np.testing.assert_allclose(got, v @ g @ v.conj().T, atol=1e-12)

    def test_merged_bins_pass_delta_through(self):
        # both sigma z levels share bin 0, so the unit-weight sandwich is Delta itself
        config = QpeConfig(m=1, shift=-1.0, scale=0.05)
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        with pytest.warns(PhaseCollisionWarning):
            got = qpe_sandwich_matrix(delta, SIGMA_Z, config, WeightSpec(kind="unit"))
        np.testing.assert_allclose(got, as_matrix(delta), atol=1e-12)

    def test_resolved_bins_keep_only_diagonal(self):
        config = QpeConfig(m=2, shift=-1.0, scale=0.25)
        delta = all_ones_delta(1, scale=math.sqrt(2.0))
        got = qpe_sandwich_matrix(delta, SIGMA_Z, config, WeightSpec(kind="unit"))
        v = SIGMA_Z.eigenvectors
        deig = v.conj().T @ as_matrix(delta) @ v
        np.testing.assert_allclose(got, v @ np.diag(np.diag(deig)) @ v.conj().T, atol=1e-12)


class TestUpsilonTable:
    def test_unoccupied_singular_bin_clamped(self):
        # bin 0 decodes to energy 0 but nothing maps there
        table = upsilon_table(DYADIC_2Q, DYADIC_QPE, WeightSpec(kind="inverse"))
        assert table[0] == 0.0
        assert table[1] == pytest.approx(4.0)  # decoded 0.25
        assert table[4] == pytest.approx(1.0)  # decoded 1.0

    def test_occupied_singular_bin_raises(self):
        spec = eigendecompose(operator_from_matrix(np.diag([0.0, 1.0]).astype(complex)))
        with pytest.raises(SingularityError):
            upsilon_table(spec, QpeConfig(m=3, shift=0.0, scale=0.5), WeightSpec(kind="inverse"))


def _straddling_amplitudes():
    """Two register rows over 8 bins whose column sums hold exact zeros, a
    nonzero sum below OCCUPANCY_EPS, sums just either side of it and O(1)
    sums; bin 4 (decoded energy 0 under shift -0.5) stays unreached."""
    eps = OCCUPANCY_EPS
    rows = np.array(
        [
            [0.0, eps * (1 + 1e-6), eps * (1 - 1e-6), 0.25, 1e-30, 0.35, eps * 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.15, 0.0, 0.25, eps * 0.5 * (1 + 1e-6), 0.0],
        ]
    )
    phases = np.exp(1j * np.arange(16).reshape(2, 8))
    return np.sqrt(rows) * phases


class TestSharedBinWeightTable:
    """reached_weight_table weighs the bins above OCCUPANCY_EPS, half_power_table
    roots it, and apply_upsilon weighs a state's occupancy by the same threshold."""

    AMPS = _straddling_amplitudes()
    OCC = np.sum(np.abs(AMPS) ** 2, axis=0)
    POSITIVE = QpeConfig(m=3, shift=0.5, scale=1.0)  # decoded energies 0.5 .. 1.375
    STRADDLING = QpeConfig(m=3, shift=-0.5, scale=1.0)  # -0.5 .. 0.375, bin 4 at 0
    CASES = [
        (kind, policy, config)
        for kind in WEIGHT_KINDS
        for policy in ("reject", "regularize")
        for config in ("POSITIVE", "STRADDLING")
        # the one kind whose reached bins do not evaluate: 1/sqrt(E) at E < 0
        if (kind, config) != ("inverse_sqrt", "STRADDLING")
    ]

    @staticmethod
    def weight(kind, policy):
        return WeightSpec(kind=kind, policy=policy, fn=(lambda e: np.cos(3.0 * e)) if kind == "custom" else None)

    def test_the_occupancies_straddle_the_threshold(self):
        occ = self.OCC
        assert np.any(occ == 0.0)
        assert np.any((occ > 0.0) & (occ < OCCUPANCY_EPS))
        assert np.any((occ > OCCUPANCY_EPS) & (occ < 1.001 * OCCUPANCY_EPS))
        assert np.any((occ < OCCUPANCY_EPS) & (occ > 0.999 * OCCUPANCY_EPS))
        assert occ[4] < OCCUPANCY_EPS

    @pytest.mark.parametrize("kind,policy,config", CASES)
    def test_the_reached_table_weighs_the_bins_above_the_threshold(self, kind, policy, config):
        qpe, w = getattr(self, config), self.weight(kind, policy)
        table = reached_weight_table(self.AMPS, qpe, w)
        assert table.dtype == np.float64
        assert np.all(table[self.OCC <= OCCUPANCY_EPS] == 0.0)
        reached = self.OCC > OCCUPANCY_EPS
        np.testing.assert_array_equal(table[reached], w.evaluate(energy_table(qpe)[reached], qpe.representable_span))

    @pytest.mark.parametrize("kind,policy,config", CASES)
    def test_half_power_is_the_root_of_the_reached_table(self, kind, policy, config):
        qpe, w = getattr(self, config), self.weight(kind, policy)
        table = reached_weight_table(self.AMPS, qpe, w)
        if np.any(table < 0):
            with pytest.raises(SingularityError, match="negative weight at decoded energy"):
                half_power_table(table, qpe)
        else:
            assert half_power_table(table, qpe).tobytes() == np.sqrt(table).tobytes()

    def test_apply_upsilon_weighs_the_occupied_bins_by_the_reached_table(self):
        w = WeightSpec(kind="inverse")
        weighted = apply_upsilon(StateVector(4, self.AMPS.reshape(-1)), self.POSITIVE, w)
        rows = weighted.joint.amplitudes.reshape(2, 8) * weighted.norm_factor
        np.testing.assert_allclose(rows, self.AMPS * reached_weight_table(self.AMPS, self.POSITIVE, w), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("policy", ["reject", "regularize"])
    def test_inverse_sqrt_at_a_negative_energy_raises_under_either_policy(self, policy):
        with pytest.raises(SingularityError, match="inverse_sqrt weight is complex at negative eigenvalue E = -0.375"):
            reached_weight_table(self.AMPS, self.STRADDLING, self.weight("inverse_sqrt", policy))

    @pytest.mark.parametrize("policy", ["reject", "regularize"])
    def test_half_power_negative_weight_message(self, policy):
        table = reached_weight_table(self.AMPS, self.STRADDLING, WeightSpec(kind="identity_of_e", policy=policy))
        with pytest.raises(SingularityError) as err:
            half_power_table(table, self.STRADDLING)
        assert str(err.value) == "negative weight at decoded energy -0.375 under half power"

    @pytest.mark.parametrize("power", ["one", "half"])
    def test_annihilated_slices_message(self, power):
        w = WeightSpec(kind="custom", fn=lambda e: 0.0 * e)
        with pytest.raises(SingularityError) as err:
            apply_upsilon(StateVector(4, self.AMPS.reshape(-1)), self.POSITIVE, w, power=power)
        assert str(err.value) == "weighting annihilated every occupied register slice"
        np.testing.assert_array_equal(reached_weight_table(self.AMPS, self.POSITIVE, w), 0.0)


class TestDecodedEnergies:
    SPEC = eigendecompose(operator_from_matrix(np.diag([0.9, 1.3, 2.1, 2.6]).astype(complex)))

    def test_exact_binning_reads_the_decoded_bin_energy(self):
        qpe = QpeConfig(m=3, shift=0.5, scale=0.25)
        got = eigen_weights(self.SPEC, qpe, register_amplitudes(self.SPEC, qpe), WeightSpec(kind="identity_of_e"))
        np.testing.assert_array_equal(got, energy_table(qpe)[register_indices(self.SPEC, qpe)])
        assert not np.array_equal(got, self.SPEC.eigenvalues)

    def test_circuit_mode_reads_the_eigenvalues(self):
        qpe = QpeConfig(m=3, shift=0.5, scale=0.25, mode="circuit")
        got = eigen_weights(self.SPEC, qpe, register_amplitudes(self.SPEC, qpe), WeightSpec(kind="identity_of_e"))
        np.testing.assert_array_equal(got, self.SPEC.eigenvalues)
