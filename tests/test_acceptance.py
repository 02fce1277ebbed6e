"""End-to-end acceptance runs, one per deliverable behavior.

Each test drives the public API the way a user would and checks the stated
tolerance, then prints a single PASS line (visible under pytest -s) so the
whole gate reads as a checklist. Tolerances here are the contract: loosening
them is a behavior change, not a test fix.
"""

import contextlib
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from ethsim import (
    EthConfig,
    EvolutionConfig,
    InitialState,
    PauliTerm,
    PhaseCollisionWarning,
    QpeConfig,
    WeightSpec,
    basis_state,
    build_preset,
    diagonal_ensemble,
    eigendecompose,
    energy_table,
    estimate_inverse_expectation,
    evolve_exact,
    evolve_trotter,
    execute_experiment,
    from_pauli_terms,
    inverse_expectation_result,
    logdet_gradient_oracle,
    logdet_gradient_result,
    matrix_function,
    operator_from_matrix,
    random_state,
    register_indices,
    reweighted_delta,
    run_operator_form,
    swap_test_estimate,
    uniform_superposition,
)
from ethsim.core import all_ones_delta
from ethsim.phase_estimation import entangle_matrix, qpe_sandwich_matrix
from ethsim.runner import build_delta, build_operator
from helpers import as_matrix

RT2 = math.sqrt(2.0)


def _pass(label: str, detail: str) -> None:
    print(f"acceptance[{label}]: PASS {detail}")


@contextlib.contextmanager
def _merged_register_ok():
    """Merged-bin registers warn about phase collisions by design."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhaseCollisionWarning)
        yield


def rotated_dyadic_problem():
    """Seeded 2-qubit operator with dyadic spectrum in a random eigenbasis.

    The register at m=3, scale=0.5 decodes each eigenvalue exactly, and the
    explicit initial state carries uniform eigenbasis populations, which the
    inverse-expectation average needs to converge.
    """
    rng = np.random.default_rng(101)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v, _ = np.linalg.qr(g)
    mat = v @ np.diag([0.25, 0.5, 0.75, 1.0]) @ v.conj().T
    a = operator_from_matrix(0.5 * (mat + mat.conj().T))
    phi = uniform_superposition(2)
    init = InitialState(kind="explicit", amplitudes=tuple(v @ np.full(4, 0.5)))
    qpe = QpeConfig(m=3, shift=0.0, scale=0.5)
    spec = eigendecompose(a)
    inv = matrix_function(spec, WeightSpec(kind="inverse")).entries
    target = float((phi.amplitudes.conj() @ inv @ phi.amplitudes).real)
    return a, phi, init, qpe, target


class TestThermalizingPlateau:
    def test_reference_run_hits_the_plateau_fast(self):
        cfg = build_preset("paper-example")
        a = build_operator(cfg)
        delta = build_delta(cfg, 1)
        with _merged_register_ok():
            start = time.perf_counter()
            out = run_operator_form(a, delta, cfg.weight, cfg.eth, cfg.qpe)
            elapsed = time.perf_counter() - start
        gap = abs(out.estimate - 1.0 / RT2)
        assert gap <= 5e-7
        assert elapsed < 10.0
        assert out.thermalized.verdict == "THERMALIZED"
        _pass("thermalizing-plateau", f"gap={gap:.2e} runtime={elapsed:.2f}s")

    def test_hundred_random_phase_restarts_match_the_oracle(self):
        cfg = build_preset("paper-example")
        a = build_operator(cfg)
        delta = build_delta(cfg, 1)
        worst = 0.0
        with _merged_register_ok():
            for s in range(100):
                eth = EthConfig(
                    dt=cfg.eth.dt,
                    num_steps=10_000,
                    initial_state=InitialState(kind="phase-product", seed=s),
                )
                out = run_operator_form(a, delta, cfg.weight, eth, cfg.qpe)
                gap = abs(out.thermalized.plateau - out.thermalized.diagonal_target)
                # commensurate grid: batch means coincide and the SE can
                # underflow, so the tolerance keeps an absolute floor
                tol = max(5.0 * out.thermalized.standard_error, 1e-12)
                assert gap <= tol, f"restart {s}: gap {gap:.3e} > {tol:.3e}"
                worst = max(worst, gap / tol)
        _pass("phase-restarts", f"100 restarts, worst gap/tol={worst:.3f}")


class TestCounterexampleVerdicts:
    def _run(self, name):
        cfg = build_preset(name)
        a = build_operator(cfg)
        delta = build_delta(cfg, a.dim.bit_length() - 1)
        with _merged_register_ok():
            return run_operator_form(a, delta, cfg.weight, cfg.eth, cfg.qpe)

    @pytest.mark.parametrize("name", ["integrable-counterexample", "trace-counterexample"])
    def test_biased_starts_plateau_away_from_the_trace(self, name):
        out = self._run(name)
        v = out.thermalized
        assert v.verdict == "DIAGONAL-ENSEMBLE-ONLY"
        assert v.commutator <= 1e-10
        diag_gap = abs(v.plateau - v.diagonal_target)
        trace_gap = abs(v.plateau - v.trace_target)
        assert diag_gap <= 1e-9
        assert trace_gap > 0.1
        _pass(f"counterexample:{name}", f"diag_gap={diag_gap:.2e} trace_gap={trace_gap:.3f}")


class TestInverseExpectationConvergence:
    def test_operator_form_is_flat_on_the_exact_register(self):
        a, phi, init, qpe, target = rotated_dyadic_problem()
        vals = []
        for k in (256, 512):
            eth = EthConfig(dt=0.37, num_steps=k, initial_state=init)
            vals.append(estimate_inverse_expectation(a, phi, eth, qpe, form="operator"))
        assert abs(vals[1] - vals[0]) <= 5e-5
        gap = abs(vals[-1] - target)
        assert gap <= 1e-4
        _pass("inverse-operator-form", f"gap={gap:.2e} at {512} steps")

    def test_vector_form_converges_under_time_doubling(self):
        a, phi, init, qpe, target = rotated_dyadic_problem()
        # double the horizon until two consecutive doublings move the
        # estimate by <= 5e-5; a single small move can be an oscillation node
        k, prev, small, val = 1 << 13, None, 0, None
        while k <= 1 << 21:
            eth = EthConfig(dt=0.37, num_steps=k, initial_state=init)
            val = estimate_inverse_expectation(a, phi, eth, qpe, form="vector")
            if prev is not None:
                small = small + 1 if abs(val - prev) <= 5e-5 else 0
            if small >= 2:
                break
            prev = val
            k *= 2
        assert small >= 2, "no plateau before the doubling cap"
        gap = abs(val - target)
        assert gap <= 1e-4
        _pass("inverse-vector-form", f"gap={gap:.2e} plateau at {k} steps")

    @pytest.mark.parametrize("form,steps", [("operator", 1024), ("vector", 512)])
    def test_shot_sampling_agrees_within_three_standard_errors(self, form, steps):
        a, phi, init, qpe, target = rotated_dyadic_problem()
        eth = EthConfig(
            dt=0.37,
            num_steps=steps,
            initial_state=init,
            sampling="shots",
            shots=10_000,
            seed=31,
        )
        out = inverse_expectation_result(a, phi, eth, qpe, form=form)
        gap = abs(out.value - target)
        assert out.standard_error > 0.0
        assert gap <= 3.0 * out.standard_error
        assert out.raw.cost.shots == 10_000 * steps
        _pass(f"inverse-shots:{form}", f"gap={gap:.2e} 3se={3 * out.standard_error:.2e}")


class TestLogdetGradient:
    def test_masked_trace_and_finite_difference_agree(self):
        cfg = build_preset("logdet-2q")
        a = build_operator(cfg)
        mask = build_delta(cfg, 2)
        oracle = logdet_gradient_oracle(a, mask)
        np.testing.assert_allclose(oracle, 5.0, rtol=0, atol=1e-12)

        res = logdet_gradient_result(a, mask, cfg.eth, cfg.qpe)
        gap = abs(res.value - oracle)
        assert gap <= 1e-3

        h = 1e-4
        up = np.linalg.slogdet(a.entries + h * as_matrix(mask))
        dn = np.linalg.slogdet(a.entries - h * as_matrix(mask))
        assert up.sign > 0 and dn.sign > 0
        fd = (up.logabsdet - dn.logabsdet) / (2.0 * h)
        fd_gap = abs(res.value - fd)
        fd_tol = max(3.0 * res.standard_error, 1e-3)
        assert fd_gap <= fd_tol
        _pass("logdet-gradient", f"gap={gap:.2e} fd_gap={fd_gap:.2e}")


class TestRegisterReweightingEquivalence:
    def test_weighted_run_equals_reweighted_observable_run(self):
        a, _, init, qpe, _ = rotated_dyadic_problem()
        spec = eigendecompose(a)
        rng = np.random.default_rng(7)
        d0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        delta = operator_from_matrix(0.5 * (d0 + d0.conj().T))
        w = WeightSpec(kind="inverse")
        eth = EthConfig(dt=0.37, num_steps=512, initial_state=init)

        lhs = run_operator_form(a, delta, w, eth, qpe)
        decoded = energy_table(qpe)[register_indices(spec, qpe)]
        folded = reweighted_delta(delta, spec, w, energies=decoded)
        rhs = run_operator_form(a, folded, WeightSpec(kind="unit"), eth, qpe)
        np.testing.assert_allclose(lhs.series, rhs.series, rtol=0, atol=1e-10)
        _pass("reweighting-series", f"max step diff={np.abs(lhs.series - rhs.series).max():.2e}")

    def test_circuit_composite_matches_the_folded_observable(self):
        a, _, _, _, _ = rotated_dyadic_problem()
        spec = eigendecompose(a)
        w = WeightSpec(kind="inverse")
        circuit = QpeConfig(m=3, shift=0.0, scale=0.5, mode="circuit")

        # an observable that shares the eigenbasis folds identically as a
        # full matrix; a generic one only on the eigenbasis diagonal, since
        # folding keeps off-diagonals the register sandwich decoheres
        ac = a.entries
        commuting = operator_from_matrix(ac @ ac - 0.3 * ac + 0.6 * np.eye(4))
        sandwich_c = qpe_sandwich_matrix(commuting, spec, circuit, w)
        folded_c = reweighted_delta(commuting, spec, w)
        np.testing.assert_allclose(sandwich_c, folded_c.entries, rtol=0, atol=1e-10)

        rng = np.random.default_rng(7)
        d0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        generic = operator_from_matrix(0.5 * (d0 + d0.conj().T))
        sandwich_g = qpe_sandwich_matrix(generic, spec, circuit, w)
        folded_g = reweighted_delta(generic, spec, w)
        v = spec.eigenvectors
        np.testing.assert_allclose(
            np.diag(v.conj().T @ sandwich_g @ v),
            np.diag(v.conj().T @ folded_g.entries @ v),
            rtol=0,
            atol=1e-10,
        )
        _pass("reweighting-composite", "commuting full-matrix, generic eigen-diagonal")


class TestEstimatorInvariants:
    def test_trotter_error_exponents(self):
        terms = (PauliTerm(1.0, "Z"), PauliTerm(0.7, "X"))
        spec = eigendecompose(from_pauli_terms(1, terms))
        psi = uniform_superposition(1)
        exact = evolve_exact(spec, psi, 1.0).amplitudes
        dts = np.array([0.5, 0.25, 0.125, 0.0625])
        for method, order in (("trotter1", 1.0), ("trotter2", 2.0)):
            errs = []
            for d in dts:
                out, _ = evolve_trotter(terms, psi, 1.0, EvolutionConfig(method=method, dt=float(d)))
                errs.append(np.linalg.norm(out.amplitudes - exact))
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert abs(slope - order) <= 0.2, f"{method}: slope {slope:.3f}"
        _pass("trotter-orders", "first and second order slopes within 0.2")

    def test_time_doubling_halves_the_plateau_gap(self):
        a = from_pauli_terms(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX")])
        delta = all_ones_delta(2)
        qpe = QpeConfig(m=1, shift=-2.0, scale=0.01)
        eth = EthConfig(dt=0.37, num_steps=16 * 512)
        with _merged_register_ok():
            out = run_operator_form(a, delta, WeightSpec(kind="unit"), eth, qpe)
        dev = np.abs(out.running_mean - out.thermalized.diagonal_target)
        # octave envelope: pointwise gaps oscillate through zero, the
        # per-octave sup decays like 1/T
        gaps = [float(dev[k : 2 * k].max()) for k in (512, 1024, 2048, 4096)]
        ratios = [gaps[i + 1] / gaps[i] for i in range(3)]
        for r in ratios:
            assert 0.35 <= r <= 0.65, f"ratios {ratios}"
        _pass("time-doubling", "three consecutive halvings, ratios " + str([round(r, 2) for r in ratios]))

    def test_swap_test_error_scales_with_the_shot_budget(self):
        u = basis_state(1, 0)
        v = uniform_superposition(1)
        stds = {}
        for shots in (256, 4096):
            vals = [swap_test_estimate(u, v, shots=shots, seed=s) for s in range(400)]
            stds[shots] = float(np.std(vals))
        ratio = stds[256] / stds[4096]
        # 16x the shots should cut the spread ~4x
        assert 2.0 <= ratio <= 8.0
        _pass("swap-shot-scaling", f"std ratio={ratio:.2f} over a 16x sweep")

    def test_norm_hermiticity_and_unitarity(self):
        terms = (PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IX"))
        a = from_pauli_terms(2, terms)
        spec = eigendecompose(a)
        psi = random_state(2, seed=5)

        evolved = evolve_exact(spec, psi, 1.7)
        assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) <= 1e-12
        stepped, _ = evolve_trotter(terms, psi, 1.7, EvolutionConfig(method="trotter2", dt=0.1))
        assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) <= 1e-12

        rebuilt = spec.operator()
        assert np.abs(rebuilt - rebuilt.conj().T).max() <= 1e-12

        dyadic, _, _, qpe, _ = rotated_dyadic_problem()
        dspec = eigendecompose(dyadic)
        for mode in ("exact-binning", "circuit"):
            u = entangle_matrix(dspec, dataclasses.replace(qpe, mode=mode))
            eye = np.eye(u.shape[0])
            assert np.abs(u.conj().T @ u - eye).max() <= 1e-12
        _pass("structure-invariants", "norms, Hermiticity, register unitarity at 1e-12")


class TestCommandContract:
    def _runnable(self, name, out_dir):
        cfg = build_preset(name)
        return cfg.with_outputs(out_dir=str(out_dir))

    @pytest.mark.parametrize("name", ["inverse-2q", "logdet-2q"])
    def test_exact_register_presets_beat_their_documented_tolerance(self, name, tmp_path):
        result = execute_experiment(self._runnable(name, tmp_path))
        s = result.summary
        assert s["oracle_gap"] <= s["tolerance"]
        _pass(f"preset-gap:{name}", f"oracle_gap={s['oracle_gap']:.2e} tol={s['tolerance']:.0e}")

    def test_cost_counters_track_the_schedule(self, tmp_path):
        base = build_preset("inverse-2q")
        tallies = {}
        for steps in (320, 640):
            cfg = dataclasses.replace(
                base,
                eth=dataclasses.replace(base.eth, num_steps=steps),
                outputs=dataclasses.replace(base.outputs, out_dir=str(tmp_path / str(steps))),
            )
            s = execute_experiment(cfg).summary
            assert s["cost"]["time_steps"] == cfg.eth.repetitions * steps
            tallies[steps] = s["cost"]["gate_tally"]
        assert tallies[640] == 2 * tallies[320]
        _pass("cost-counters", f"time steps exact, gate tally {tallies[320]} -> {tallies[640]}")


class TestDeterminism:
    def test_identical_seeds_give_byte_identical_series(self, tmp_path):
        runs = []
        for sub in ("a", "b"):
            result = execute_experiment(self._config(tmp_path / sub))
            runs.append(result)
        blobs = [r.series_paths[0].read_bytes() for r in runs]
        assert blobs[0] == blobs[1]
        assert runs[0].summary["estimate"] == runs[1].summary["estimate"]
        _pass("determinism-exact", f"{len(blobs[0])} byte series identical across reruns")

    def test_shot_noise_is_seeded_too(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = self._config(tmp_path / sub)
            cfg = dataclasses.replace(
                cfg,
                eth=dataclasses.replace(cfg.eth, sampling="shots", shots=250, num_steps=256),
            )
            blobs.append(execute_experiment(cfg).series_paths[0].read_bytes())
        assert blobs[0] == blobs[1]
        _pass("determinism-shots", "sampled series identical across reruns")

    @staticmethod
    def _config(out_dir):
        return build_preset("inverse-2q").with_outputs(out_dir=str(out_dir))
