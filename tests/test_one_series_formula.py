"""The one exact-series formula, blocks G_kk = X^dag Y read by _exact_series:
series means of both forms in both register modes against a closed-form
K-step mean, and one _exact_series call per exact repetition."""

import numpy as np
import pytest

from ethsim import EthConfig, InitialState, QpeConfig, StateVector, WeightSpec, run_operator_form, run_vector_form
from ethsim import estimators
from ethsim.core import all_ones_delta, derivative_mask, identity_operator, projector_from_state
from ethsim.phase_estimation import half_power_table, reached_weight_table, register_amplitudes, register_indices
from ethsim.spectral import Spectrum, eigenbasis_factors, in_eigenbasis
from helpers import haar_unitary

KINDS = ("projector", "mask", "identity", "all-ones")
MODES = ("exact-binning", "circuit")
INVERSE = WeightSpec(kind="inverse")


def _unit(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _spectrum(n_qubits, degenerate, seed=1):
    """Seeded spectrum in [1, 2) with Haar eigenvectors. Degenerate repeats its
    levels in groups of 2, 3 and 1 in turn; the other one has no repeats."""
    dim = 2**n_qubits
    rng = np.random.default_rng([seed, n_qubits, degenerate])
    sizes = np.resize([2, 3, 1] if degenerate else [1], dim)
    sizes = sizes[: np.searchsorted(np.cumsum(sizes), dim) + 1]
    sizes[-1] -= sizes.sum() - dim
    levels = np.sort(rng.uniform(1.0, 2.0, size=sizes.size))
    ends = np.cumsum(sizes)
    groups = tuple(tuple(range(end - size, end)) for end, size in zip(ends, sizes))
    return Spectrum(np.repeat(levels, sizes), haar_unitary(rng, dim), groups)


def _delta(kind, n_qubits):
    """The observable a config's delta block builds."""
    dim = 2**n_qubits
    if kind == "projector":
        return projector_from_state(StateVector(n_qubits, _unit(np.random.default_rng(dim), dim)))
    if kind == "mask":
        return derivative_mask(n_qubits, [(0, 0, 1.0), (1, 5, 0.5 - 0.25j), (5, 1, 0.5 + 0.25j), (7, 7, -0.8)])
    if kind == "all-ones":
        return all_ones_delta(n_qubits, scale=0.7)
    return identity_operator(n_qubits)


def _register(spec, mode, m):
    qpe = QpeConfig(m=m, shift=1.0, scale=0.9, mode=mode)
    amps = register_amplitudes(spec, qpe)
    return qpe, amps, reached_weight_table(amps, qpe, INVERSE)


def _dense_g(delta_eig, amps, table):
    """The dense G = Delta^eig o (conj(a) W a^T), built here without _series_kernel."""
    return delta_eig * ((amps.conj() * table) @ amps.T)


def _closed_form_mean(spec, blocks, coeffs, dt, num_steps):
    """(1/K) sum_{j=1..K} c(t_j)^dag G c(t_j) for c_p(t) = c_p exp(-i E_p t), from
    the blocks (indices, G_kk) of a dense G: sum_qp conj(c_q) G_qp c_p D_K(E_q - E_p)
    with D_K(w) = (1/K) sum_j exp(i w j dt) = exp(i x (K+1)) sin(K x) / (K sin x), x = w dt / 2."""
    total = 0.0
    for idx, g in blocks:
        energies, c = spec.eigenvalues[idx], coeffs[idx]
        x = 0.5 * dt * (energies[:, None] - energies[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(x == 0.0, 1.0, np.sin(num_steps * x) / (num_steps * np.sin(x)))
        total += c.conj() @ (g * np.exp(1j * (num_steps + 1) * x) * ratio) @ c
    return float(total.real)


def _oracle_blocks(spec, qpe, amps, g):
    """The blocks of a dense G: one per register bin in exact binning, all of G in circuit mode."""
    if qpe.mode == "circuit":
        return [(np.arange(spec.dim), g)]
    bins = register_indices(spec, qpe)
    return [(idx, g[np.ix_(idx, idx)]) for idx in (np.flatnonzero(bins == k) for k in np.unique(bins))]


def _assert_mean(series, oracle):
    assert abs(series.mean() - oracle) <= 1e-12 * abs(oracle)


ORACLE_ETH = dict(dt=0.37, num_steps=500, seed=4, initial_state=InitialState(kind="haar"))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_operator_form_series_mean_is_the_closed_form(kind, degenerate, mode):
    spec = _spectrum(8, degenerate)
    qpe, amps, table = _register(spec, mode, m=5)
    delta, eth = _delta(kind, 8), EthConfig(**ORACLE_ETH)
    out = run_operator_form(spec, delta, INVERSE, eth, qpe)
    coeffs = spec.coefficients(estimators._resolve_initial_state(eth, 8, 0).amplitudes)
    g = _dense_g(in_eigenbasis(spec, delta), amps, table)
    _assert_mean(out.series, _closed_form_mean(spec, _oracle_blocks(spec, qpe, amps, g), coeffs, eth.dt, eth.num_steps))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("degenerate", [False, True])
def test_vector_form_series_mean_is_the_closed_form(degenerate, mode):
    spec = _spectrum(8, degenerate)
    qpe, amps, table = _register(spec, mode, m=5)
    phi, eth = StateVector(8, _unit(np.random.default_rng(3), spec.dim)), EthConfig(**ORACLE_ETH)
    out = run_vector_form(spec, phi, eth, qpe, INVERSE)
    coeffs = spec.coefficients(estimators._resolve_initial_state(eth, 8, 0).amplitudes)
    # sample = |sum_p conj(b_p) gamma_p c_p(t)|^2 with b = V^dag phi, gamma_p = sum_k |a_p[k]|^2 sqrt(w_k)
    u = spec.coefficients(phi.amplitudes).conj() * (np.abs(amps) ** 2 @ half_power_table(table, qpe))
    g = np.outer(u.conj(), u)
    _assert_mean(out.series, _closed_form_mean(spec, [(np.arange(spec.dim), g)], coeffs, eth.dt, eth.num_steps))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
def test_exact_binning_projector_mean_is_the_closed_form_at_ten_qubits():
    # N = 1024: the joint space at m = 5 would be a 16 GiB matrix, so the closed form is the oracle
    rng = np.random.default_rng(10)
    spec = Spectrum(np.sort(rng.uniform(1.0, 2.0, size=1024)), np.kron(haar_unitary(rng, 32), haar_unitary(rng, 32)),
                    tuple((p,) for p in range(1024)))
    qpe, amps, table = _register(spec, "exact-binning", m=5)
    delta, eth = _delta("projector", 10), EthConfig(dt=0.37, num_steps=256, seed=4, initial_state=InitialState(kind="haar"))
    out = run_operator_form(spec, delta, INVERSE, eth, qpe)
    coeffs = spec.coefficients(estimators._resolve_initial_state(eth, 10, 0).amplitudes)
    left, right = eigenbasis_factors(spec, delta)
    bins = register_indices(spec, qpe)
    blocks = [(idx, _dense_g(left[idx] @ right[idx].conj().T, amps[idx], table))
              for idx in (np.flatnonzero(bins == k) for k in np.unique(bins))]
    _assert_mean(out.series, _closed_form_mean(spec, blocks, coeffs, eth.dt, eth.num_steps))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("form", ["operator", "vector"])
def test_each_exact_repetition_reads_the_one_series_formula_once(monkeypatch, form, mode):
    spec = _spectrum(4, False)
    qpe, _, _ = _register(spec, mode, m=3)
    phi = StateVector(4, _unit(np.random.default_rng(3), spec.dim))
    eth = EthConfig(dt=0.37, num_steps=40, repetitions=3, seed=4, initial_state=InitialState(kind="haar"))
    calls, real = [], estimators._exact_series
    monkeypatch.setattr(estimators, "_exact_series", lambda *args: calls.append(args[1]) or real(*args))
    if form == "operator":
        run_operator_form(spec, projector_from_state(phi), INVERSE, eth, qpe)
    else:
        run_vector_form(spec, phi, eth, qpe, INVERSE)
    assert len(calls) == eth.repetitions
    if form == "vector":
        # one block over every eigen-index, X and Y one row: the sample is |Y c|^2
        [(idx, x, y)] = calls[0]
        np.testing.assert_array_equal(idx, np.arange(spec.dim))
        assert x is y and y.shape == (1, spec.dim)
