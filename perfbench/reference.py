"""Closed-form references for the correctness gate.

Every run the benchmark makes is a finite-K time average of a per-step
sample. Written in the eigenbasis of A, with c_p the initial state's
eigen-coefficients and t_j = j * dt, the exact-expectation sample is

    s(t) = sum_{q,p} conj(c_q(t)) Delta_qp kappa_qp c_p(t),  c_p(t) = c_p e^{-i E_p t},

so its K-step mean is sum_{q,p} conj(c_q) Delta_qp kappa_qp c_p D_K(E_q - E_p)
with the Dirichlet kernel D_K(x) = (1/K) sum_j e^{i x t_j}. The register only
enters through kappa:

* exact-binning, operator form: kappa_qp = w(bin) when q and p share a bin, else 0;
* exact-binning, vector form:   kappa_qp = sqrt(w_q w_p) over all pairs;
* circuit mode: the same two sums with the textbook phase-estimation
  amplitudes a_p[k] = (1/M) sum_j e^{2 pi i j (phi_p - k/M)}:
  operator form kappa_qp = sum_k conj(a_q[k]) w_k a_p[k],
  vector form kappa_qp = g_q g_p with g_p = sum_k |a_p[k]|^2 sqrt(w_k).

Shot runs are checked against the exact mean of what they sample, within a
few standard errors computed from the same closed forms. The vector-form
swap test clamps its per-step overlap estimate 2 * frac0 - 1 to [0, 1]; its
reference is the exact binomial expectation of that clamped estimator.

Nothing here imports ethsim: the references only use numpy and the inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# exact runs: relative to the reference, plus rounding room proportional to
# the magnitudes summed (the dense vector-form sum has 2**18 terms)
EXACT_RTOL = 1e-9
EXACT_TERM_RTOL = 1e-11
SHOT_SIGMAS = 5.0
ORACLE_RTOL = 1e-8

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_sum(terms) -> np.ndarray:
    """Dense matrix of sum_i c_i P_i for (coefficient, axes) pairs."""
    total = None
    for coef, axes in terms:
        mat = np.ones((1, 1), dtype=complex)
        for ax in axes:
            mat = np.kron(mat, PAULI[ax])
        total = coef * mat if total is None else total + coef * mat
    return total


def weight(kind: str, energies: np.ndarray) -> np.ndarray:
    energies = np.asarray(energies, dtype=float)
    if kind == "unit":
        return np.ones_like(energies)
    if kind == "identity_of_e":
        return energies.copy()
    if kind == "inverse":
        return 1.0 / energies
    raise ValueError(f"no reference for weight kind {kind!r}")


def dirichlet(x: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """(1/K) sum_{j=1..K} exp(i x j dt), evaluated stably for any x."""
    theta = np.asarray(x, dtype=float) * dt
    theta = theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    half = 0.5 * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(steps * half) / (steps * np.sin(half))
    ratio = np.where(theta == 0.0, 1.0, ratio)
    return np.exp(1j * (steps + 1) * half) * ratio


def register_phases(evals: np.ndarray, qpe: dict) -> np.ndarray:
    phases = (np.asarray(evals) - qpe["shift"]) * qpe["scale"]
    if np.any(phases < 0.0) or np.any(phases >= 1.0):
        raise ValueError("an eigenvalue phase lies outside [0, 1)")
    return phases


def bin_energies(qpe: dict) -> np.ndarray:
    size = 2 ** qpe["m"]
    return qpe["shift"] + np.arange(size) / (size * qpe["scale"])


def register_bins(evals: np.ndarray, qpe: dict) -> np.ndarray:
    size = 2 ** qpe["m"]
    return np.rint(register_phases(evals, qpe) * size).astype(int) % size


def qpe_amplitudes(evals: np.ndarray, qpe: dict) -> np.ndarray:
    """a[p, k]: register amplitude of bin k after phase estimation on |p>."""
    size = 2 ** qpe["m"]
    j = np.arange(size)
    k = np.arange(size)
    phases = register_phases(evals, qpe)
    arg = 2j * np.pi * j[None, None, :] * (phases[:, None, None] - k[None, :, None] / size)
    return np.exp(arg).sum(axis=2) / size


def kernel(evals, qpe: dict, form: str, weight_kind: str, power: float = 1.0) -> np.ndarray:
    """kappa_qp for the run's register mode and estimator form; power = 2
    gives the kernel of the squared observable (operator form only)."""
    energies = bin_energies(qpe)
    if qpe["mode"] == "exact-binning":
        bins = register_bins(evals, qpe)
        w = weight(weight_kind, energies[bins])
        if form == "operator":
            return (bins[:, None] == bins[None, :]) * w[None, :] ** power
        g = np.sqrt(w)
        return g[:, None] * g[None, :]
    a = qpe_amplitudes(evals, qpe)
    w = weight(weight_kind, energies)
    if form == "operator":
        return (a.conj() * w[None, :] ** power) @ a.T
    g = (np.abs(a) ** 2) @ np.sqrt(w)
    return g[:, None] * g[None, :]


@dataclass(frozen=True)
class RunReference:
    """What one run must report: estimate within tol of value, oracle."""

    value: float
    tol: float
    oracle: Optional[float]
    expected: Optional[float]
    expected_tol: Optional[float]


def _state(value, dim: int) -> np.ndarray:
    if value is None:
        raise ValueError("state is required")
    if value == "uniform":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    return np.array([complex(re, im) for re, im in value])


def _delta(config: dict, dim: int, phi) -> np.ndarray:
    if config["target"] == "inverse-expectation" or config["form"] == "vector":
        return np.outer(phi, phi.conj())
    spec = config["delta"]
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "all-ones":
        return np.full((dim, dim), spec["scale"] / dim, dtype=complex)
    if kind == "derivative-mask":
        mat = np.zeros((dim, dim), dtype=complex)
        for row, col, re, im in spec["entries"]:
            mat[row, col] += complex(re, im)
        return mat
    state = _state(spec["state"], dim)
    return np.outer(state, state.conj())


def _initial(config: dict, dim: int) -> np.ndarray:
    init = config["eth"]["initial_state"]
    if init["kind"] == "uniform":
        return _state("uniform", dim)
    if init["kind"] == "explicit":
        return _state(init["amplitudes"], dim)
    raise ValueError(f"no reference for initial state {init['kind']!r}")


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """pmf[j, z] of Binomial(n, p[j]) for z = 0..n."""
    z = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in z])
    p = np.asarray(p)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(z == 0, 0.0, z * np.log(p))
        log_q = np.where(z == n, 0.0, (n - z) * np.log1p(-p))
    return np.exp(log_comb + log_p + log_q)


def reference(config: dict, matrix: np.ndarray, eigen=None) -> RunReference:
    """Reference for the run a summary's config echo describes.

    ``matrix`` is A; ``eigen`` = (eigenvalues, eigenvectors) when the
    benchmark built A from known eigenpairs, else A is diagonalized here.
    """
    evals, vecs = eigen if eigen is not None else np.linalg.eigh(matrix)
    dim = evals.size
    target, form, qpe, eth = config["target"], config["form"], config["qpe"], config["eth"]
    if eth.get("repetitions", 1) != 1:
        raise ValueError("no reference for repeated runs")
    steps, dt = eth["num_steps"], eth["dt"]
    phi = _state(config["phi"], dim) if config.get("phi") is not None else None
    delta = vecs.conj().T @ _delta(config, dim, phi) @ vecs
    c = vecs.conj().T @ _initial(config, dim)
    weight_kind = "inverse" if target != "time-average" or form == "vector" else config["weight"]["kind"]
    if config["weight"]["policy"] != "reject" and (target == "time-average" or form == "vector"):
        raise ValueError("no reference for the regularize policy")
    norm = 1.0 if target == "time-average" else float(dim)
    kappa = kernel(evals, qpe, form, weight_kind)
    pair = c.conj()[:, None] * c[None, :]

    terms = pair * delta * kappa
    value = norm * float(np.real(np.sum(terms * dirichlet(evals[:, None] - evals[None, :], dt, steps))))
    tol = EXACT_RTOL * abs(value) + EXACT_TERM_RTOL * norm * float(np.sum(np.abs(terms)))

    if eth["sampling"] == "shots":
        shots = eth["shots"]
        t = dt * np.arange(1, steps + 1)
        ct = c[:, None] * np.exp(-1j * np.outer(evals, t))
        if form == "operator":
            mean = np.real(np.einsum("qj,qp,pj->j", ct.conj(), delta * kappa, ct))
            kappa2 = kernel(evals, qpe, form, weight_kind, power=2.0)
            second = np.real(np.einsum("qj,qp,pj->j", ct.conj(), (delta @ delta) * kappa2, ct))
            var = np.maximum(second - mean**2, 0.0) / shots
        else:
            if qpe["mode"] != "exact-binning":
                raise ValueError("no reference for circuit-mode swap tests")
            w = np.diag(kappa).real  # w_p of each eigenvector's bin
            b = vecs.conj().T @ phi
            norm_sq = float(np.sum(np.abs(c) ** 2 * w))
            overlap_sq = np.abs((b.conj() * np.sqrt(w)) @ ct) ** 2 / norm_sq
            pmf = _binomial_pmf(shots, np.clip(0.5 * (1.0 + overlap_sq), 0.0, 1.0))
            clipped = np.clip(2.0 * np.arange(shots + 1) / shots - 1.0, 0.0, 1.0)
            first = pmf @ clipped
            mean = norm_sq * first
            var = norm_sq**2 * np.maximum(pmf @ clipped**2 - first**2, 0.0)
        value = norm * float(np.mean(mean))
        tol = SHOT_SIGMAS * norm * math.sqrt(float(np.sum(var))) / steps

    oracle = None
    if target == "inverse-expectation":
        oracle = float(np.real(phi.conj() @ np.linalg.solve(matrix, phi)))
    elif target == "logdet-gradient":
        mask = _delta(config, dim, phi)
        oracle = float(np.real(np.trace(np.linalg.solve(matrix, mask))))
    return RunReference(value, tol, oracle, config.get("expected"), config.get("tolerance"))


def _last_row(path: Path) -> list:
    with open(path, "rb") as handle:
        handle.seek(0, 2)
        handle.seek(max(0, handle.tell() - 512))
        return handle.read().decode().strip().splitlines()[-1].split(",")


def check(summary: dict, ref: RunReference, out_dir: Path) -> list:
    """Failure messages for one run's summary against its reference; the
    series file's last running mean must also match the summary."""
    name = summary["name"]
    failures = []
    estimate = summary["estimate"]
    if not abs(estimate - ref.value) <= ref.tol:
        failures.append(f"{name}: estimate {estimate!r} vs reference {ref.value!r} (tol {ref.tol:.3e})")
    if ref.oracle is not None and not abs(summary["oracle_value"] - ref.oracle) <= ORACLE_RTOL * max(1.0, abs(ref.oracle)):
        failures.append(f"{name}: oracle {summary['oracle_value']!r} vs numpy solve {ref.oracle!r}")
    if ref.expected is not None and ref.expected_tol is not None:
        if not abs(estimate - ref.expected) <= ref.expected_tol:
            failures.append(f"{name}: estimate {estimate!r} outside expected {ref.expected!r} +- {ref.expected_tol!r}")
    row = _last_row(out_dir / summary["series_file"])
    steps = summary["config"]["eth"]["num_steps"]
    last_mean = summary["normalization"] * float(row[3])
    if int(row[0]) != steps or abs(last_mean - estimate) > 1e-12 * (1.0 + abs(estimate)):
        failures.append(f"{name}: series file ends at step {row[0]} with mean {last_mean!r}, summary says {estimate!r}")
    return failures


def load_summary(out_dir: Path, basename: str) -> dict:
    return json.loads((out_dir / f"{basename}_summary.json").read_text())
