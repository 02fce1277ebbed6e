"""Workload inputs, generated from the workload seed.

Every workload is a list of runs. A run is one call into
``ethsim.runner.execute_experiment``: a built-in preset, or a JSON config
file (loaded with ``ethsim.config.load_config``, as ``ethsim run`` does) that
points at a dense matrix file written here. The program only ever sees these
files; the eigenpairs behind them stay with the benchmark, which uses them
for its closed-form correctness references (see ``reference.py``).

``build`` is deterministic in the seed, so the parent process writes the
files once and the sample process rebuilds the same in-memory spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("presets", "dense", "circuit")

PRESETS = (
    "paper-example",
    "integrable-counterexample",
    "trace-counterexample",
    "inverse-2q",
    "logdet-2q",
    "condition-sweep",
)

# dense: n = 9 qubits, m = 5 exact-binning register. Bin k decodes to
# SHIFT + k / 2**m, so with SHIFT = 1 every decoded energy is positive and the
# inverse weight is regular on every bin.
DENSE_QUBITS = 9
DENSE_M = 5
DENSE_STEPS = 2048
DENSE_DT = 0.5

# circuit: n = 5, m = 5 circuit register (joint dimension 1024). The phase map
# puts every eigenvalue at a phase in [0.02, 0.98) and every bin decodes to an
# energy in [1, 2), so no bin decodes to 0 and the leaked probability in
# circuit mode never meets a singular weight.
CIRCUIT_QUBITS = 5
CIRCUIT_M = 5
CIRCUIT_STEPS = 2048
CIRCUIT_DT = 0.5
CIRCUIT_SHOTS = 64

SHIFT = 1.0
SCALE = 1.0

MATRIX_FILE = "matrix.txt"


@dataclass(frozen=True)
class Problem:
    """A generated Hermitian matrix and the eigenpairs it was built from."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray
    phi: np.ndarray
    initial: np.ndarray
    mask: tuple = ()


@dataclass(frozen=True)
class Run:
    """One execute_experiment call: a preset name or a config file name."""

    name: str
    preset: Optional[str] = None
    config_file: Optional[str] = None


@dataclass(frozen=True)
class Spec:
    runs: tuple
    problem: Optional[Problem] = None
    configs: dict = field(default_factory=dict)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _problem(rng: np.random.Generator, eigenvalues: np.ndarray, mask_entries: int = 0) -> Problem:
    dim = eigenvalues.size
    v = _haar_unitary(rng, dim)
    a = (v * eigenvalues) @ v.conj().T
    a = 0.5 * (a + a.conj().T)  # exactly Hermitian in floating point
    mask = []
    for _ in range(mask_entries):
        i, j = (int(x) for x in rng.integers(0, dim, size=2))
        if i == j:
            mask.append((i, i, float(rng.normal()), 0.0))
        else:
            re, im = (float(x) for x in rng.normal(size=2))
            mask.append((i, j, re, im))
            mask.append((j, i, re, -im))
    return Problem(
        eigenvalues=eigenvalues,
        eigenvectors=v,
        matrix=a,
        phi=_haar_state(rng, dim),
        initial=_haar_state(rng, dim),
        mask=tuple(mask),
    )


def dense_eigenvalues(rng: np.random.Generator, n_qubits: int, m: int) -> np.ndarray:
    """Register-bin centres plus offsets within a quarter bin: bins merge many
    eigenvalues, none are degenerate, and each bin is known by construction."""
    bins = 2**m
    k = rng.integers(1, bins, size=2**n_qubits)
    offset = rng.uniform(-0.25, 0.25, size=k.size)
    return SHIFT + (k + offset) / (bins * SCALE)


def _amplitudes(vec: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in vec]


def _config(name, target, form, problem: Problem, qpe_mode, m, steps, dt, seed,
            sampling="exact", shots=0, mask=False) -> dict:
    cfg = {
        "name": name,
        "target": target,
        "form": form,
        "seed": seed,
        "problem": {"kind": "dense-matrix-file", "path": MATRIX_FILE},
        "weight": {"kind": "inverse", "policy": "reject"},
        "qpe": {"m": m, "shift": SHIFT, "scale": SCALE, "mode": qpe_mode},
        "eth": {
            "dt": dt,
            "num_steps": steps,
            "sampling": sampling,
            "shots": shots,
            "initial_state": {"kind": "explicit", "amplitudes": _amplitudes(problem.initial)},
        },
        "outputs": {"format": "csv", "basename": name},
    }
    if mask:
        cfg["delta"] = {"kind": "derivative-mask", "entries": [list(e) for e in problem.mask]}
    else:
        cfg["phi"] = _amplitudes(problem.phi)
    return cfg


def build(workload: str, seed: int) -> Spec:
    """The runs of one workload and, for generated workloads, their inputs."""
    if workload == "presets":
        return Spec(tuple(Run(name=p, preset=p) for p in PRESETS))
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    run_seed = int(rng.integers(1, 2**31))
    shots = dict(sampling="shots", shots=CIRCUIT_SHOTS)
    if workload == "dense":
        problem = _problem(rng, dense_eigenvalues(rng, DENSE_QUBITS, DENSE_M), mask_entries=12)
        common = dict(qpe_mode="exact-binning", m=DENSE_M, steps=DENSE_STEPS, dt=DENSE_DT)
        table = [
            ("dense-inverse-operator", "inverse-expectation", "operator", {}),
            ("dense-logdet-operator", "logdet-gradient", "operator", dict(mask=True)),
            ("dense-inverse-vector", "inverse-expectation", "vector", {}),
        ]
    elif workload == "circuit":
        evals = SHIFT + rng.uniform(0.02, 0.98, size=2**CIRCUIT_QUBITS) / SCALE
        problem = _problem(rng, evals)
        common = dict(m=CIRCUIT_M, steps=CIRCUIT_STEPS, dt=CIRCUIT_DT)
        circuit = dict(qpe_mode="circuit")
        table = [
            ("circuit-operator-exact", "inverse-expectation", "operator", circuit),
            ("circuit-operator-shots", "inverse-expectation", "operator", dict(circuit, **shots)),
            ("circuit-vector-exact", "inverse-expectation", "vector", circuit),
            ("circuit-vector-swap-shots", "inverse-expectation", "vector",
             dict(qpe_mode="exact-binning", **shots)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    configs = {
        name: _config(name, target, form, problem, seed=run_seed, **common, **extra)
        for name, target, form, extra in table
    }
    runs = tuple(Run(name=n, config_file=f"{n}.json") for n in configs)
    return Spec(runs, problem=problem, configs=configs)


def write_inputs(spec: Spec, directory: Path) -> None:
    """Write the matrix file (documented text format, full repr precision)
    and one JSON config per run into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if spec.problem is None:
        return
    a = spec.problem.matrix
    lines = [str(a.shape[0])]
    lines += [" ".join(f"{float(x.real)!r} {float(x.imag)!r}" for x in row) for row in a]
    (directory / MATRIX_FILE).write_text("\n".join(lines) + "\n")
    for run in spec.runs:
        (directory / run.config_file).write_text(json.dumps(spec.configs[run.name]))
