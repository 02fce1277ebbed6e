"""Shared test helpers."""

import importlib.util
import sys
from functools import reduce
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def haar_unitary(rng, dim):
    """Seeded Haar-random dim x dim unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def as_matrix(op):
    """The N x N matrix of an operator, formed as L R^dag when it holds factors."""
    return op.matrix()


def pauli_matrix(axes: str) -> np.ndarray:
    """Kronecker product of the string's 2 x 2 matrices, first letter leftmost:
    the dense reference for PauliTerm.action()."""
    return reduce(np.kron, (PAULI_MATRICES[ax] for ax in axes))


def action_matrix(term) -> np.ndarray:
    """The N x N matrix term.action() describes: phase[j] at (j ^ flip, j)."""
    flip, phase = term.action()
    rows = np.arange(phase.size)
    mat = np.zeros((phase.size, phase.size), dtype=complex)
    mat[rows ^ flip, rows] = phase
    return mat


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, registered for the test's duration (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
