"""Shared test helpers."""

from functools import reduce

import numpy as np

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


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
