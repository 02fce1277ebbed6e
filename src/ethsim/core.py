"""States, dense operators and circuit building blocks.

Everything here is desk scale by design: dense complex arrays, hard capped
at 14 qubits so a mistake in qubit count fails fast instead of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import substream

MAX_QUBITS = 14

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-12
# byte budget of one row block of an N x N check (N complex per row)
_ROW_BYTES = 1 << 18

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _check_qubit_count(n_qubits: int) -> None:
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise DomainError(f"qubit count must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise DomainError(
            f"qubit count {n_qubits} exceeds the dense-simulation cap of {MAX_QUBITS}"
        )


def row_blocks(dim: int):
    """Row slices of an N = dim matrix, each at most _ROW_BYTES of complex rows (at least one row)."""
    rows = max(1, _ROW_BYTES // (16 * dim))
    return [slice(lo, lo + rows) for lo in range(0, dim, rows)]


def hermitian_deviation(mat: np.ndarray) -> float:
    """max |M - M^dag|, one row block at a time."""
    return float(np.max([np.abs(mat[rows] - mat[:, rows].conj().T).max() for rows in row_blocks(mat.shape[0])]))


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on ``n_qubits`` qubits.

    Amplitudes are stored in computational-basis order and are immutable
    after construction. Unnormalized intermediates never live here; weighted
    pipeline states carry an explicit norm factor instead.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = _frozen_array(self.amplitudes)
        if amps.shape != (2**self.n_qubits,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, expected (2**{self.n_qubits},)"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense square operator with a validated hermitian flag and, when its
    builder knows them, factors (L, R): two N x r arrays with entries = L R^dag.
    hermitian=None sets the flag from the same scan that validates a True one:
    max |M - M^dag| <= HERMITIAN_TOL. Both checks run in row blocks."""

    dim: int
    entries: np.ndarray
    hermitian: bool | None = False
    factors: tuple | None = None

    def __post_init__(self):
        mat = _frozen_array(self.entries)
        if mat.shape != (self.dim, self.dim):
            raise DomainError(f"operator has shape {mat.shape}, expected ({self.dim}, {self.dim})")
        if self.hermitian is None or self.hermitian:
            dev = hermitian_deviation(mat)
            if self.hermitian is None:
                object.__setattr__(self, "hermitian", dev <= HERMITIAN_TOL)
            elif dev > HERMITIAN_TOL:
                raise DomainError(f"hermitian flag set but max |M - M^dag| = {dev}")
        if self.factors is not None:
            left, right = (_frozen_array(f) for f in self.factors)
            if left.shape != right.shape or left.shape[:-1] != (self.dim,) or _factor_deviation(left, right, mat) > HERMITIAN_TOL:
                raise DomainError(f"factors of shapes {left.shape} and {right.shape} do not give the entries as L R^dag")
            object.__setattr__(self, "factors", (left, right))
        object.__setattr__(self, "entries", mat)


def _factor_deviation(left: np.ndarray, right: np.ndarray, mat: np.ndarray) -> float:
    """max |L R^dag - M|, one row block at a time."""
    right_h = right.conj().T
    return float(np.max([np.abs(left[rows] @ right_h - mat[rows]).max() for rows in row_blocks(mat.shape[0])]))


@dataclass(frozen=True)
class PauliTerm:
    """One term ``coefficient * (sigma_a1 x sigma_a2 x ...)`` of a Hermitian sum."""

    coefficient: float
    axes: str

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise DomainError(f"pauli coefficient must be finite, got {self.coefficient!r}")
        if not self.axes or any(ax not in PAULI_MATRICES for ax in self.axes):
            raise DomainError(f"pauli axes must be drawn from I,X,Y,Z, got {self.axes!r}")

    def matrix(self) -> np.ndarray:
        """Dense matrix of the bare Pauli string (coefficient excluded)."""
        mat = PAULI_MATRICES[self.axes[0]]
        for ax in self.axes[1:]:
            mat = np.kron(mat, PAULI_MATRICES[ax])
        return mat


def operator_from_matrix(entries) -> DenseOperator:
    """Wrap a raw matrix, flagging it hermitian when max |M - M^dag| <= HERMITIAN_TOL."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    return DenseOperator(mat.shape[0], mat, hermitian=None)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on n_qubits qubits."""
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise DomainError(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def uniform_superposition(n_qubits: int) -> StateVector:
    """Equal-amplitude superposition H^{x n} |0...0>."""
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    return StateVector(n_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


def random_state(n_qubits: int, seed: int, ensemble: str = "haar") -> StateVector:
    """Seeded random state from a named ensemble.

    Args:
        n_qubits: register width.
        seed: substream seed; identical (seed, ensemble) pairs reproduce
            the same state bit for bit.
        ensemble: "haar" for a Haar-uniform pure state, or "phase-product"
            for an equal-magnitude superposition with an independent uniform
            phase on every computational basis state.
    """
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    rng = substream(seed, "state-prep", ensemble)
    if ensemble == "haar":
        vec = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
    elif ensemble == "phase-product":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        vec = np.exp(1.0j * phases) / np.sqrt(dim)
    else:
        raise DomainError(f"unknown state ensemble {ensemble!r}")
    return StateVector(n_qubits, vec)


def from_pauli_terms(n_qubits: int, terms) -> DenseOperator:
    """Dense Hermitian operator for a weighted Pauli-string sum.

    Every term's axes string must have length ``n_qubits``. The result is
    flagged hermitian.
    """
    _check_qubit_count(n_qubits)
    terms = list(terms)
    if not terms:
        raise DomainError("pauli term list is empty")
    dim = 2**n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        if len(term.axes) != n_qubits:
            raise DomainError(
                f"term axes {term.axes!r} has length {len(term.axes)}, expected {n_qubits}"
            )
        total += term.coefficient * term.matrix()
    return DenseOperator(dim, total, hermitian=True)


def projector_from_state(phi: StateVector) -> DenseOperator:
    """Rank-one projector |phi><phi|; trace is exactly 1."""
    amps, bra = phi.amplitudes, phi.amplitudes.conj()
    mat = np.empty((phi.dim, phi.dim), dtype=complex)
    for rows in row_blocks(phi.dim):
        # symmetrize away the last-bit rounding so the hermitian flag validates
        mat[rows] = 0.5 * (np.outer(amps[rows], bra) + np.outer(amps, bra[rows]).conj().T)
    return DenseOperator(phi.dim, mat, hermitian=True, factors=(phi.amplitudes[:, None],) * 2)


def qft_matrix(n_qubits: int) -> DenseOperator:
    """Discrete Fourier transform on 2**n_qubits amplitudes, omega^(jk) / sqrt(N)."""
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    j = np.arange(dim)
    omega = np.exp(2.0j * np.pi / dim)
    mat = omega ** np.outer(j, j) / np.sqrt(dim)
    return DenseOperator(dim, mat)


def all_ones_delta(n_qubits: int, scale: float = 1.0) -> DenseOperator:
    """scale * |u><u| for the uniform state u: every entry equals scale / 2**n_qubits,
    with the rank-one factors (scale * u, u). At one qubit, scale = sqrt(2)
    reproduces (I + sigma_x)/sqrt(2)."""
    if not np.isfinite(scale):
        raise DomainError(f"scale must be finite, got {scale!r}")
    u = uniform_superposition(n_qubits).amplitudes[:, None]
    dim = u.shape[0]
    return DenseOperator(dim, np.full((dim, dim), scale / dim, dtype=complex), hermitian=True, factors=(scale * u, u))


def commutator_norm(a: DenseOperator, d: DenseOperator) -> float:
    """Max-entry magnitude of A D - D A; zero signals a conserved observable."""
    if a.dim != d.dim:
        raise DomainError(f"operator dimensions differ: {a.dim} vs {d.dim}")
    comm = a.entries @ d.entries - d.entries @ a.entries
    return float(np.abs(comm).max())


def derivative_mask(n_qubits: int, nonzero_entries) -> DenseOperator:
    """Sparse Hermitian mask from (row, col, value) triples.

    Values at repeated positions accumulate. The assembled matrix must be
    Hermitian within 1e-12, otherwise the mask cannot serve as an observable.
    Its factors are its nonzero columns and the unit vectors that select them.
    """
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    listed = set()
    for row, col, value in nonzero_entries:
        if not (0 <= row < dim and 0 <= col < dim):
            raise DomainError(f"mask entry ({row}, {col}) outside [0, {dim})^2")
        mat[row, col] += value
        listed.add(col)
    dev = hermitian_deviation(mat)
    if dev > HERMITIAN_TOL:
        raise DomainError(f"derivative mask is not Hermitian: max |M - M^dag| = {dev}")
    # only the listed columns can be nonzero; entries that cancel leave theirs empty
    cols = np.array([col for col in sorted(listed) if mat[:, col].any()], dtype=int)
    return DenseOperator(dim, mat, hermitian=True, factors=(mat[:, cols], 1.0 * (np.arange(dim)[:, None] == cols)))


def identity_operator(n_qubits: int) -> DenseOperator:
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    return DenseOperator(dim, np.eye(dim, dtype=complex), hermitian=True)
