"""States, dense operators and circuit building blocks.

Everything here is desk scale by design: dense complex arrays, hard capped
at 14 qubits so a mistake in qubit count fails fast instead of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def hermitian_deviation(left: np.ndarray, right: np.ndarray | None = None) -> float:
    """max |L R^dag - R L^dag| for the operator L R^dag of two N x r factors (never
    formed), or max |M - M^dag| for M = left when right is None, one row block at a time.
    It is exactly 0.0 without a scan when right is left: L L^dag is Hermitian."""
    if right is left:
        return 0.0
    if right is None:
        return float(np.max([np.abs(left[rows] - left[:, rows].conj().T).max() for rows in row_blocks(left.shape[0])]))
    # rows I conjugated: same magnitudes, and only the thin L_I and R_I are conjugated
    return float(np.max([np.abs(left[rows].conj() @ right.T - right[rows].conj() @ left.T).max() for rows in row_blocks(left.shape[0])]))


def _frozen_array(values, dtype=complex) -> np.ndarray:
    """values itself when it is already a read-only ndarray of dtype, else a
    read-only copy, so a caller that keeps a writeable array cannot change it."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
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
    """Square operator held as its N x N entries or as factors (L, R), two N x r
    arrays defining L R^dag, with entries None. The hermitian flag is measured,
    never given: the row-blocked scan max |M - M^dag| <= HERMITIAN_TOL.
    Arrays are copied unless already read-only and complex, then kept as given."""

    dim: int
    entries: np.ndarray | None
    factors: tuple | None = None
    hermitian: bool = field(init=False)

    def __post_init__(self):
        if (self.entries is None) == (self.factors is None):
            raise DomainError("an operator takes either entries or factors (L, R), not both or neither")
        if self.factors is None:
            mat = _frozen_array(self.entries)
            if mat.shape != (self.dim, self.dim):
                raise DomainError(f"operator has shape {mat.shape}, expected ({self.dim}, {self.dim})")
            object.__setattr__(self, "entries", mat)
        else:
            left = _frozen_array(self.factors[0])
            # one array given twice stays one, so the Hermitian scan can skip L L^dag
            right = left if self.factors[1] is self.factors[0] else _frozen_array(self.factors[1])
            if left.shape != right.shape or left.shape[:-1] != (self.dim,):
                raise DomainError(f"factors of shapes {left.shape} and {right.shape} are not two ({self.dim}, r) arrays")
            object.__setattr__(self, "factors", (left, right))
        object.__setattr__(self, "hermitian", hermitian_deviation(*(self.factors or (self.entries,))) <= HERMITIAN_TOL)

    def matrix(self) -> np.ndarray:
        """The read-only N x N matrix: entries, or L R^dag formed for dense references and a factored A."""
        if self.factors is None:
            return self.entries
        mat = self.factors[0] @ self.factors[1].conj().T
        mat.setflags(write=False)
        return mat


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
    """Wrap a raw matrix; its hermitian flag is measured as for any DenseOperator."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    return DenseOperator(mat.shape[0], mat)


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

    Every term's axes string must have length ``n_qubits``. The sum of real
    multiples of Pauli strings is exactly Hermitian, which its flag measures.
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
    return DenseOperator(dim, total)


def projector_from_state(phi: StateVector) -> DenseOperator:
    """Rank-one projector |phi><phi| as the factors L = R = phi; trace is exactly 1.
    Both factors are one array, so the Hermitian flag needs no scan."""
    return DenseOperator(phi.dim, None, factors=(phi.amplitudes[:, None],) * 2)


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
    reproduces (I + sigma_x)/sqrt(2). A non-real scale would make it non-Hermitian."""
    if not (np.isfinite(scale) and np.isreal(scale)):
        raise DomainError(f"scale must be real and finite, got {scale!r}")
    u = uniform_superposition(n_qubits).amplitudes[:, None]
    return DenseOperator(u.shape[0], None, factors=(scale * u, u))


def commutator_norm(a: DenseOperator, d: DenseOperator) -> float:
    """Max-entry magnitude of A D - D A; zero signals a conserved observable."""
    if a.dim != d.dim:
        raise DomainError(f"operator dimensions differ: {a.dim} vs {d.dim}")
    comm = a.matrix() @ d.matrix() - d.matrix() @ a.matrix()
    return float(np.abs(comm).max())


def derivative_mask(n_qubits: int, nonzero_entries) -> DenseOperator:
    """Sparse Hermitian mask from (row, col, value) triples.

    Values at repeated positions accumulate. The mask must be Hermitian
    within 1e-12, otherwise it cannot serve as an observable. Its factors,
    built from the triples, are its nonzero columns and the unit vectors
    that select them.
    """
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    triples = list(nonzero_entries)
    position = {col: j for j, col in enumerate(sorted({col for _, col, _ in triples}))}
    columns = np.zeros((dim, len(position)), dtype=complex)
    for row, col, value in triples:
        if not (0 <= row < dim and 0 <= col < dim):
            raise DomainError(f"mask entry ({row}, {col}) outside [0, {dim})^2")
        columns[row, position[col]] += value
    kept = columns.any(axis=0)  # entries that cancel leave their column empty, and it is dropped
    columns = columns[:, kept]
    factors = (columns, (np.arange(dim)[:, None] == np.array(list(position), dtype=int)[kept]) + 0j)
    for factor in factors:
        factor.setflags(write=False)  # handed over, not copied
    op = DenseOperator(dim, None, factors=factors)
    if not op.hermitian:
        raise DomainError(f"derivative mask is not Hermitian: max |M - M^dag| = {hermitian_deviation(*factors)}")
    return op


def identity_operator(n_qubits: int) -> DenseOperator:
    _check_qubit_count(n_qubits)
    dim = 2**n_qubits
    return DenseOperator(dim, np.eye(dim, dtype=complex))
