"""Exact spectral oracles.

Full eigendecomposition is the ground truth everything else is judged
against: spectral functions f(A), trace-weighted sums, the infinite-time
diagonal ensemble, and the log-det gradient. Dense eigh is deliberate; the
package targets desk-scale verification, not asymptotic performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DenseOperator, HERMITIAN_TOL, StateVector
from .errors import DomainError, SingularityError
from .weights import WeightSpec

DEGENERACY_FRACTION = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition A = V diag(E) V^dag with degeneracy bookkeeping.

    eigenvalues are ascending; eigenvectors[:, p] belongs to eigenvalues[p].
    degeneracy_groups partitions eigenvalue indices into maximal runs closer
    than the resolution tolerance, so time averages can keep the cross terms
    that never dephase.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degeneracy_groups: tuple

    def __post_init__(self):
        evals = np.array(self.eigenvalues, dtype=float)
        evecs = np.array(self.eigenvectors, dtype=complex)
        evals.setflags(write=False)
        evecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def operator(self) -> np.ndarray:
        """Reconstruct the dense matrix V diag(E) V^dag."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """V^dag x as (V^T conj(x))^*: only x's side is conjugated, so no N x N copy of V^dag."""
        out = self.eigenvectors.T @ x.conj()
        return np.conjugate(out, out=out)


def eigendecompose(a: DenseOperator, degeneracy_tol: Optional[float] = None) -> Spectrum:
    """Exact Hermitian eigendecomposition with degeneracy grouping.

    degeneracy_tol defaults to 1e-9 times the spectral range; consecutive
    eigenvalues with gaps at or below it share a group. DenseOperator checks
    the hermitian flag against its read-only entries when it is built, so the
    flag is all this reads.
    """
    if not a.hermitian:
        raise DomainError("eigendecompose requires an operator flagged Hermitian")
    evals, evecs = np.linalg.eigh(a.entries)
    if degeneracy_tol is None:
        degeneracy_tol = DEGENERACY_FRACTION * float(evals[-1] - evals[0])
    groups = []
    current = [0]
    for p in range(1, len(evals)):
        if evals[p] - evals[p - 1] <= degeneracy_tol:
            current.append(p)
        else:
            groups.append(tuple(current))
            current = [p]
    groups.append(tuple(current))
    return Spectrum(evals, evecs, tuple(groups))


def spectrum_of(a: DenseOperator | Spectrum) -> Spectrum:
    """a itself if it is a Spectrum, else the eigendecomposition of a."""
    return a if isinstance(a, Spectrum) else eigendecompose(a)


def in_eigenbasis(spec: Spectrum, delta: DenseOperator) -> np.ndarray:
    """Delta^eig = V^dag Delta V, the operator's matrix in A's eigenbasis, as
    (V^dag L)(V^dag R)^dag in O(N^2 r). Without factors Delta is (entries, I)."""
    if delta.dim != spec.dim:
        raise DomainError(f"operator dimensions differ: {delta.dim} vs {spec.dim}")
    left, right = delta.factors or (delta.entries, None)
    return spec.coefficients(left) @ (spec.eigenvectors if right is None else spec.coefficients(right).conj().T)


def eigenbasis_ensemble(spec: Spectrum, delta_eig: np.ndarray, r: StateVector) -> float:
    """Diagonal ensemble of r from Delta^eig: the sum over degeneracy groups G
    of c_G^dag Delta^eig_GG c_G, where c = V^dag r. Singleton groups add up
    in one sum; only groups of two or more take a block product each."""
    if r.dim != spec.dim:
        raise DomainError(f"dimension mismatch: spectrum {spec.dim}, state {r.dim}")
    coeffs = spec.coefficients(r.amplitudes)
    singles = [group[0] for group in spec.degeneracy_groups if len(group) == 1]
    total = np.abs(coeffs[singles]) ** 2 @ np.diagonal(delta_eig)[singles]
    for idx in (np.array(group) for group in spec.degeneracy_groups if len(group) > 1):
        total += coeffs[idx].conj() @ delta_eig[np.ix_(idx, idx)] @ coeffs[idx]
    return float(np.real(total))


def spectral_commutator_norm(spec: Spectrum, delta: DenseOperator) -> float:
    """Max-entry magnitude of A Delta - Delta A in the computational basis for
    a Hermitian Delta = L R^dag: X - X^dag with X = A Delta = V (E * V^dag L) R^dag,
    in O(N^2 r). A Delta_eff that differs from Delta only on the eigenbasis
    diagonal has the same commutator, since that diagonal commutes with A."""
    if not delta.hermitian and np.abs(delta.entries - delta.entries.conj().T).max() > HERMITIAN_TOL:
        raise DomainError("the commutator norm from the spectrum needs a Hermitian observable")
    return factored_commutator_norm(spec, *(delta.factors or (delta.entries, None)))


def factored_commutator_norm(spec: Spectrum, left: np.ndarray, right: Optional[np.ndarray]) -> float:
    """spectral_commutator_norm from the factors of a Hermitian Delta = L R^dag
    alone (R = I when None), so no N x N Delta needs to be built for it."""
    x = spec.eigenvectors @ (spec.eigenvalues[:, None] * spec.coefficients(left))
    x = x if right is None else x @ right.conj().T
    return float(np.abs(x - x.conj().T).max())


def matrix_function(spec: Spectrum, f: WeightSpec) -> DenseOperator:
    """f(A) = sum_p f(E_p) |p><p| under the weight's singularity policy."""
    values = f.evaluate(spec.eigenvalues, spec.spectral_range)
    v = spec.eigenvectors
    mat = (v * values) @ v.conj().T
    if np.iscomplexobj(values):
        return DenseOperator(spec.dim, mat)
    mat = 0.5 * (mat + mat.conj().T)
    return DenseOperator(spec.dim, mat, hermitian=True)


def trace_weighted(spec: Spectrum, delta: DenseOperator, f: WeightSpec) -> float:
    """sum_p f(E_p) <p|Delta|p>, i.e. Tr(f(A) Delta), evaluated exactly."""
    values = f.evaluate(spec.eigenvalues, spec.spectral_range)
    return float(np.real(np.sum(values * np.diag(in_eigenbasis(spec, delta)))))


def diagonal_ensemble(spec: Spectrum, delta: DenseOperator, r: StateVector) -> float:
    """Infinite-time average of <r(t)|Delta|r(t)> under A.

    Equals sum over degeneracy groups G of <r| P_G Delta P_G |r>; for a
    nondegenerate spectrum this is sum_p |c_p|^2 <p|Delta|p>.
    """
    return eigenbasis_ensemble(spec, in_eigenbasis(spec, delta), r)


def logdet_gradient_oracle(a: DenseOperator | Spectrum, delta: DenseOperator) -> float:
    """Tr(A^{-1} Delta), the derivative of ln |det A| along Delta.

    Computed spectrally and cross-checked against a forward difference of
    ln |det (A + h Delta)| at h = 1e-6, A = V diag(E) V^dag. The two must agree
    to O(h) with a curvature-aware allowance; disagreement means the spectrum
    is too close to singular for the oracle to be trusted, and raises.
    """
    spec = spectrum_of(a)
    inverse = WeightSpec(kind="inverse", policy="reject").evaluate(spec.eigenvalues, spec.spectral_range)
    delta_eig = in_eigenbasis(spec, delta)
    value = float(np.real(inverse @ np.diag(delta_eig)))

    h = 1e-6
    mat = spec.operator()
    sign0, logdet0 = np.linalg.slogdet(mat)
    sign1, logdet1 = np.linalg.slogdet(mat + h * delta.entries)
    if sign0 == 0 or sign1 == 0:
        raise SingularityError("determinant vanished inside the finite-difference check")
    fd = (logdet1 - logdet0) / h

    # forward-difference truncation is (h/2) Tr((A^{-1} Delta)^2) to leading order,
    # which is sum_pq |Delta^eig_pq|^2 / (E_p E_q) for Hermitian Delta
    curvature = float(abs(inverse @ np.abs(delta_eig) ** 2 @ inverse))
    tol = 5.0 * h * curvature + 1e-8 * (1.0 + abs(value))
    if abs(value - fd) > tol:
        raise SingularityError(
            f"log-det gradient cross-check failed: spectral {value} vs finite difference {fd} "
            f"(allowance {tol:.3e})"
        )
    return value
