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

from .core import DenseOperator, StateVector, _frozen_array, hermitian_deviation
from .errors import DomainError, SingularityError
from .weights import INVERSE, WeightSpec

DEGENERACY_FRACTION = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition A = V diag(E) V^dag with degeneracy bookkeeping.

    eigenvalues are ascending; eigenvectors[:, p] belongs to eigenvalues[p].
    degeneracy_groups partitions eigenvalue indices into maximal runs closer
    than the resolution tolerance, so time averages can keep the cross terms
    that never dephase. The arrays are copied unless the caller has already
    made them read-only (float eigenvalues, complex eigenvectors), in which
    case they are kept as given.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degeneracy_groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues, float))
        object.__setattr__(self, "eigenvectors", _frozen_array(self.eigenvectors))

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


def eigendecompose(a: DenseOperator) -> Spectrum:
    """Exact Hermitian eigendecomposition with degeneracy grouping.

    Consecutive eigenvalues whose gap is at most DEGENERACY_FRACTION times
    the spectral range share a group. DenseOperator measures the hermitian
    flag when it is built, so the flag is all this reads; a factored operator
    is decomposed through its matrix L R^dag.
    """
    if not a.hermitian:
        raise DomainError("eigendecompose requires a Hermitian operator")
    evals, evecs = np.linalg.eigh(a.matrix())
    # eigh's fresh arrays, handed to Spectrum read-only so it keeps them without a copy
    evals.setflags(write=False)
    evecs.setflags(write=False)
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


def eigenbasis_factors(spec: Spectrum, delta: DenseOperator) -> tuple:
    """(P, Q) = (V^dag L, V^dag R), two N x r arrays with Delta^eig = V^dag Delta V = P Q^dag,
    in O(N^2 r). Without factors Delta is (entries, I), and P is the one N x N V^dag Delta V
    with Q = None."""
    if delta.dim != spec.dim:
        raise DomainError(f"operator dimensions differ: {delta.dim} vs {spec.dim}")
    left, right = delta.factors or (delta.entries, None)
    p = spec.coefficients(left)
    return (p @ spec.eigenvectors, None) if right is None else (p, spec.coefficients(right))


def in_eigenbasis(spec: Spectrum, delta: DenseOperator) -> np.ndarray:
    """Delta^eig = V^dag Delta V, the operator's matrix in A's eigenbasis, as an N x N array."""
    p, q = eigenbasis_factors(spec, delta)
    return p if q is None else p @ q.conj().T


def eigenbasis_diagonal(p: np.ndarray, q: Optional[np.ndarray]) -> np.ndarray:
    """diag(P Q^dag) in O(N r), or P's own diagonal when Q is None."""
    return np.diagonal(p) if q is None else np.einsum("pi,pi->p", p, q.conj())


def eigenbasis_block(p: np.ndarray, q: Optional[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """The rows and columns idx of P Q^dag (of P when Q is None)."""
    return p[np.ix_(idx, idx)] if q is None else p[idx] @ q[idx].conj().T


def eigenbasis_ensemble(spec: Spectrum, delta_eig: np.ndarray, r: StateVector, right: Optional[np.ndarray] = None, weights=1.0) -> float:
    """Diagonal ensemble of r from Delta^eig = P Q^dag (P itself when right is
    None) with row p multiplied by weights[p]: the sum over degeneracy groups G
    of c_G^dag diag(weights_G) Delta^eig_GG c_G, where c = V^dag r. Singleton
    groups add up in one sum; only groups of two or more take a block product each."""
    if r.dim != spec.dim:
        raise DomainError(f"dimension mismatch: spectrum {spec.dim}, state {r.dim}")
    coeffs = spec.coefficients(r.amplitudes)
    bra = coeffs.conj() * weights
    singles = [group[0] for group in spec.degeneracy_groups if len(group) == 1]
    total = np.abs(coeffs[singles]) ** 2 @ (weights * eigenbasis_diagonal(delta_eig, right))[singles]
    for idx in (np.array(group) for group in spec.degeneracy_groups if len(group) > 1):
        total += bra[idx] @ eigenbasis_block(delta_eig, right, idx) @ coeffs[idx]
    return float(np.real(total))


def spectral_commutator_norm(spec: Spectrum, delta: DenseOperator) -> float:
    """Max-entry magnitude of A Delta - Delta A in the computational basis for
    a Hermitian Delta = L R^dag (R = I without factors): X - X^dag with
    X = A Delta = Y R^dag, Y = V (E * V^dag L), in O(N^2 r) by the row-blocked
    Hermitian scan of the factors (Y, R), so no N x N Delta is built. A Delta_eff
    that differs from Delta only on the eigenbasis diagonal has the same
    commutator, since that diagonal commutes with A."""
    if not delta.hermitian:
        raise DomainError("the commutator norm from the spectrum needs a Hermitian observable")
    left, right = delta.factors or (delta.entries, None)
    scaled = spec.coefficients(left)
    scaled *= spec.eigenvalues[:, None]
    return hermitian_deviation(spec.eigenvectors @ scaled, right)


def matrix_function(spec: Spectrum, f: WeightSpec) -> DenseOperator:
    """f(A) = sum_p f(E_p) |p><p| under the weight's singularity policy."""
    values = f.evaluate(spec.eigenvalues, spec.spectral_range)
    v = spec.eigenvectors
    mat = (v * values) @ v.conj().T
    return DenseOperator(spec.dim, 0.5 * (mat + mat.conj().T))


def trace_weighted(spec: Spectrum, delta: DenseOperator, f: WeightSpec) -> float:
    """sum_p f(E_p) <p|Delta|p>, i.e. Tr(f(A) Delta), evaluated exactly."""
    values = f.evaluate(spec.eigenvalues, spec.spectral_range)
    return float(np.real(np.sum(values * eigenbasis_diagonal(*eigenbasis_factors(spec, delta)))))


def diagonal_ensemble(spec: Spectrum, delta: DenseOperator, r: StateVector) -> float:
    """Infinite-time average of <r(t)|Delta|r(t)> under A.

    Equals sum over degeneracy groups G of <r| P_G Delta P_G |r>; for a
    nondegenerate spectrum this is sum_p |c_p|^2 <p|Delta|p>.
    """
    p, q = eigenbasis_factors(spec, delta)
    return eigenbasis_ensemble(spec, p, r, q)


def _logdet_curvature(inverse: np.ndarray, p: np.ndarray, q: Optional[np.ndarray]) -> float:
    """|Tr((A^{-1} Delta)^2)| for a Hermitian Delta^eig = P Q^dag (P itself when
    Q is None), inverse = 1/E: sum_pq |Delta^eig_pq|^2 / (E_p E_q), which is
    tr((P^dag D P)(Q^dag D Q)) with D = diag(1/E) since P Q^dag = Q P^dag, in O(N r^2)."""
    if q is None:
        return float(abs(inverse @ np.abs(p) ** 2 @ inverse))
    return float(abs(np.trace(((p.conj().T * inverse) @ p) @ ((q.conj().T * inverse) @ q))))


def logdet_gradient_oracle(a: DenseOperator | Spectrum, delta: DenseOperator, spec: Optional[Spectrum] = None) -> float:
    """Tr(A^{-1} Delta), the derivative of ln |det A| along Delta.

    Computed spectrally from spec (the eigendecomposition of a when not
    given) and cross-checked against a forward difference of
    ln |det (A + h Delta)| at h = 1e-6, on a's own matrix (V diag(E) V^dag
    when a is a Spectrum). The two must agree to O(h) with a curvature-aware
    allowance; disagreement means the spectrum is too close to singular for
    the oracle to be trusted, and raises.
    """
    spec = spec or spectrum_of(a)
    inverse = INVERSE.evaluate(spec.eigenvalues, spec.spectral_range)
    p, q = eigenbasis_factors(spec, delta)
    value = float(np.real(inverse @ eigenbasis_diagonal(p, q)))

    h = 1e-6
    mat = spec.operator() if isinstance(a, Spectrum) else a.matrix()
    sign0, logdet0 = np.linalg.slogdet(mat)
    shifted = h * delta.entries if delta.factors is None else (h * delta.factors[0]) @ delta.factors[1].conj().T
    shifted += mat  # A + h Delta (A + h L R^dag), in one buffer
    sign1, logdet1 = np.linalg.slogdet(shifted)
    if sign0 == 0 or sign1 == 0:
        raise SingularityError("determinant vanished inside the finite-difference check")
    fd = (logdet1 - logdet0) / h

    # forward-difference truncation is (h/2) Tr((A^{-1} Delta)^2) to leading order
    tol = 5.0 * h * _logdet_curvature(inverse, p, q) + 1e-8 * (1.0 + abs(value))
    if abs(value - fd) > tol:
        raise SingularityError(
            f"log-det gradient cross-check failed: spectral {value} vs finite difference {fd} "
            f"(allowance {tol:.3e})"
        )
    return value
