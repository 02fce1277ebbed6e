"""Simulated multi-eigenvalue phase estimation and register weighting.

The register binning map is the exact arithmetic the algorithm relies on:
an affine phase map sends eigenvalues into [0, 1), an m-bit register bins
them, and weights act on the decoded bin energies rather than on the true
eigenvalues. Dyadic spectra make the binning exact; the circuit mode also
reproduces the finite-register leakage of real phase estimation.

This module alone knows the register mode. The estimators work from
register_amplitudes, reached_weight_table, half_power_table and
eigen_weights; the per-state pipeline and the dense joint-space matrices
compute the same quantities step by step and are kept as the tests'
references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, MAX_QUBITS, StateVector, qft_matrix
from .errors import ConfigError, DomainError, SingularityError
from .spectral import Spectrum, in_eigenbasis
from .weights import WeightSpec

QPE_MODES = ("exact-binning", "circuit")

# register slices holding less probability than this are treated as empty
OCCUPANCY_EPS = 1e-20


class PhaseCollisionWarning(UserWarning):
    """Two distinct eigenvalues landed in the same register bin."""


@dataclass(frozen=True)
class QpeConfig:
    """Register width and the affine map phi(E) = (E - shift) * scale.

    phi must land in [0, 1) for every eigenvalue handled; bin k decodes to
    energy shift + k / (2**m * scale).
    """

    m: int
    shift: float = 0.0
    scale: float = 1.0
    mode: str = "exact-binning"

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or not 1 <= self.m <= MAX_QUBITS:
            raise ConfigError(f"register width m must lie in [1, {MAX_QUBITS}], got {self.m!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"phase-map scale must be positive and finite, got {self.scale!r}")
        if not np.isfinite(self.shift):
            raise ConfigError(f"phase-map shift must be finite, got {self.shift!r}")
        if self.mode not in QPE_MODES:
            raise ConfigError(f"field 'qpe.mode': unknown mode {self.mode!r}; expected one of {QPE_MODES}")

    @property
    def register_size(self) -> int:
        return 2**self.m

    @property
    def representable_span(self) -> float:
        """Energy span covered by the register bins."""
        return (self.register_size - 1) / (self.register_size * self.scale)


def _phases(energies, config: QpeConfig) -> np.ndarray:
    """phi = (E - shift) * scale for every energy, raising for the first one outside [0, 1)."""
    energies = np.asarray(energies, dtype=float)
    phi = (energies - config.shift) * config.scale
    outside = ~((0.0 <= phi) & (phi < 1.0))
    if outside.any():
        first = int(np.argmax(outside))
        raise ConfigError(
            f"phase {phi.flat[first]} for energy {energies.flat[first]} lies outside [0, 1); adjust shift/scale"
        )
    return phi


def phase_map(config: QpeConfig, energy: float) -> int:
    """Register index for an energy: round(phi * 2**m) mod 2**m."""
    return int(np.round(_phases(energy, config) * config.register_size)) % config.register_size


def energy_of_index(config: QpeConfig, index: int) -> float:
    """Decoded bin energy, the exact inverse of phase_map on dyadic spectra."""
    if not 0 <= index < config.register_size:
        raise DomainError(f"register index {index} outside [0, {config.register_size})")
    return float(energy_table(config)[index])


def energy_table(config: QpeConfig) -> np.ndarray:
    """Decoded energies of every register bin, length 2**m."""
    k = np.arange(config.register_size)
    return config.shift + k / (config.register_size * config.scale)


def register_indices(spec: Spectrum, config: QpeConfig) -> np.ndarray:
    """Bin index for every eigenvalue, warning on cross-group collisions.

    The map is injective whenever eigenvalue gaps exceed 2**-m / scale; when
    distinct degeneracy groups still share a bin the collision is reported
    through one PhaseCollisionWarning per call, never silently absorbed.
    """
    indices = np.round(_phases(spec.eigenvalues, config) * config.register_size).astype(int) % config.register_size
    owner = {}  # bin -> first degeneracy group mapped to it
    colliding = []
    for gi, group in enumerate(spec.degeneracy_groups):
        for k in sorted(set(indices[list(group)].tolist())):
            prior = owner.setdefault(k, gi)
            if prior != gi:
                colliding.append((prior, gi, k))
    if colliding:
        first, second, k = colliding[0]
        count = len({g for a, b, _ in colliding for g in (a, b)})
        warnings.warn(
            f"{count} eigenvalue groups share register bins with other groups, first "
            f"{spec.eigenvalues[spec.degeneracy_groups[first][0]]} and "
            f"{spec.eigenvalues[spec.degeneracy_groups[second][0]]} in bin {k}; "
            f"increase m or rescale the phase map",
            PhaseCollisionWarning,
            stacklevel=2,
        )
    return indices


@dataclass(frozen=True, eq=False)
class WeightedJointState:
    """Normalized joint system+register state with its norm bookkeeping.

    norm_factor is the norm the state lost to non-unitary weighting;
    expectation-style consumers multiply it back in quadrature.
    """

    joint: StateVector
    norm_factor: float

    @classmethod
    def wrap(cls, state: StateVector) -> "WeightedJointState":
        return cls(joint=state, norm_factor=1.0)


def _split_dims(joint_dim: int, config: QpeConfig):
    m_dim = config.register_size
    if joint_dim % m_dim != 0 or joint_dim // m_dim < 2:
        raise DomainError(
            f"joint dimension {joint_dim} does not factor into system x 2**{config.m} register"
        )
    return joint_dim // m_dim, m_dim


def _hadamard_matrix(m: int) -> np.ndarray:
    """H^{x m}: entries (-1)^popcount(a & b) / sqrt(2^m), by the Sylvester recursion."""
    signs = np.ones((1, 1))
    for _ in range(m):
        signs = np.kron(signs, [[1.0, 1.0], [1.0, -1.0]])
    return signs / np.sqrt(2**m)


def _transform_register_rows(rows: np.ndarray, spec: Spectrum, config: QpeConfig, inverse: bool):
    """Apply the per-eigenvector register transform to eigenbasis rows."""
    n_levels, m_dim = rows.shape
    if config.mode == "exact-binning":
        kp = register_indices(spec, config)
        idx = (np.arange(m_dim)[None, :] + (kp if inverse else -kp)[:, None]) % m_dim
        return np.take_along_axis(rows, idx, axis=1)

    # circuit mode: H then controlled phase powers then inverse DFT
    k = np.arange(m_dim)
    d = np.exp(2.0j * np.pi * np.outer(_phases(spec.eigenvalues, config), k))
    h = _hadamard_matrix(config.m)
    f = qft_matrix(config.m).entries
    if inverse:
        return ((rows @ f.T) * d.conj()) @ h.T
    return ((rows @ h.T) * d) @ f.conj()


def register_amplitudes(spec: Spectrum, config: QpeConfig) -> np.ndarray:
    """Register amplitudes a[p, k] = <k|R_p|0> after phase estimation on |p>.

    R_p is the per-eigenvector register transform of qpe_entangle, so the
    entangled state of sum_p c_p |p>|0> is sum_p c_p |p> (sum_k a[p, k] |k>).
    Exact binning gives a one-hot row at bin k_p; circuit mode gives the
    textbook phase-estimation kernel F^dag D_p H |0>.
    """
    rows = np.zeros((spec.dim, config.register_size), dtype=complex)
    rows[:, 0] = 1.0
    return _transform_register_rows(rows, spec, config, inverse=False)


def _apply_qpe(joint: np.ndarray, spec: Spectrum, config: QpeConfig, inverse: bool) -> np.ndarray:
    n_dim, m_dim = _split_dims(joint.shape[0], config)
    if n_dim != spec.dim:
        raise DomainError(f"system dimension {n_dim} does not match spectrum {spec.dim}")
    v = spec.eigenvectors
    rows = v.conj().T @ joint.reshape(n_dim, m_dim)
    rows = _transform_register_rows(rows, spec, config, inverse)
    return (v @ rows).reshape(-1)


def qpe_entangle(spec: Spectrum, state: StateVector, config: QpeConfig) -> StateVector:
    """Attach an m-qubit |0> register and bin-entangle it with the system.

    In exact-binning mode eigenvector p pairs with register bin k_p exactly;
    circuit mode instead simulates controlled powers of exp(2 pi i phi(A))
    followed by an inverse Fourier transform, which coincides with binning
    on dyadic spectra and leaks across neighbouring bins otherwise.
    """
    if state.n_qubits + config.m > MAX_QUBITS:
        raise DomainError(
            f"joint register of {state.n_qubits}+{config.m} qubits exceeds the cap {MAX_QUBITS}"
        )
    joint = np.zeros((state.dim, config.register_size), dtype=complex)
    joint[:, 0] = state.amplitudes
    out = _apply_qpe(joint.reshape(-1), spec, config, inverse=False)
    return StateVector(state.n_qubits + config.m, out)


def apply_upsilon(joint: StateVector, config: QpeConfig, w: WeightSpec, power: str = "one") -> WeightedJointState:
    """Multiply every occupied register slice by w(decoded energy)**power.

    The weight sees the decoded bin energy, not the true eigenvalue; on
    dyadic spectra the two coincide. power "half" is the square-root weight
    used when the weighted state itself is the object of interest. Slices
    holding less than OCCUPANCY_EPS probability are numerically empty and
    weigh zero. The result is renormalized, with the lost norm recorded.
    """
    if power not in ("one", "half"):
        raise ConfigError(f"power must be 'one' or 'half', got {power!r}")
    n_dim, m_dim = _split_dims(joint.dim, config)
    rows = joint.amplitudes.reshape(n_dim, m_dim)
    occupancy = np.sum(np.abs(rows) ** 2, axis=0)
    full = _bin_weights(occupancy > OCCUPANCY_EPS, config, w)
    if power == "half":
        full = half_power_table(full, config)
    norm_factor = float(np.sqrt(occupancy @ full**2))
    if norm_factor <= 1e-14:
        raise SingularityError("weighting annihilated every occupied register slice")
    out = StateVector(joint.n_qubits, (rows * full[None, :] / norm_factor).reshape(-1))
    return WeightedJointState(out, norm_factor)


def qpe_disentangle(weighted: WeightedJointState, spec: Spectrum, config: QpeConfig) -> WeightedJointState:
    """Invert the entangling transform, ideally returning the register to |0>.

    Exact-binning round trips are exact. In circuit mode a register slice
    that leaked across bins only refocuses onto |0> when the weighting was
    constant over the occupied slices; the residual is measurable via
    register_residual.
    """
    out = _apply_qpe(weighted.joint.amplitudes, spec, config, inverse=True)
    state = StateVector(weighted.joint.n_qubits, out)
    return WeightedJointState(state, weighted.norm_factor)


def register_residual(weighted: WeightedJointState, config: QpeConfig) -> float:
    """Probability left outside the |0...0> register slice."""
    n_dim, m_dim = _split_dims(weighted.joint.dim, config)
    rows = weighted.joint.amplitudes.reshape(n_dim, m_dim)
    return float(max(0.0, 1.0 - np.sum(np.abs(rows[:, 0]) ** 2)))


def system_slice(weighted: WeightedJointState, config: QpeConfig) -> np.ndarray:
    """Unnormalized system amplitudes co-located with register |0...0>."""
    n_dim, m_dim = _split_dims(weighted.joint.dim, config)
    return weighted.joint.amplitudes.reshape(n_dim, m_dim)[:, 0].copy()


def reweighted_delta(delta: DenseOperator, spec: Spectrum, w: WeightSpec, energies=None, span=None) -> DenseOperator:
    """Observable with eigenbasis diagonal rescaled by the weight.

    In the eigenbasis of the input operator the result carries entries
    Delta_pp * f(E_p) on the diagonal and Delta_pq unchanged off it. Explicit
    energies (e.g. decoded register energies) replace the eigenvalues, and a
    span (e.g. representable_span) the spectral range that sets the window.
    """
    delta_eig = in_eigenbasis(spec, delta)
    if energies is None:
        energies = spec.eigenvalues
    values = w.evaluate(np.asarray(energies, dtype=float), spec.spectral_range if span is None else span)
    v = spec.eigenvectors
    np.fill_diagonal(delta_eig, np.diag(delta_eig) * values)
    mat = v @ delta_eig @ v.conj().T
    return DenseOperator(spec.dim, 0.5 * (mat + mat.conj().T))


def entangle_matrix(spec: Spectrum, config: QpeConfig) -> np.ndarray:
    """Dense unitary of the entangling transform on the joint space.

    Reference construction for tests; the estimators work in the eigenbasis
    from register_amplitudes instead.
    """
    n_dim = spec.dim
    m_dim = config.register_size
    v = spec.eigenvectors
    total = np.zeros((n_dim * m_dim, n_dim * m_dim), dtype=complex)
    if config.mode == "exact-binning":
        kp = register_indices(spec, config)
        regs = []
        for p in range(n_dim):
            r = np.zeros((m_dim, m_dim), dtype=complex)
            r[(np.arange(m_dim) + kp[p]) % m_dim, np.arange(m_dim)] = 1.0
            regs.append(r)
    else:
        phi = (spec.eigenvalues - config.shift) * config.scale
        k = np.arange(m_dim)
        h = _hadamard_matrix(config.m)
        f = qft_matrix(config.m).entries
        regs = [f.conj().T @ np.diag(np.exp(2.0j * np.pi * phi[p] * k)) @ h for p in range(n_dim)]
    for p in range(n_dim):
        proj = np.outer(v[:, p], v[:, p].conj())
        total += np.kron(proj, regs[p])
    return total


def upsilon_table(spec: Spectrum, config: QpeConfig, w: WeightSpec) -> np.ndarray:
    """Register weight table of length 2**m (see reached_weight_table)."""
    return reached_weight_table(register_amplitudes(spec, config), config, w)


def reached_weight_table(amps: np.ndarray, config: QpeConfig, w: WeightSpec) -> np.ndarray:
    """Weights of the register bins the amplitudes a[p, k] reach.

    A bin counts as reached when sum_p |a_p[k]|^2 exceeds OCCUPANCY_EPS, the
    threshold apply_upsilon applies to a state's occupancy. Both estimator
    forms weight by this table, whatever their state. Reached bins must evaluate cleanly, so
    a singular weight there raises; every other bin holds zero, since no
    amplitude lands on it.
    """
    return _bin_weights(np.sum(np.abs(amps) ** 2, axis=0) > OCCUPANCY_EPS, config, w)


def _bin_weights(reached: np.ndarray, config: QpeConfig, w: WeightSpec) -> np.ndarray:
    """w at the decoded energies of the reached bins, zero on every other bin."""
    table = np.zeros(config.register_size)
    table[reached] = w.evaluate(energy_table(config)[reached], config.representable_span)
    return table


def half_power_table(table: np.ndarray, config: QpeConfig) -> np.ndarray:
    """sqrt of a bin weight table, the weight a state carries when its
    overlaps are squared; a negative weight has no real root, so it raises
    whatever the policy."""
    negative = table < 0
    if np.any(negative):
        raise SingularityError(f"negative weight at decoded energy {energy_table(config)[negative][0]} under half power")
    return np.sqrt(table)


def eigen_weights(spec: Spectrum, config: QpeConfig, amps: np.ndarray, w: WeightSpec) -> np.ndarray:
    """w at the energy each eigenvalue's weight sees, read off its register row
    a[p, :] = amps[p] (its one-hot bin's decoded energy in exact binning, the
    eigenvalue itself in circuit mode), under the bin table's window."""
    energies = spec.eigenvalues if config.mode == "circuit" else energy_table(config)[np.abs(amps).argmax(axis=1)]
    return w.evaluate(energies, config.representable_span)


def joint_observable_matrix(delta: DenseOperator, spec: Spectrum, config: QpeConfig, w: WeightSpec) -> np.ndarray:
    """Dense Hermitian observable: entangle, weight the register, disentangle.

    This is the operator the operator-form estimator measures, built on the
    joint space as a reference for tests; its restriction to the |0>
    register sector reproduces qpe_sandwich_matrix.
    """
    if delta.dim != spec.dim:
        raise DomainError(f"operator dimensions differ: {delta.dim} vs {spec.dim}")
    e = entangle_matrix(spec, config)
    table = upsilon_table(spec, config, w)
    joint = np.kron(delta.matrix(), np.diag(table))
    obs = e.conj().T @ joint @ e
    return 0.5 * (obs + obs.conj().T)


def qpe_sandwich_matrix(delta: DenseOperator, spec: Spectrum, config: QpeConfig, w: WeightSpec) -> np.ndarray:
    """System-space compression of the weighted sandwich at register |0>."""
    obs = joint_observable_matrix(delta, spec, config, w)
    m_dim = config.register_size
    n_dim = spec.dim
    return obs.reshape(n_dim, m_dim, n_dim, m_dim)[:, 0, :, 0]
