"""Time evolution: exact spectral propagation and Trotter product formulas.

Exact evolution is the workhorse; the Trotter modes exist to expose the gate
cost of circuit-style propagation and to measure product-formula convergence
orders against the exact reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import StateVector, check_term_lengths
from .errors import ConfigError, DomainError
from .estimators import _evolved
from .spectral import Spectrum

EVOLUTION_METHODS = ("exact", "trotter1", "trotter2")


@dataclass(frozen=True)
class EvolutionConfig:
    """Propagation settings plus a gate-application tally.

    The tally travels by value: functions that spend gates return an updated
    copy rather than mutating shared state.
    """

    method: str = "exact"
    dt: float = 0.1
    steps_per_dt: int = 1
    cost_counter: int = 0

    def __post_init__(self):
        if self.method not in EVOLUTION_METHODS:
            raise ConfigError(f"unknown evolution method {self.method!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps_per_dt < 1:
            raise ConfigError(f"steps_per_dt must be >= 1, got {self.steps_per_dt}")

    def add_cost(self, gates: int) -> "EvolutionConfig":
        return dataclasses.replace(self, cost_counter=self.cost_counter + gates)


def evolve_exact(spec: Spectrum, state: StateVector, t: float) -> StateVector:
    """exp(-i A t)|state> through the eigenbasis; exact for any t."""
    if state.dim != spec.dim:
        raise DomainError(f"state dimension {state.dim} does not match spectrum {spec.dim}")
    if not np.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    v = spec.eigenvectors
    coeffs = v.conj().T @ state.amplitudes
    coeffs = coeffs * np.exp(-1.0j * spec.eigenvalues * t)
    return StateVector(state.n_qubits, v @ coeffs)


def evolve_trotter(terms, state: StateVector, t: float, config: EvolutionConfig):
    """Product-formula propagation of a Pauli-term Hamiltonian.

    The duration splits into ceil(t/dt) chunks of at most dt, each resolved
    with config.steps_per_dt substeps. trotter1 applies one exponential per
    term per substep; trotter2 uses the symmetric splitting at twice the
    gate count. Returns (state, config) with the gate tally advanced by
    (exponentials per substep) * (total substeps). Each costs O(N): P squares to
    identity, so exp(-i a P) v = cos(a) v - i sin(a) (phase * v)[j ^ flip].
    """
    if t < 0 or not np.isfinite(t):
        raise DomainError(f"evolution time must be >= 0 and finite, got {t!r}")
    if config.method not in ("trotter1", "trotter2"):
        raise ConfigError(f"evolve_trotter called with method {config.method!r}")
    terms = list(terms)
    if not terms:
        raise DomainError("trotter evolution needs at least one term")
    check_term_lengths(terms, state.n_qubits)
    if t == 0:
        return state, config

    chunks = max(1, int(np.ceil(t / config.dt - 1e-12)))
    substeps = chunks * config.steps_per_dt
    delta = t / substeps

    # one substep is one sweep; trotter2's is the half-angle sweep and its mirror image
    split = 2.0 if config.method == "trotter2" else 1.0
    rows = np.arange(state.dim)
    sweep = []
    for term in terms:
        flip, phase = term.action()
        angle = term.coefficient * delta / split
        sweep.append((rows ^ flip, phase, np.cos(angle), 1.0j * np.sin(angle)))
    if split == 2.0:
        sweep += sweep[::-1]

    vec = state.amplitudes
    for _ in range(substeps):
        for perm, phase, cos, isin in sweep:
            vec = cos * vec - isin * (phase * vec)[perm]

    vec /= np.linalg.norm(vec)  # scrub accumulated rounding, unitarity is exact in theory
    return StateVector(state.n_qubits, vec), config.add_cost(len(sweep) * substeps)


def evolution_series(source, r: StateVector, dt: float, num_steps: int, config: EvolutionConfig):
    """States at t_j = j*dt for j = 1..num_steps, all evolved from the same r.

    source is a Spectrum for the exact method or an iterable of PauliTerm
    for the Trotter methods. Exact mode takes each step's eigen-coefficients
    from the estimators' phase-table kernel, which computes step j from j
    itself rather than by a recurrence over the steps before it; Trotter
    mode composes one dt-chunk per step, which coincides with the product
    formula applied to the full duration. Returns (states, config) with one
    gate per step tallied in exact mode and the product-formula tally
    otherwise.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    if num_steps < 1:
        raise ConfigError(f"num_steps must be >= 1, got {num_steps}")

    states = []
    if config.method == "exact":
        spec = source
        if not isinstance(spec, Spectrum):
            raise DomainError("exact evolution_series needs a Spectrum source")
        coeffs = spec.coefficients(r.amplitudes)
        for block in _evolved(spec.eigenvalues, coeffs, dt, num_steps):
            states.extend(StateVector(r.n_qubits, amps) for amps in (spec.eigenvectors @ block).T)
        return states, config.add_cost(num_steps)

    step_config = dataclasses.replace(config, dt=dt)
    state = r
    for _ in range(num_steps):
        state, step_config = evolve_trotter(source, state, dt, step_config)
        states.append(state)
    return states, dataclasses.replace(config, cost_counter=step_config.cost_counter)
