"""Time-average estimators for weighted spectral quantities.

The central maneuver: instead of preparing an equal superposition of
eigenstates, evolve a generic state, bin its energy content on a phase
register, weight the bins, and time-average. The infinite-time limit is the
diagonal ensemble; when eigenstate expectations are structureless the
diagonal ensemble reproduces the trace average, and weighted variants then
deliver inverse expectations and log-det gradients.

Two realizations are provided. The operator form measures the register-
weighted observable directly; the vector form carries the square-root
weight on the state and reads the result from overlap probabilities.
Both work from one Delta^eig = V^dag Delta V = P Q^dag, carried as its
N x r factors (P, Q), for kernel and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DenseOperator, StateVector, projector_from_state, random_state, uniform_superposition
from .errors import ConfigError, DomainError, SingularityError
from .phase_estimation import QpeConfig, eigen_weights, half_power_table, reached_weight_table, register_amplitudes
from .rng import derive_seed, substream
from .spectral import Spectrum, eigenbasis_block, eigenbasis_diagonal, eigenbasis_ensemble, eigenbasis_factors, factored_commutator_norm, logdet_gradient_oracle, spectral_commutator_norm, spectrum_of, trace_weighted
from .weights import INVERSE, WeightSpec

FORMS = ("operator", "vector")
INITIAL_STATE_KINDS = ("uniform", "haar", "phase-product", "explicit")
SAMPLING_MODES = ("exact", "shots")

VERDICT_THERMALIZED = "THERMALIZED"
VERDICT_DIAGONAL = "DIAGONAL-ENSEMBLE-ONLY"
VERDICT_NON_STATIONARY = "NON-STATIONARY"

PLATEAU_TOL_FLOOR = 1e-6
INTEGRABLE_COMMUTATOR_TOL = 1e-10
DEFAULT_BATCHES = 10

# byte budget of a block of steps: of evolved coefficients, and of a shot sub-block's largest transient
_CHUNK_BYTES = 1 << 20
# steps per row of the phase table: one exponential per eigenvalue per this many steps
_PHASE_WIDTH = 64


@dataclass(frozen=True)
class InitialState:
    """Initial-state recipe: uniform, seeded random ensemble, or explicit."""

    kind: str = "uniform"
    seed: Optional[int] = None
    amplitudes: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in INITIAL_STATE_KINDS:
            raise ConfigError(
                f"field 'eth.initial_state.kind': unknown kind {self.kind!r}; "
                f"expected one of {INITIAL_STATE_KINDS}"
            )
        if self.kind == "explicit" and self.amplitudes is None:
            raise ConfigError("explicit initial state requires amplitudes")


@dataclass(frozen=True)
class EthConfig:
    """Sampling grid t_j = j*dt, shot budget, seed and restart policy."""

    dt: float
    num_steps: int
    sampling: str = "exact"
    shots: int = 0
    seed: int = 0
    initial_state: InitialState = field(default_factory=InitialState)
    repetitions: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigError(
                f"field 'eth.sampling': unknown mode {self.sampling!r}; expected one of {SAMPLING_MODES}"
            )
        if self.sampling == "shots" and self.shots < 1:
            raise ConfigError("shots sampling requires shots >= 1")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class CostCounters:
    """Resource tallies: evolution steps, gate applications, shots drawn."""

    time_steps: int = 0
    gate_tally: int = 0
    shots: int = 0


@dataclass(frozen=True)
class ThermalizationVerdict:
    """Classification of a time-average series against its exact targets."""

    verdict: str
    plateau: float
    drift: float
    standard_error: float
    trace_target: float
    diagonal_target: float
    commutator: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class EthEstimate:
    """Raw time-average estimate with its uncertainty and bookkeeping.

    estimate is the plain running mean of the sampled series; its target's
    normalization turns it into a target value.
    """

    estimate: float
    standard_error: float
    series: np.ndarray
    running_mean: np.ndarray
    running_se: np.ndarray
    cost: CostCounters
    thermalized: ThermalizationVerdict
    register_residual: float = 0.0

    def __post_init__(self):
        for name in ("series", "running_mean", "running_se"):
            column = np.asarray(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
            if column.shape != self.series.shape:
                raise DomainError(f"{name} length must match the series")
        if abs(self.running_mean[-1] - self.estimate) > 1e-12 * (1.0 + abs(self.estimate)):
            raise DomainError("estimate must equal the final running mean")


def running_mean(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    out = np.cumsum(series)
    out /= np.arange(1, series.size + 1)
    return out


def running_standard_error(series: np.ndarray) -> np.ndarray:
    """Naive running SE of the mean (sample std / sqrt(count)); first entry 0.

    In place over two K-length buffers beside the counts n, in the order of
    sqrt(where(n > 1, max(cumsum(x^2)/n - (cumsum(x)/n)^2, 0) * n / (n - 1), 0) / n),
    so the result is bit-identical to that whole-array expression."""
    series = np.asarray(series, dtype=float)
    n = np.arange(1, series.size + 1, dtype=float)
    out = np.square(series)
    np.cumsum(out, out=out)
    out /= n
    mean = np.cumsum(series)
    mean /= n
    np.square(mean, out=mean)
    out -= mean
    np.maximum(out, 0.0, out=out)
    out *= n
    np.subtract(n, 1.0, out=mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= mean
    out[:1] = 0.0
    out /= n
    return np.sqrt(out, out=out)


def batch_means_standard_error(series: np.ndarray, n_batches: int = DEFAULT_BATCHES) -> float:
    """SE of the mean from batch means; robust to serial correlation."""
    series = np.asarray(series, dtype=float)
    if series.size < 2:
        return 0.0
    nb = min(n_batches, series.size)
    size = series.size // nb
    means = series[: nb * size].reshape(nb, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(nb))


def _statistics(series: np.ndarray) -> tuple:
    """The one reducer: a series' running_mean and running_se columns and its batch-means SE."""
    return running_mean(series), running_standard_error(series), batch_means_standard_error(series)


def _resolve_initial_state(eth: EthConfig, n_qubits: int, rep: int) -> StateVector:
    init = eth.initial_state
    if init.kind == "uniform":
        return uniform_superposition(n_qubits)
    if init.kind == "explicit":
        return StateVector(n_qubits, np.asarray(init.amplitudes, dtype=complex))
    base = init.seed if init.seed is not None else eth.seed
    seed = base if rep == 0 else derive_seed(base, "restart", rep)
    return random_state(n_qubits, seed, ensemble=init.kind)


def _chunk_columns(per_step: int) -> int:
    """Time steps per block of per_step complex numbers each: at most _CHUNK_BYTES, at least one step."""
    return max(1, _CHUNK_BYTES // (16 * per_step))


def _evolved(eigenvalues: np.ndarray, coeffs: np.ndarray, dt: float, num_steps: int):
    """Eigen-coefficients c_p(t_j) = c_p exp(-i E_p t_j) at t_j = j*dt for
    j = 1..num_steps, yielded as column blocks of _chunk_columns steps.

    With j = q*W + r, r = 1..W (W = _PHASE_WIDTH), c_p(t_j) is the offset
    exp(-i E_p dt qW) times the table entry c_p exp(-i E_p dt r): N*W
    exponentials for the table and N per W steps for the offsets. Each entry
    is one product of the two, so c(t_j) depends on j alone, not on the
    block width or on num_steps."""
    chunk = _chunk_columns(eigenvalues.size)
    angle = -dt * eigenvalues
    table = np.exp(1.0j * np.outer(angle, np.arange(1, _PHASE_WIDTH + 1)))
    table *= coeffs[:, None]
    for start in range(0, num_steps, chunk):
        stop = min(start + chunk, num_steps)
        first, last = start // _PHASE_WIDTH, (stop - 1) // _PHASE_WIDTH + 1
        offsets = np.exp(1.0j * np.outer(angle, _PHASE_WIDTH * np.arange(first, last)))
        lo, hi = start - first * _PHASE_WIDTH, stop - first * _PHASE_WIDTH
        if last - first == 1:
            # a block inside one table row (N >= 2^10) takes only its own columns
            yield offsets * table[:, lo:hi]
        else:
            yield (offsets[:, :, None] * table[:, None, :]).reshape(eigenvalues.size, -1)[:, lo:hi]


def _series_kernel(spec: Spectrum, left: np.ndarray, right: Optional[np.ndarray], amps: np.ndarray, table: np.ndarray):
    """G = Delta^eig o (conj(a) W a^T), the sandwich <q,0| E^dag (Delta x W)
    E |p,0> in A's eigenbasis: Delta^eig = left right^dag (left itself when
    right is None), a = amps and W = diag(table), as (order, splits, blocks).

    G_qp vanishes unless rows a_q and a_p share register support. When every
    row of amps is one-hot (exact binning) G is one block per bin, w_k
    Delta^eig on bin k; otherwise (dense circuit rows) it is one block. The
    eigen-indices sorted by block are order, np.split(order, splits) the
    blocks' indices, and blocks their G_kk. It depends on no initial state,
    so a run builds it once for all its repetitions.
    """
    one_hot = np.all(np.count_nonzero(amps, axis=1) == 1)
    bins = np.abs(amps).argmax(axis=1) if one_hot else np.zeros(spec.dim, int)
    order = np.argsort(bins, kind="stable")
    splits = np.flatnonzero(np.diff(bins[order])) + 1
    blocks = [eigenbasis_block(left, right, idx) * ((amps[idx].conj() * table) @ amps[idx].T)
              for idx in np.split(order, splits)]
    return order, splits, blocks


def _exact_series(spec: Spectrum, kernel: tuple, coeffs: np.ndarray, dt: float, num_steps: int) -> np.ndarray:
    """Per-step c(t_j)^dag G c(t_j) for G = _series_kernel(...). Sorted by
    block, each block's rows c_k of a block of evolved coefficients are a
    view: G_kk c_k, then a column dot with c_k conjugated in place. Each
    block of evolved coefficients is dropped before the next one is built.
    """
    order, splits, blocks = kernel
    series = np.zeros(num_steps)
    start = 0
    for c in _evolved(spec.eigenvalues[order], coeffs[order], dt, num_steps):
        total = series[start : start + c.shape[1]]
        start += c.shape[1]
        for g, ck in zip(blocks, np.split(c, splits)):
            total += np.einsum("qk,qk->k", g @ ck, np.conjugate(ck, out=ck)).real
        del c, ck  # before _evolved builds the next block
    return series


def _diagnose(rm: np.ndarray, se: float, spec: Spectrum, eff: tuple, diag_target: float, comm: float) -> ThermalizationVerdict:
    """Verdict from the series' running mean rm and batch-means SE, Delta_eff^eig
    = diag(weights) P Q^dag given as eff = (P, Q, weights), its diagonal target
    and comm = max |[A, Delta_eff]|."""
    plateau = float(rm[-1])
    mid = rm[rm.size // 2 - 1] if rm.size >= 2 else rm[-1]
    drift = abs(plateau - float(mid))
    tol = max(5.0 * se, PLATEAU_TOL_FLOOR)

    left, right, weights = eff
    trace_target = float(np.real(np.sum(weights * eigenbasis_diagonal(left, right)))) / spec.dim

    trace_gap = abs(plateau - trace_target)
    diag_gap = abs(plateau - diag_target)
    trace_match = trace_gap <= tol
    diag_match = diag_gap <= tol

    if comm <= INTEGRABLE_COMMUTATOR_TOL:
        # conserved observable: a flat series here never counts as thermal
        if diag_match and drift <= max(tol, 0.1 * trace_gap):
            verdict = VERDICT_DIAGONAL
        else:
            verdict = VERDICT_NON_STATIONARY
    elif trace_match and drift <= max(tol, 0.1 * max(abs(trace_target - diag_target), tol)):
        verdict = VERDICT_THERMALIZED
    elif diag_match and drift <= max(tol, 0.1 * trace_gap):
        verdict = VERDICT_DIAGONAL
    else:
        verdict = VERDICT_NON_STATIONARY

    return ThermalizationVerdict(
        verdict=verdict,
        plateau=plateau,
        drift=drift,
        standard_error=se,
        trace_target=trace_target,
        diagonal_target=diag_target,
        commutator=comm,
        tolerance=tol,
    )


def thermalization_diagnostics(series, spec: Spectrum, delta: DenseOperator, r: StateVector) -> ThermalizationVerdict:
    """Classify a sampled series as THERMALIZED, DIAGONAL-ENSEMBLE-ONLY or
    NON-STATIONARY.

    delta is the effective observable the series sampled (weight folded in).
    The plateau is compared against Tr(delta)/N and against the diagonal
    ensemble for the initial state r, with tolerance max(5 SE, 1e-6); a
    vanishing commutator with the evolution generator vetoes THERMALIZED
    because a conserved observable never dephases.
    """
    series = np.asarray(series, dtype=float)
    if series.size < 1:
        raise DomainError("diagnostics need a nonempty series")
    left, right = eigenbasis_factors(spec, delta)
    diag_target = eigenbasis_ensemble(spec, left, r, right)
    comm = spectral_commutator_norm(spec, delta)
    rm, _, se = _statistics(series)
    return _diagnose(rm, se, spec, (left, right, 1.0), diag_target, comm)


def swap_test_estimate(a: StateVector, b: StateVector, shots: int, seed: int) -> float:
    """Overlap-squared estimate from simulated swap-test outcomes.

    P(ancilla 0) = (1 + |<a|b>|^2) / 2; the estimator 2*frac0 - 1 is clamped
    to [0, 1], which biases only overlaps indistinguishable from zero.
    """
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    if a.n_qubits != b.n_qubits:
        raise DomainError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return float(_swap_test_draw(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2, shots, substream(seed, "swap-test")))


def _swap_test_draw(overlap_sq, shots: int, rng: np.random.Generator):
    """Clamped swap-test estimates of each overlap_sq, drawn in order with one binomial call."""
    zeros = rng.binomial(shots, np.minimum(0.5 * (1.0 + overlap_sq), 1.0))
    return np.clip(2.0 * zeros / shots - 1.0, 0.0, 1.0)


def _shot_outcomes(spec, delta, table, amps):
    """Outcome values of the weighted observable, and the function mapping
    evolved eigen-coefficients c to the outcome probabilities.

    A Hermitian Delta = L R^dag = R L^dag vanishes off range(R). With Q an
    orthonormal basis of it (I without factors, where Delta is (entries, I)),
    Delta = Q M Q^dag for the small M = (Q^dag L)(Q^dag R)^dag, whose r
    eigenpairs (d_i, w_i) give Delta's eigenpairs (d_i, u_i = Q w_i) on that
    span; the rest of the space has eigenvalue 0. Measuring E^dag (Delta x W) E
    on |psi,0> gives the outcomes of Delta x W on E|psi,0> = sum_p c_p |p> a_p:
    the value d_i w_k with probability |sum_p <u_i|p> c_p a_p[k]|^2, and last
    the value 0 with the remaining probability, clipped at 0.
    """
    if not delta.hermitian:
        raise ConfigError("shot sampling requires a Hermitian observable")
    left, right = delta.factors or (delta.entries, None)
    if right is None:
        d, u = np.linalg.eigh(left)
    else:
        q = np.linalg.qr(right)[0]  # may over-span a rank-deficient R, which only adds d_i = 0
        qh = q.conj().T
        d, w = np.linalg.eigh((qh @ left) @ (qh @ right).conj().T)
        u = q @ w
    overlap = u.conj().T @ spec.eigenvectors

    def probabilities(c):
        """One distribution per column of c (N, or N x B steps). Row j holds
        step j's outcomes (i, k) at i * 2^m + k, then the zero outcome."""
        cols = c.reshape(spec.dim, -1)
        # B x r x N times N x 2^m, one product per step: a step's amplitudes
        # do not depend on how many steps share its block
        amp = (cols.T[:, None, :] * overlap) @ amps
        probs = np.empty((cols.shape[1], amp[0].size + 1))
        np.square(np.abs(amp.reshape(cols.shape[1], -1)), out=probs[:, :-1])
        probs[:, -1] = np.maximum(1.0 - probs[:, :-1].sum(axis=1), 0.0)
        return probs.reshape(c.shape[1:] + (-1,))

    return np.append(np.outer(d, table).ravel(), 0.0), probabilities


def _time_average(spec: Spectrum, eth: EthConfig, eff: tuple, draw, commutator) -> EthEstimate:
    """The repetition loop both forms share.

    Per repetition: resolve the initial state r, take c = V^dag r, sample the
    series with draw(rep, c) -> (samples, register residual) and record the
    diagonal ensemble of Delta_eff^eig = diag(weights) P Q^dag, given as
    eff = (P, Q, weights), the weights from eigen_weights. Delta_eff is
    never formed: the diagonal ensemble reads only the weighted diagonal
    and the blocks of degeneracy groups, and within a group every row carries
    the same weight. The concatenated series (one repetition's own array,
    uncopied) then gets its columns and SE from _statistics, and its verdict;
    commutator() is called once, after the series.
    """
    all_samples = []
    diag_targets = []
    residuals = []
    for rep in range(eth.repetitions):
        r = _resolve_initial_state(eth, int(np.log2(spec.dim)), rep)
        if r.dim != spec.dim:
            raise DomainError(f"initial state dimension {r.dim} does not match {spec.dim}")
        samples, residual = draw(rep, spec.coefficients(r.amplitudes))
        all_samples.append(samples)
        residuals.append(residual)
        diag_targets.append(eigenbasis_ensemble(spec, eff[0], r, *eff[1:]))

    series = all_samples[0] if len(all_samples) == 1 else np.concatenate(all_samples)
    del all_samples  # several repetitions' pieces, before the K-length statistics
    rm, rse, se = _statistics(series)
    verdict = _diagnose(rm, se, spec, eff, float(np.mean(diag_targets)), commutator())
    steps = eth.repetitions * eth.num_steps
    shots = eth.shots * steps if eth.sampling == "shots" else 0
    return EthEstimate(
        estimate=float(rm[-1]),
        standard_error=se,
        series=series,
        running_mean=rm,
        running_se=rse,
        cost=CostCounters(time_steps=steps, gate_tally=3 * steps, shots=shots),
        thermalized=verdict,
        register_residual=float(np.mean(residuals)),
    )


def run_operator_form(a: DenseOperator | Spectrum, delta: DenseOperator, w: WeightSpec, eth: EthConfig, qpe: QpeConfig) -> EthEstimate:
    """Time-average of the register-weighted observable expectation.

    Per step the sampled quantity is the joint expectation of the entangle/
    weight/disentangle sandwich on |psi(t_j)>|0...0>. In exact-expectation
    mode with uniform eigenbasis populations the average converges to
    (1/N) sum_p <p|delta|p> f(E_p); shots mode measures the observable in
    its eigenbasis with the configured budget per step.
    """
    spec = spectrum_of(a)
    left, right = eigenbasis_factors(spec, delta)
    amps = register_amplitudes(spec, qpe)
    table = reached_weight_table(amps, qpe, w)
    if eth.sampling == "shots":
        values, probabilities = _shot_outcomes(spec, delta, table, amps)
    else:
        kernel = _series_kernel(spec, left, right, amps, table)

    def draw(rep, coeffs):
        if eth.sampling == "exact":
            return _exact_series(spec, kernel, coeffs, eth.dt, eth.num_steps), 0.0
        # one generator per repetition, drawn in step order: the series is the
        # same for any block width and a prefix of any longer run's
        rng = substream(eth.seed, "shots", rep)
        # values holds r * 2^m outcomes and the zero one; a step's largest
        # transient is its r x N weighted overlaps or its r x 2^m amplitudes
        width = _chunk_columns((values.size - 1) // table.size * max(spec.dim, table.size))
        # a row sum, not counts @ values, whose rounding depends on the block height
        totals = [(rng.multinomial(eth.shots, probabilities(block[:, i : i + width])) * values).sum(axis=1)
                  for block in _evolved(spec.eigenvalues, coeffs, eth.dt, eth.num_steps)
                  for i in range(0, block.shape[1], width)]
        return np.concatenate(totals) / eth.shots, 0.0

    eff = (left, right, eigen_weights(spec, qpe, amps, w))
    return _time_average(spec, eth, eff, draw, lambda: spectral_commutator_norm(spec, delta))


def run_vector_form(a: DenseOperator | Spectrum, phi: StateVector, eth: EthConfig, qpe: QpeConfig, w: WeightSpec = INVERSE) -> EthEstimate:
    """Time-average of weighted overlap probabilities against |phi>.

    The evolved state is entangled with the register, carries the square
    root of the weight w (1/E unless given), is disentangled, and its overlap
    with phi is squared. Every register bin any eigenvector reaches carries
    sqrt(w), so a negative weight there raises SingularityError whatever the
    policy. In exact binning the per-step sample norm_factor^2
    |<phi|psi_w(t)>|^2 time-averages to sum_p |c_p|^2 |<phi|p>|^2 w(E_p);
    circuit-mode leakage makes the weight on p a mix of several bins'.
    Shots mode reads the overlap from a simulated swap test instead of exact
    arithmetic.
    """
    spec = spectrum_of(a)
    if phi.dim != spec.dim:
        raise DomainError(f"phi dimension {phi.dim} does not match {spec.dim}")
    amps = register_amplitudes(spec, qpe)
    prob = np.abs(amps) ** 2
    root = half_power_table(reached_weight_table(amps, qpe, w), qpe)
    # After entangling, weighting the bins by sqrt(w) and disentangling, the
    # |0> register slice is V (gamma * c(t)) / norm_factor with gamma_p =
    # sum_k |a_p[k]|^2 sqrt(w_k), the same for every state and step.
    gamma = prob @ root
    b = spec.coefficients(phi.amplitudes)
    u = b.conj() * gamma
    # Delta = |phi><phi| has the factors L = R = phi, so Delta^eig = b b^dag: P = Q = b
    eff = (b[:, None], b[:, None], eigen_weights(spec, qpe, amps, w))

    def draw(rep, coeffs):
        norm_factor = float(np.sqrt((np.abs(coeffs) ** 2 @ prob) @ root**2))
        if norm_factor <= 1e-14:
            raise SingularityError("weighting annihilated every occupied register slice")
        samples = np.concatenate(list(map(lambda c: np.abs(u @ c) ** 2, _evolved(spec.eigenvalues, coeffs, eth.dt, eth.num_steps))))
        kept = float(np.sum(np.abs(gamma * coeffs) ** 2))  # (norm_factor * slice norm)^2
        if eth.sampling == "shots":
            samples = kept * _swap_test_draw(samples / kept, eth.shots, substream(eth.seed, "shots", rep))
        return samples, max(0.0, 1.0 - kept / norm_factor**2)

    factor = phi.amplitudes[:, None]
    return _time_average(spec, eth, eff, draw, lambda: factored_commutator_norm(spec, factor, factor))


@dataclass(frozen=True)
class NormalizedEstimate:
    """Target value: the raw time average times its normalization, which is
    the dimension N for inverse and log-det targets and 1 for time averages."""

    value: float
    standard_error: float
    normalization: float
    raw: EthEstimate


# One row per target: its forms, its operator-form observable ("delta" for the
# configured Delta, "phi" for |phi><phi|), its weight (None: the configured
# one, normalized by 1; INVERSE, the fixed 1/E, by N) and its oracle, from
# (A, spectrum, observable, raw estimate). The vector form always measures
# the overlap with phi, under the same weight as the operator form.
TARGET_ROWS = {
    "time-average": (FORMS, "delta", None, lambda a, spec, delta, raw: raw.thermalized.diagonal_target),
    "inverse-expectation": (FORMS, "phi", INVERSE, lambda a, spec, delta, raw: trace_weighted(spec, delta, INVERSE)),
    # the finite-difference check reads the run's own A
    "logdet-gradient": (("operator",), "delta", INVERSE, lambda a, spec, delta, raw: logdet_gradient_oracle(a, delta, spec)),
}


def _run_target(target: str, form: str, a: DenseOperator | Spectrum, delta: Optional[DenseOperator], phi: Optional[StateVector],
                eth: EthConfig, qpe: QpeConfig, weight: Optional[WeightSpec] = None) -> NormalizedEstimate:
    """target's row in one form: delta is the operator form's observable, phi
    the vector form's state, weight the configured one a fixed weight replaces."""
    forms, _, fixed, _ = TARGET_ROWS[target]
    if form not in forms:
        raise ConfigError(f"form must be {' or '.join(map(repr, forms))}, got {form!r}")
    w = fixed or weight
    if form == "operator":
        raw = run_operator_form(a, delta, w, eth, qpe)
    else:
        raw = run_vector_form(a, phi, eth, qpe, w)
    factor = 1.0 if fixed is None else float(a.dim)
    return NormalizedEstimate(factor * raw.estimate, factor * raw.standard_error, factor, raw)


def inverse_expectation_result(a: DenseOperator | Spectrum, phi: StateVector, eth: EthConfig, qpe: QpeConfig, form: str = "operator") -> NormalizedEstimate:
    delta = projector_from_state(phi) if form == "operator" else None
    return _run_target("inverse-expectation", form, a, delta, phi, eth, qpe)


def estimate_inverse_expectation(a: DenseOperator, phi: StateVector, eth: EthConfig, qpe: QpeConfig, form: str = "operator") -> float:
    """N times the raw time average, recovering <phi|A^{-1}|phi>.

    Exact for uniform eigenbasis populations; generic initial states carry
    their diagonal-ensemble bias, which the thermalization verdict flags.
    """
    return inverse_expectation_result(a, phi, eth, qpe, form).value


def logdet_gradient_result(a: DenseOperator | Spectrum, delta_mask: DenseOperator, eth: EthConfig, qpe: QpeConfig) -> NormalizedEstimate:
    return _run_target("logdet-gradient", "operator", a, delta_mask, None, eth, qpe)


def estimate_logdet_gradient(a: DenseOperator, delta_mask: DenseOperator, eth: EthConfig, qpe: QpeConfig) -> float:
    """N times the inverse-weighted mask average, estimating Tr(A^{-1} mask),
    the sensitivity of ln |det A| along the mask direction."""
    return logdet_gradient_result(a, delta_mask, eth, qpe).value
