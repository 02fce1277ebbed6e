"""Built-in experiment recipes.

Each preset is config data in the JSON-config layout, parsed by
`config.from_dict` like any config file: the acceptance suite runs these
exact configurations, a preset reference in a config file is this data, and
`preset <name> --emit-config` writes it out for editing. Tolerances attached
here are the documented oracle-gap bounds for exact-expectation runs; the
condition sweep carries none because its whole point is the error it
accumulates.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .core import PauliTerm
from .errors import ConfigError
from .rng import substream

# shared 2-qubit operator with spectrum (1, 0.75, 0.5, 0.25): positive,
# nondegenerate, every eigenvalue landing exactly on a register bin
_DYADIC_2Q_TERMS = ((0.625, "II"), (0.25, "ZI"), (0.125, "IZ"))
_DYADIC_2Q_QPE = dict(m=3, shift=0.0, scale=0.5)
# eigenvalue gaps are multiples of 0.25, so 256 steps of pi/32 close every
# oscillation period exactly
_DYADIC_2Q_DT = math.pi / 32


def _single_qubit_observable_config(name, axes, initial, expected, seed, tolerance=5e-7) -> dict:
    # unit weight ignores the register contents, so both levels share one
    # bin on purpose: the sandwich then reduces to the bare observable and
    # the per-step series keeps its oscillation instead of being dephased
    return {
        "name": name,
        "target": "time-average",
        "seed": seed,
        "problem": {"kind": "pauli-terms", "terms": ((1.0, axes),)},
        "delta": {"kind": "all-ones", "scale": math.sqrt(2.0)},
        "weight": {"kind": "unit"},
        "qpe": {"m": 1, "shift": -1.0, "scale": 0.05},
        "eth": {"dt": 0.01 * math.pi, "num_steps": 100_000, "initial_state": initial},
        "expected": expected,
        "tolerance": tolerance,
        "outputs": {"basename": name},
    }


def paper_example() -> dict:
    """Single qubit, all-ones observable: the average settles at 1/sqrt(2)."""
    return _single_qubit_observable_config("paper-example", "Z", {"kind": "uniform"}, 1.0 / math.sqrt(2.0), seed=11)


def integrable_counterexample() -> dict:
    """Same observable but a generator it commutes with, plus a biased start:
    the plateau tracks the diagonal ensemble, not the trace average."""
    amps = (math.sqrt(0.8), math.sqrt(0.2))
    return _single_qubit_observable_config(
        "integrable-counterexample", "X", {"kind": "explicit", "amplitudes": amps}, 0.9 * math.sqrt(2.0), seed=12, tolerance=1e-9
    )


def trace_counterexample() -> dict:
    """Identity observable reweighted by energy: the sampled quantity is the
    conserved energy itself, so a biased start never reaches Tr(A)/N."""
    single_a = (math.sqrt(0.7), math.sqrt(0.3))
    single_b = (math.sqrt(0.6), math.sqrt(0.4))
    amps = tuple(x * y for x in single_a for y in single_b)
    return {
        "name": "trace-counterexample",
        "target": "time-average",
        "seed": 13,
        "problem": {"kind": "pauli-terms", "terms": ((1.0, "ZI"), (0.5, "IX"))},
        "delta": {"kind": "identity"},
        "weight": {"kind": "identity_of_e"},
        "qpe": {"m": 3, "shift": -2.0, "scale": 0.25},
        "eth": {"dt": 0.01 * math.pi, "num_steps": 20_000, "initial_state": {"kind": "explicit", "amplitudes": amps}},
        "expected": 0.4 + math.sqrt(0.24),
        "tolerance": 1e-9,
        "outputs": {"basename": "trace-counterexample"},
    }


def inverse_2q() -> dict:
    """Inverse expectation on the dyadic 2-qubit operator; exact on this grid."""
    return {
        "name": "inverse-2q",
        "target": "inverse-expectation",
        "seed": 23,
        "problem": {"kind": "pauli-terms", "terms": _DYADIC_2Q_TERMS},
        "qpe": dict(_DYADIC_2Q_QPE),
        "eth": {"dt": _DYADIC_2Q_DT, "num_steps": 2560},
        "phi": "uniform",
        "expected": 25.0 / 12.0,
        "tolerance": 1e-4,
        "outputs": {"basename": "inverse-2q"},
    }


def logdet_2q() -> dict:
    """Log-det gradient along a sparse Hermitian mask; Tr(A^{-1} mask) = 5."""
    return {
        "name": "logdet-2q",
        "target": "logdet-gradient",
        "seed": 29,
        "problem": {"kind": "pauli-terms", "terms": _DYADIC_2Q_TERMS},
        "delta": {"kind": "derivative-mask", "entries": ((0, 0, 1.0), (3, 3, 1.0), (1, 2, 0.5), (2, 1, 0.5))},
        "qpe": dict(_DYADIC_2Q_QPE),
        "eth": {"dt": _DYADIC_2Q_DT, "num_steps": 2560},
        "expected": 5.0,
        "tolerance": 1e-3,
        "outputs": {"basename": "logdet-2q"},
    }


def condition_sweep() -> dict:
    """Four inverse-expectation runs at spectral ratios 2, 10, 100, 1000 with
    a constant sample budget; the register decodes small eigenvalues badly,
    so the oracle gap grows with the ratio while cost stays flat."""
    # draw seed picked so every eigenvalue lands in its own register bin at
    # the two small ratios; the gap column then grows monotonically
    sweep = {"ratios": (2.0, 10.0, 100.0, 1000.0), "seed": 1, "n_qubits": 3}
    terms = diagonal_pauli_terms(sweep_eigenvalues(sweep["seed"], sweep["n_qubits"], sweep["ratios"][0]))
    return {
        "name": "condition-sweep",
        "target": "inverse-expectation",
        "seed": 37,
        "problem": {"kind": "pauli-terms", "terms": terms},
        "qpe": {"m": 7, "shift": -0.25, "scale": 0.4},
        "eth": {"dt": 0.37, "num_steps": 4096},
        "phi": "uniform",
        "outputs": {"basename": "condition-sweep"},
        "sweep": sweep,
    }


def sweep_eigenvalues(seed: int, n_qubits: int, ratio: float) -> np.ndarray:
    """Seeded spectrum affinely mapped onto [1/ratio, 1]; the draw is shared
    across ratios so only the spread changes between sweep runs."""
    dim = 1 << n_qubits
    u = substream(seed, "condition-sweep").random(dim)
    lo = 1.0 / ratio
    span = u.max() - u.min()
    return lo + (u - u.min()) * (1.0 - lo) / span


def diagonal_pauli_terms(values: np.ndarray) -> tuple:
    """Expand a diagonal operator over Z-strings (Walsh coefficients)."""
    values = np.asarray(values, dtype=float)
    dim = values.size
    n = int(np.log2(dim))
    if 1 << n != dim:
        raise ConfigError(f"diagonal length {dim} is not a power of two")
    terms = []
    for s in range(dim):
        axes = "".join("Z" if (s >> (n - 1 - q)) & 1 else "I" for q in range(n))
        # Walsh signs: the Z-string's phase, copied contiguous (a strided dot sums in another order)
        signs = PauliTerm(1.0, axes).action()[1].real.copy()
        coef = float(values @ signs) / dim
        if abs(coef) < 1e-15:
            continue
        terms.append((coef, axes))
    return tuple(terms)


_BUILDERS = {
    "paper-example": paper_example,
    "integrable-counterexample": integrable_counterexample,
    "trace-counterexample": trace_counterexample,
    "inverse-2q": inverse_2q,
    "logdet-2q": logdet_2q,
    "condition-sweep": condition_sweep,
}
PRESET_NAMES = tuple(_BUILDERS)


def preset_data(name: str) -> dict:
    """The named preset as config data, in the JSON-config layout."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return _BUILDERS[name]()


def build_preset(name: str) -> config.ExperimentConfig:
    return config.from_dict(preset_data(name))
