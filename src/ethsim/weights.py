"""Spectral weight functions and their singularity policy.

A weight turns an energy into a multiplier: 1/E and 1/sqrt(E) drive inverse
and log-det estimators, E itself recovers traces of the input operator, and
log E supports log-determinants. Weights blow up near E = 0, so every
evaluation goes through an explicit policy instead of silently emitting inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, SingularityError

WEIGHT_KINDS = ("unit", "inverse", "inverse_sqrt", "identity_of_e", "log_of_e")

# fraction of the spectral range treated as "numerically zero" under reject
SINGULARITY_WINDOW_FRACTION = 1e-8


def singularity_window(spectral_range: float, eta: Optional[float] = None) -> float:
    if eta is not None:
        return float(eta)
    return SINGULARITY_WINDOW_FRACTION * float(spectral_range)


@dataclass(frozen=True)
class WeightSpec:
    """Weight function f(E) plus the policy applied near its singularities.

    policy "reject" raises SingularityError naming the offending eigenvalue
    whenever |E| falls inside the guard window. policy "regularize" replaces
    1/E by E/(E^2 + eta^2) and floors |E| at eta inside logs; eta defaults
    to the reject window when not given.
    """

    kind: str = "unit"
    policy: str = "reject"
    eta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ConfigError(f"field 'weight.kind': unknown kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        if self.policy not in ("reject", "regularize"):
            raise ConfigError(f"unknown singularity policy {self.policy!r}")
        if self.eta is not None and not (np.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be a positive finite number, got {self.eta!r}")

    def evaluate(self, energies, spectral_range: float) -> np.ndarray:
        """Real weights f(E) for an energy array under this spec's policy.

        1/sqrt(E) at E < 0 raises SingularityError under either policy: no
        weight is complex.
        """
        e = np.asarray(energies, dtype=float)
        window = singularity_window(spectral_range, self.eta)

        if self.kind == "unit":
            return np.ones_like(e)
        if self.kind == "identity_of_e":
            return e.copy()

        # checked first, so the reject message below never points to a policy that raises too
        if self.kind == "inverse_sqrt" and np.any(e < 0):
            raise SingularityError(
                f"inverse_sqrt weight is complex at negative eigenvalue E = {e[e < 0][0]}; weights are real under either policy"
            )
        if self.policy == "reject":
            near_zero = np.abs(e) <= window
            if np.any(near_zero):
                bad = e[near_zero][0]
                raise SingularityError(
                    f"weight {self.kind!r} undefined at eigenvalue E = {bad} "
                    f"(|E| <= window {window:.3e}); a time-average run proceeds under weight.policy = regularize"
                )
            if self.kind == "inverse":
                return 1.0 / e
            if self.kind == "inverse_sqrt":
                return 1.0 / np.sqrt(e)
            # log_of_e: log |E|, the determinant's sign is not tracked here
            return np.log(np.abs(e))

        eta = window if window > 0 else np.finfo(float).tiny
        if self.kind == "log_of_e":
            return np.log(np.maximum(np.abs(e), eta))
        inverse = e / (e**2 + eta**2)
        return inverse if self.kind == "inverse" else np.sqrt(inverse)


# the fixed 1/E weight of the inverse-expectation and log-det targets and their oracles
INVERSE = WeightSpec(kind="inverse")
