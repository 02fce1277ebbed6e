"""Run summaries and cross-run consistency checks."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import DomainError
from .estimators import CostCounters, ThermalizationVerdict

SCHEMA_VERSION = 1
CONSISTENCY_Z = 3.0


@dataclass(frozen=True)
class RunReport:
    """Everything a finished run reports; oracle_gap is always recomputed
    from estimate and oracle_value, never carried through."""

    name: str
    target: str
    form: str
    seed: int
    estimate: float
    standard_error: float
    normalization: float
    oracle_value: float
    verdict: ThermalizationVerdict
    cost: CostCounters
    wall_time_s: float
    register_residual: float
    config_echo: dict
    series_file: str
    expected: Optional[float] = None
    tolerance: Optional[float] = None

    @property
    def oracle_gap(self) -> float:
        return abs(self.estimate - self.oracle_value)

    def to_summary_dict(self) -> dict:
        """The dataclass fields, with verdict written as thermalization,
        config_echo as config and wall_time_s inside cost. Only the two nested
        dataclasses go through asdict: it would deep-copy the config echo."""
        summary = {f.name: getattr(self, f.name) for f in fields(self)}
        summary["thermalization"] = asdict(summary.pop("verdict"))
        summary["config"] = summary.pop("config_echo")
        summary["cost"] = {**asdict(self.cost), "wall_time_s": summary.pop("wall_time_s")}
        return {"schema_version": SCHEMA_VERSION, "oracle_gap": self.oracle_gap, **summary}


def compare_summaries(a: dict, b: dict) -> dict:
    """z-score of the estimate difference under combined standard errors.

    Both summaries must estimate the same target quantity. Two exact runs
    with zero spread compare as z = 0 when equal and z = inf otherwise.
    """
    for side, summary in (("a", a), ("b", b)):
        if "estimate" not in summary or "target" not in summary:
            raise DomainError(f"summary {side} has no estimate; cannot compare")
    if a["target"] != b["target"]:
        raise DomainError(f"targets differ: {a['target']!r} vs {b['target']!r}")

    est_a, est_b = float(a["estimate"]), float(b["estimate"])
    se_a, se_b = float(a.get("standard_error", 0.0)), float(b.get("standard_error", 0.0))
    combined = math.hypot(se_a, se_b)
    gap = abs(est_a - est_b)
    if combined == 0.0:
        z = 0.0 if gap <= 1e-12 * (1.0 + abs(est_a)) else math.inf
    else:
        z = gap / combined
    return {
        "target": a["target"],
        "estimate_a": est_a,
        "estimate_b": est_b,
        "standard_error_a": se_a,
        "standard_error_b": se_b,
        "difference": est_a - est_b,
        "combined_se": combined,
        "z_score": z,
        "consistent": bool(z <= CONSISTENCY_Z),
    }
