"""In-memory spans and counts around ethsim's public functions.

A span is (name, start, end, parent). The tracer wraps every listed function
where it is defined *and* wherever another ethsim module bound it with
``from .x import f``, since that copies the binding. A span's self time is its
duration minus the time its wrapped child spans cover, so per pass the self
times of all span names add up to the duration of the root span. Functions
not listed (weights, reporting, presets, cli and module-private helpers)
fold into their caller's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _count_time_steps(counts, args, result):
    counts["estimators.time_steps"] += result.cost.time_steps
    counts["estimators.shots"] += result.cost.shots


def _count_joint_bytes(counts, args, result):
    # computed, not measured: one complex (N * 2**m)^2 joint matrix per call
    delta, spec, qpe = args[:3]
    counts["phase_estimation.joint_bytes"] += 16 * (spec.dim * qpe.register_size) ** 2


def _count_read_bytes(counts, args, result):
    counts["fileio.read_bytes"] += os.stat(args[0]).st_size


def _count_write_bytes(counts, args, result):
    counts["fileio.write_bytes"] += os.stat(result).st_size


def _counter(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


PACKAGE = "ethsim"

# span name -> (module, attribute, optional count hook) wrapped under it
TARGETS = {
    "config.load": [("config", "load_config", None)],
    "core.build": [
        ("core", "operator_from_matrix", None),
        ("core", "from_pauli_terms", None),
        ("core", "projector_from_state", None),
        ("core", "derivative_mask", None),
        ("core", "all_ones_delta", None),
        ("core", "identity_operator", None),
        ("core", "uniform_superposition", None),
        ("core", "random_state", None),
        ("core", "DenseOperator.__post_init__", None),
        ("core", "StateVector.__post_init__", None),
    ],
    "fileio.read": [("fileio", "read_matrix_file", _count_read_bytes)],
    "fileio.write": [
        ("fileio", "write_series", None),
        ("fileio", "write_summary", None),
        ("fileio", "atomic_write_text", _count_write_bytes),
    ],
    "spectral.eigh": [("spectral", "eigendecompose", _counter("spectral.eigh_calls"))],
    "spectral.ensemble": [("spectral", "diagonal_ensemble", None)],
    "spectral.oracle": [
        ("spectral", "logdet_gradient_oracle", None),
        ("spectral", "matrix_function", None),
        ("spectral", "trace_weighted", None),
    ],
    "estimators.self": [
        ("estimators", "run_operator_form", _count_time_steps),
        ("estimators", "run_vector_form", _count_time_steps),
        ("estimators", "inverse_expectation_result", None),
        ("estimators", "logdet_gradient_result", None),
        ("estimators", "running_standard_error", None),
    ],
    "phase_estimation.register": [
        ("phase_estimation", "register_indices", None),
        ("phase_estimation", "reweighted_delta", None),
    ],
    "phase_estimation.joint": [
        ("phase_estimation", "joint_observable_matrix", _count_joint_bytes),
        ("phase_estimation", "qpe_sandwich_matrix", None),
        ("phase_estimation", "entangle_matrix", None),
        ("phase_estimation", "upsilon_table", None),
    ],
    "phase_estimation.pipeline": [
        (
            "phase_estimation",
            name,
            _counter("phase_estimation.pipeline_calls"),
        )
        for name in ("qpe_entangle", "apply_upsilon", "qpe_disentangle", "register_residual", "system_slice")
    ],
    "rng.substream": [
        ("rng", "substream", _counter("rng.substream_calls")),
        ("rng", "derive_seed", _counter("rng.substream_calls")),
    ],
    "runner.self": [("runner", "execute_experiment", None)],
}

ROOT = "bench.self"

COUNTS = (
    "fileio.read_bytes",
    "fileio.write_bytes",
    "spectral.eigh_calls",
    "estimators.time_steps",
    "estimators.shots",
    "phase_estimation.joint_bytes",
    "phase_estimation.pipeline_calls",
    "rng.substream_calls",
)

# per-pass metric names in report order, with units
METRICS = {
    "config.load_s": "s",
    "core.build_s": "s",
    "fileio.read_s": "s",
    "fileio.read_bytes": "bytes",
    "fileio.write_s": "s",
    "fileio.write_bytes": "bytes",
    "spectral.eigh_calls": "count",
    "spectral.eigh_s": "s",
    "spectral.ensemble_s": "s",
    "spectral.oracle_s": "s",
    "estimators.self_s": "s",
    "estimators.time_steps": "count",
    "estimators.shots": "count",
    "phase_estimation.register_s": "s",
    "phase_estimation.joint_s": "s",
    "phase_estimation.joint_bytes": "bytes",
    "phase_estimation.pipeline_calls": "count",
    "phase_estimation.pipeline_s": "s",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "runner.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counts while installed; install() patches the
    ethsim bindings, uninstall() restores the originals."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for span_name, targets in TARGETS.items():
            for module_name, attr, hook in targets:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._patches.append((owner, method, original, self._wrap(span_name, original, hook)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, hook)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original, wrapper))

    def _wrap(self, span_name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (span_name, start, time.perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def root(self, fn, *args, **kwargs):
        """Run fn under the root span of one pass."""
        return self._wrap(ROOT, fn, None)(*args, **kwargs)

    def pass_metrics(self) -> dict:
        """Self time per span name and the counts, for the spans recorded
        since the last reset (one pass)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for (name, start, end, parent), covered in zip(self.spans, child):
            self_time[name] += (end - start) - covered
        out = {}
        for span_name in list(TARGETS) + [ROOT]:
            out[span_name + "_s"] = self_time.get(span_name, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        out["trace.wall_s"] = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return out

    def dump(self, path: Path, pass_index: int):
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as handle:
            handle.write(json.dumps({"pass": pass_index, "spans": self.spans, "counts": self.counts}) + "\n")

