"""The benchmark's hooks into the package: every name it wraps or calls exists."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import ethsim
from ethsim import QpeConfig, Spectrum
from ethsim.config import load_config
from ethsim.phase_estimation import _transform_register_rows, register_amplitudes
from ethsim.runner import execute_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    """perfbench/<name>.py as a module, registered for the test's duration (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_traced_name(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    # construction looks up every traced function; a missing name raises here
    tracer = tracing.Tracer()
    assert tracer._patches
    assert not hasattr(ethsim.runner.execute_experiment, "__wrapped__")


@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
def test_register_transform_keeps_the_signature_the_benchmark_calls(mode):
    qpe = QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode)
    spec = Spectrum(np.array([1.1, 1.37, 1.9]), np.eye(3), ((0,), (1,), (2,)))
    rows = np.zeros((3, 8), dtype=complex)
    rows[:, 0] = 1.0
    program = _transform_register_rows(rows, spec, qpe, inverse=False)
    np.testing.assert_array_equal(program, register_amplitudes(spec, qpe))


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("n_qubits", [2, 3])
def test_shot_runs_pass_the_benchmark_correctness_gate(monkeypatch, tmp_path, n_qubits):
    """The circuit workload's two shot runs, shrunk, checked against the closed-form references."""
    workloads, reference = _load("workloads", monkeypatch), _load("reference", monkeypatch)
    monkeypatch.setattr(workloads, "CIRCUIT_QUBITS", n_qubits)
    monkeypatch.setattr(workloads, "CIRCUIT_STEPS", 256)
    spec = workloads.build("circuit", seed=1)
    workloads.write_inputs(spec, tmp_path)
    problem = spec.problem
    for name in ("circuit-operator-shots", "circuit-vector-swap-shots"):
        config = load_config(tmp_path / f"{name}.json").with_outputs(out_dir=str(tmp_path))
        execute_experiment(config)
        summary = reference.load_summary(tmp_path, name)
        ref = reference.reference(summary["config"], problem.matrix, (problem.eigenvalues, problem.eigenvectors))
        assert reference.check(summary, ref, tmp_path) == []
