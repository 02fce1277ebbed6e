"""The benchmark's hooks into the package: every name it wraps or calls exists."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ethsim
from ethsim import QpeConfig, Spectrum
from ethsim.phase_estimation import _transform_register_rows, register_amplitudes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
