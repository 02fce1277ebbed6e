"""One statistics reducer: the estimator makes the series file's
running_mean and running_se columns and the summary's standard error, and
the runner writes the columns it is given."""

import dataclasses
import json

import numpy as np
import pytest

from ethsim import runner
from ethsim.config import from_dict
from ethsim.core import derivative_mask, identity_operator, operator_from_matrix, projector_from_state, random_state
from ethsim.errors import DomainError
from ethsim.estimators import (
    EthConfig,
    InitialState,
    batch_means_standard_error,
    run_operator_form,
    running_mean,
    running_standard_error,
    thermalization_diagnostics,
)
from ethsim.phase_estimation import QpeConfig
from ethsim.runner import execute_experiment
from ethsim.spectral import eigendecompose
from ethsim.weights import WeightSpec

pytestmark = pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")

N_QUBITS = 3
MASK = [(0, 0, 1.0), (1, 5, 0.25), (5, 1, 0.25), (2, 6, -0.4), (6, 2, -0.4)]


def _written_columns(path, fmt):
    """The running_mean and running_se columns of a series file, parsed back
    to floats (the writer's repr round-trips every float)."""
    text = path.read_text()
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
    return tuple(np.array([float(row[k]) for row in rows]) for k in (3, 4))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("repetitions", [1, 3])
@pytest.mark.parametrize("sampling", ["exact", "shots"])
@pytest.mark.parametrize("form", ["operator", "vector"])
def test_the_written_columns_are_the_estimate_columns(tmp_path, monkeypatch, form, sampling, repetitions, fmt):
    results = []
    run_target = runner._run_target
    monkeypatch.setattr(runner, "_run_target", lambda *args: results.append(run_target(*args)) or results[-1])
    config = from_dict({
        "name": "columns",
        "form": form,
        "seed": 7,
        "problem": {"kind": "pauli-terms", "terms": [[0.625, "II"], [0.25, "ZI"], [0.125, "IZ"], [0.2, "XX"]]},
        "delta": {"kind": "derivative-mask", "entries": [[0, 1, 0.5, 0.0], [1, 0, 0.5, 0.0], [2, 2, 1.0, 0.0]]},
        "phi": [[0.5, 0.0], [0.3, 0.4], [0.5, 0.0], [0.5, 0.0]],
        "qpe": {"m": 4, "shift": 0.0, "scale": 0.8},
        "eth": {"dt": 0.7, "num_steps": 150, "sampling": sampling, "shots": 16, "repetitions": repetitions,
                "initial_state": {"kind": "haar", "seed": 3}},
        "outputs": {"out_dir": str(tmp_path), "format": fmt},
    })
    result = execute_experiment(config)
    (raw,) = (r.raw for r in results)
    assert raw.series.size == repetitions * 150
    rm, rse = _written_columns(result.series_paths[0], fmt)
    assert rm.tobytes() == raw.running_mean.tobytes()
    assert rse.tobytes() == raw.running_se.tobytes()
    # the columns are today's kernels on the series, and the summary's SE is batch means
    assert raw.running_mean.tobytes() == running_mean(raw.series).tobytes()
    assert raw.running_se.tobytes() == running_standard_error(raw.series).tobytes()
    assert raw.standard_error == batch_means_standard_error(raw.series)
    assert result.summary["standard_error"] == raw.standard_error


def _raw(num_steps=40):
    a = operator_from_matrix(np.diag([1.0, 1.3, 1.55, 1.9]))
    eth = EthConfig(dt=0.3, num_steps=num_steps, initial_state=InitialState(kind="haar", seed=2))
    return run_operator_form(a, identity_operator(2), WeightSpec(), eth, QpeConfig(m=3, scale=0.5))


@pytest.mark.parametrize("name", ["running_mean", "running_se"])
def test_a_column_of_the_wrong_length_is_refused(name):
    raw = _raw()
    column = getattr(raw, name)
    for wrong in (column[:-1], np.append(column, column[-1])):
        with pytest.raises(DomainError, match=f"{name} length must match the series"):
            dataclasses.replace(raw, **{name: wrong})


def test_the_columns_are_read_only():
    raw = _raw()
    for column in (raw.series, raw.running_mean, raw.running_se):
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        raw.running_se[0] = 1.0


def _dense_problem(seed=11):
    """A seeded dense Hermitian A on N_QUBITS qubits, eigenvalues in (1, 2)."""
    rng = np.random.default_rng(seed)
    dim = 2**N_QUBITS
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = (q * rng.uniform(1.0, 2.0, size=dim)) @ q.conj().T
    return operator_from_matrix(0.5 * (a + a.conj().T))


DELTAS = {
    "projector": lambda: projector_from_state(random_state(N_QUBITS, 5)),
    "mask": lambda: derivative_mask(N_QUBITS, MASK),
    "identity": lambda: identity_operator(N_QUBITS),
}


@pytest.mark.parametrize("sampling", ["exact", "shots"])
@pytest.mark.parametrize("delta", sorted(DELTAS))
@pytest.mark.parametrize("mode", ["exact-binning", "circuit"])
def test_diagnostics_of_the_series_are_the_run_verdict(mode, delta, sampling):
    """For a unit-weight operator-form run, the public diagnostics on the
    run's own series give its verdict field for field: both go through the
    one reducer."""
    spec = eigendecompose(_dense_problem())
    observable = DELTAS[delta]()
    eth = EthConfig(dt=0.37, num_steps=300, sampling=sampling, shots=32, seed=4,
                    initial_state=InitialState(kind="haar", seed=9))
    raw = run_operator_form(spec, observable, WeightSpec(), eth, QpeConfig(m=3, shift=1.0, scale=1.0, mode=mode))
    verdict = thermalization_diagnostics(raw.series, spec, observable, random_state(N_QUBITS, 9))
    assert dataclasses.asdict(verdict) == dataclasses.asdict(raw.thermalized)
