"""The benchmark's hooks into the package: every name it wraps or calls exists."""

import importlib
import importlib.util
import inspect
import re
from fractions import Fraction
import sys
from pathlib import Path

import numpy as np
import pytest

import ethsim
from ethsim import QpeConfig, Spectrum
from ethsim.config import load_config
from ethsim.phase_estimation import _transform_register_rows, register_amplitudes
from ethsim.runner import execute_experiment

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


# every run of the dense and circuit workloads, by name, shrunk to 256 steps at two sizes
GATED_RUNS = [
    ("dense", n_qubits, name)
    for n_qubits in (3, 4)
    for name in ("dense-inverse-operator", "dense-logdet-operator", "dense-inverse-vector")
] + [
    ("circuit", n_qubits, name)
    for n_qubits in (2, 3)
    for name in ("circuit-operator-exact", "circuit-operator-shots", "circuit-vector-exact", "circuit-vector-swap-shots")
]


@pytest.mark.filterwarnings("ignore::ethsim.PhaseCollisionWarning")
@pytest.mark.parametrize("workload,n_qubits,name", GATED_RUNS)
def test_generated_runs_pass_the_benchmark_correctness_gate(monkeypatch, tmp_path, workload, n_qubits, name):
    """Each run of a shrunken dense or circuit workload, checked against the closed-form references."""
    workloads, reference = _load("workloads", monkeypatch), _load("reference", monkeypatch)
    monkeypatch.setattr(workloads, f"{workload.upper()}_QUBITS", n_qubits)
    monkeypatch.setattr(workloads, f"{workload.upper()}_STEPS", 256)
    spec = workloads.build(workload, seed=1)
    assert name in {run.name for run in spec.runs}
    workloads.write_inputs(spec, tmp_path)
    problem = spec.problem
    config = load_config(tmp_path / f"{name}.json").with_outputs(out_dir=str(tmp_path))
    execute_experiment(config)
    summary = reference.load_summary(tmp_path, name)
    ref = reference.reference(summary["config"], problem.matrix, (problem.eigenvalues, problem.eigenvectors))
    assert reference.check(summary, ref, tmp_path) == []


def test_every_public_name_resolves():
    missing = [name for name in ethsim.__all__ if not hasattr(ethsim, name)]
    assert missing == []


def test_readme_library_use_names_are_exported():
    """Every name the README's "Library use" section imports or lists under a
    module is exported from ethsim, as that module's own object."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    imported = re.search(r"from ethsim import \(([^)]*)\)", section).group(1)
    names = [(None, name) for name in re.findall(r"\w+", imported)]
    for module, listed in re.findall(r"`(ethsim\.\w+)`(?: \(([^)]*)\))?", section):
        importlib.import_module(module)
        names += [(module, name) for name in re.findall(r"`(\w+)`", listed)]
    assert len(names) > 10
    for module, name in names:
        assert name in ethsim.__all__, name
        if module is not None:
            assert getattr(ethsim, name) is getattr(sys.modules[module], name), name


def test_readme_block_budgets_equal_the_module_constants():
    """Each block budget the README states, by name and in its prose, the
    series writer's block height, least span height and repeat share, and
    the matrix-file reader's least span, parse chunk and read block are the
    module constants' values, so a changed budget cannot leave stale text."""
    readme = (ROOT / "README.md").read_text()
    constants = {
        "_CHUNK_BYTES": ethsim.estimators._CHUNK_BYTES,
        "_ROW_BYTES": ethsim.core._ROW_BYTES,
        "_SPAN_BYTES": ethsim.fileio._SPAN_BYTES,
        "_PARSE_BYTES": ethsim.fileio._PARSE_BYTES,
        "_READ_BYTES": ethsim.fileio._READ_BYTES,
    }
    units = {"KiB": 2**10, "MiB": 2**20}
    named = re.findall(r"(\d+)\s+(KiB|MiB),?\s+\(?`(_[A-Z]+_BYTES)`", readme)
    assert sorted(name for _, _, name in named) == sorted(constants)
    for value, unit, name in named:
        assert int(value) * units[unit] == constants[name], name
    prose = {
        "_CHUNK_BYTES": r"at most (\d+) MiB of evolved coefficients",
    }
    for name, pattern in prose.items():
        values = re.findall(pattern, " ".join(readme.split()))
        assert values and all(int(v) * 2**20 == constants[name] for v in values), name
    rows = re.findall(r"blocks of (\d+)\s+rows \(`_CSV_ROWS`", " ".join(readme.split()))
    assert rows and all(int(v) == ethsim.fileio._CSV_ROWS for v in rows)
    spans = re.findall(r"at least (\d+) rows \(`_SPAN_ROWS`", " ".join(readme.split()))
    assert spans and all(int(v) == ethsim.fileio._SPAN_ROWS for v in spans)
    shares = re.findall(r"one float in (\d+) \(`_REPEAT_SHARE`", " ".join(readme.split()))
    assert shares and all(int(v) == ethsim.fileio._REPEAT_SHARE for v in shares)


def test_readme_batch_count_equals_the_module_constant():
    """The batch count the README gives for the summary's batch-means
    standard error is ethsim.estimators.DEFAULT_BATCHES."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    batches = re.findall(r"into (\d+) equal batches \(`DEFAULT_BATCHES`", readme)
    assert batches and all(int(v) == ethsim.estimators.DEFAULT_BATCHES for v in batches)


def test_readme_gives_the_dense_operator_constructor():
    """The DenseOperator call the README's "Library use" section spells out
    takes exactly the constructor's parameters, with their defaults."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    documented = re.search(r"`DenseOperator\(([^)]*)\)`", section).group(1)
    parameters = inspect.signature(ethsim.DenseOperator).parameters.values()
    assert documented == ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in parameters)


def test_readme_targets_table_is_the_module_table():
    """Each row of the README's targets table gives its target's forms,
    operator-form observable, weight, normalization and the oracle that
    row's oracle function calls, as ethsim.estimators.TARGET_ROWS has them."""
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \| ([\w, ]+) \| `(\w+)`[^|]* \| ([^|]+) \| (1|N) \| `(\w+)`", readme, re.M)
    assert [row[0] for row in rows] == list(ethsim.estimators.TARGET_ROWS)
    for target, forms, observable, weight, normalization, oracle in rows:
        row_forms, row_observable, fixed, row_oracle = ethsim.estimators.TARGET_ROWS[target]
        assert tuple(forms.split(", ")) == row_forms, target
        assert observable == row_observable, target
        if fixed is None:
            assert weight.startswith("configured") and normalization == "1", target
        else:
            assert fixed == ethsim.WeightSpec(kind="inverse", policy=fixed.policy), target
            assert weight.startswith("fixed 1/E") and f"`{fixed.policy}`" in weight and normalization == "N", target
        assert oracle in row_oracle.__code__.co_names, target


def test_readme_presets_table_is_the_preset_list():
    """The README's presets table names exactly the built-in presets, in
    order, and gives each one's expected value to the digits it shows
    (`per run` where the preset has none)."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Presets", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|.*\| ([^|]+) \|$", section, re.M)
    assert [name for name, _ in rows] == list(ethsim.PRESET_NAMES)
    for name, shown in rows:
        expected, shown = ethsim.build_preset(name).expected, shown.strip()
        if shown == "per run":
            assert expected is None, name
        elif "/" in shown:
            assert expected == float(Fraction(shown)), name
        else:
            assert round(expected, len(shown.split(".")[1])) == float(shown), name
