"""Experiment execution: config in, estimator dispatch, files out."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, ProblemSpec
from .core import (
    DenseOperator,
    PauliTerm,
    StateVector,
    all_ones_delta,
    derivative_mask,
    from_pauli_terms,
    identity_operator,
    operator_from_matrix,
    projector_from_state,
    uniform_superposition,
)
from .errors import ConfigError, DomainError
from .estimators import TARGET_ROWS, _run_target
from .fileio import read_matrix_file, write_series, write_summary
from .presets import diagonal_pauli_terms, sweep_eigenvalues
from .reporting import SCHEMA_VERSION, RunReport
from .spectral import eigendecompose


@dataclass(frozen=True)
class ExecutionResult:
    """A finished run (or sweep): reports plus every file written."""

    summary: dict
    summary_path: Path
    series_paths: tuple
    reports: tuple


def build_operator(config: ExperimentConfig) -> DenseOperator:
    problem = config.problem
    if problem.kind == "pauli-terms":
        n = len(problem.terms[0][1])
        return from_pauli_terms(n, [PauliTerm(c, a) for c, a in problem.terms])
    if problem.kind == "dense-matrix-file":
        entries = read_matrix_file(Path(config.base_dir) / problem.path)
        op = operator_from_matrix(entries)
        if not op.hermitian:
            raise DomainError(f"matrix file {problem.path} is not Hermitian")
        return op
    raise ConfigError(f"problem kind {problem.kind!r} must be expanded before execution")


def resolve_state(value, n_qubits: int) -> StateVector:
    if isinstance(value, str):
        if value == "uniform":
            return uniform_superposition(n_qubits)
        raise ConfigError(f"unknown named state {value!r}")
    return StateVector(n_qubits, np.asarray(value, dtype=complex))


def build_delta(config: ExperimentConfig, n_qubits: int) -> DenseOperator:
    spec = config.delta
    if spec.kind == "identity":
        return identity_operator(n_qubits)
    if spec.kind == "all-ones":
        return all_ones_delta(n_qubits, scale=spec.scale)
    if spec.kind == "derivative-mask":
        return derivative_mask(n_qubits, spec.entries)
    return projector_from_state(resolve_state(spec.state, n_qubits))


def _echo(config: ExperimentConfig) -> dict:
    """to_dict without outputs.out_dir: a summary's bytes do not depend on its directory."""
    echo = config.to_dict()
    del echo["outputs"]["out_dir"]
    return echo


def _execute_single(config: ExperimentConfig) -> ExecutionResult:
    a = build_operator(config)
    n_qubits = a.dim.bit_length() - 1
    phi = resolve_state(config.phi, n_qubits) if config.phi is not None else None

    start = time.perf_counter()
    # the one eigendecomposition of the run, shared by estimator, diagnostics and oracle
    spec = eigendecompose(a)
    _, observable, _, oracle = TARGET_ROWS[config.target]
    # one |phi><phi| serves estimator and oracle; only the operator form reads a configured Delta
    if observable == "phi":
        delta = projector_from_state(phi)
    else:
        delta = build_delta(config, n_qubits) if config.form == "operator" else None
    result = _run_target(config.target, config.form, spec, delta, phi, config.eth, config.qpe, config.weight)
    oracle_value = oracle(a, spec, delta, result.raw)
    wall = time.perf_counter() - start

    out_dir = Path(config.outputs.out_dir)
    basename = config.outputs.basename or config.name
    series_name = f"{basename}_series.{config.outputs.format}"
    series_path = out_dir / series_name
    write_series(
        series_path,
        config.outputs.format,
        config.eth.dt,
        result.raw.series,
        result.raw.running_mean,
        result.raw.running_se,
    )

    report = RunReport(
        name=config.name,
        target=config.target,
        form=config.form,
        seed=config.seed,
        estimate=result.value,
        standard_error=result.standard_error,
        normalization=result.normalization,
        oracle_value=oracle_value,
        verdict=result.raw.thermalized,
        cost=result.raw.cost,
        wall_time_s=wall,
        register_residual=result.raw.register_residual,
        config_echo=_echo(config),
        series_file=series_name,
        expected=config.expected,
        tolerance=config.tolerance,
    )
    summary = report.to_summary_dict()
    summary_path = write_summary(out_dir / f"{basename}_summary.json", summary)
    return ExecutionResult(
        summary=summary,
        summary_path=summary_path,
        series_paths=(series_path,),
        reports=(report,),
    )


def _execute_sweep(config: ExperimentConfig) -> ExecutionResult:
    sweep = config.sweep
    reports = []
    series_paths = []
    rows = []
    for ratio in sweep.ratios:
        label = f"{config.name}-k{ratio:g}"
        values = sweep_eigenvalues(sweep.seed, sweep.n_qubits, ratio)
        sub = replace(
            config,
            name=label,
            problem=ProblemSpec(kind="pauli-terms", terms=diagonal_pauli_terms(values)),
            sweep=None,
            outputs=replace(config.outputs, basename=label),
        )
        result = _execute_single(sub)
        reports.extend(result.reports)
        series_paths.extend(result.series_paths)
        keys = ("name", "estimate", "oracle_value", "oracle_gap", "standard_error", "cost", "series_file")
        rows.append({"ratio": ratio, **{key: result.summary[key] for key in keys}})

    out_dir = Path(config.outputs.out_dir)
    basename = config.outputs.basename or config.name
    summary = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "target": config.target,
        "form": config.form,
        "seed": config.seed,
        "sweep": {"ratios": list(sweep.ratios), "seed": sweep.seed, "n_qubits": sweep.n_qubits},
        "runs": rows,
        "config": _echo(config),
    }
    summary_path = write_summary(out_dir / f"{basename}_summary.json", summary)
    return ExecutionResult(
        summary=summary,
        summary_path=summary_path,
        series_paths=tuple(series_paths),
        reports=tuple(reports),
    )


def execute_experiment(config: ExperimentConfig) -> ExecutionResult:
    """Run one experiment (or a whole sweep) and write its output files."""
    if config.sweep is not None:
        return _execute_sweep(config)
    return _execute_single(config)
