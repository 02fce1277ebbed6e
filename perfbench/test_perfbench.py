"""Fast self-tests of the benchmark (n = 2-3 inputs, a few seconds).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ethsim  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# (name, target, form, register mode, sampling, mask)
SMALL_RUNS = [
    ("op-bin", "inverse-expectation", "operator", "exact-binning", "exact", False),
    ("logdet-bin", "logdet-gradient", "operator", "exact-binning", "exact", True),
    ("vec-bin", "inverse-expectation", "vector", "exact-binning", "exact", False),
    ("op-circuit", "inverse-expectation", "operator", "circuit", "exact", False),
    ("vec-circuit", "inverse-expectation", "vector", "circuit", "exact", False),
    ("op-circuit-shots", "inverse-expectation", "operator", "circuit", "shots", False),
    ("vec-bin-swap", "inverse-expectation", "vector", "exact-binning", "shots", False),
]


def small_spec(n_qubits: int, m: int = 3, steps: int = 256) -> workloads.Spec:
    rng = np.random.default_rng(7 + n_qubits)
    evals = workloads.dense_eigenvalues(rng, n_qubits, m)
    problem = workloads._problem(rng, evals, mask_entries=3)
    configs = {}
    for name, target, form, mode, sampling, mask in SMALL_RUNS:
        shots = 16 if sampling == "shots" else 0
        configs[name] = workloads._config(name, target, form, problem, mode, m, steps, 0.5, 5,
                                          sampling=sampling, shots=shots, mask=mask)
    runs = tuple(workloads.Run(name=n, config_file=f"{n}.json") for n in configs)
    return workloads.Spec(runs, problem=problem, configs=configs)


def run_small(spec, tmp_path):
    workloads.write_inputs(spec, tmp_path / "in")
    out = tmp_path / "out"
    summaries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ethsim.PhaseCollisionWarning)
        for r in spec.runs:
            config = ethsim.load_config(tmp_path / "in" / r.config_file).with_outputs(out_dir=str(out))
            ethsim.execute_experiment(config)
            summaries[r.name] = reference.load_summary(out, r.name)
    return summaries, out


def ref_for(spec, summary):
    p = spec.problem
    return reference.reference(summary["config"], p.matrix, (p.eigenvalues, p.eigenvectors))


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_closed_form_references_match_the_program(n_qubits, tmp_path):
    spec = small_spec(n_qubits)
    summaries, out = run_small(spec, tmp_path)
    for name, summary in summaries.items():
        ref = ref_for(spec, summary)
        assert reference.check(summary, ref, out) == [], name
        if summary["config"]["eth"]["sampling"] == "exact":
            assert abs(summary["estimate"] - ref.value) <= 1e-12 * (1 + abs(ref.value)), name


def test_the_reference_matches_every_preset(tmp_path):
    for name in workloads.PRESETS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ethsim.PhaseCollisionWarning)
            result = ethsim.execute_experiment(ethsim.build_preset(name).with_outputs(out_dir=str(tmp_path)))
        for report in result.reports:
            summary = reference.load_summary(tmp_path, report.config_echo["outputs"]["basename"])
            matrix = reference.pauli_sum(summary["config"]["problem"]["terms"])
            assert reference.check(summary, reference.reference(summary["config"], matrix), tmp_path) == []


def test_perturbed_outputs_fail_the_gate(tmp_path):
    spec = small_spec(2)
    summaries, out = run_small(spec, tmp_path)
    exact, shots = summaries["op-circuit"], summaries["vec-bin-swap"]
    ref = ref_for(spec, exact)
    assert reference.check(dict(exact, estimate=exact["estimate"] * (1 + 1e-6)), ref, out)
    assert reference.check(dict(exact, oracle_value=exact["oracle_value"] * (1 + 1e-6)), ref, out)
    shot_ref = ref_for(spec, shots)
    assert reference.check(dict(shots, estimate=shots["estimate"] + 2.0 * shot_ref.tol), shot_ref, out)
    # the series file must end at the summary's estimate
    series = out / exact["series_file"]
    series.write_text(series.read_text() + "999,0.0,0.0,0.5,0.0\n")
    assert reference.check(exact, ref, out)


def test_the_gate_checks_the_summary_the_run_returned(tmp_path):
    spec = small_spec(2)
    workloads.write_inputs(spec, tmp_path / "in")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ethsim.PhaseCollisionWarning)
        results, errors, _ = measure._one_pass(spec, tmp_path / "in", out)
    assert errors == {}
    gate = measure.Gate(spec, out)
    assert [gate.check(result) for result in results] == [[]] * len(results)
    # a stale summary that still meets the reference must fail too
    path = out / "op-bin_summary.json"
    summary = json.loads(path.read_text())
    summary["cost"]["wall_time_s"] += 1.0
    path.write_text(json.dumps(summary))
    assert gate.check(results[0])


def test_the_dirichlet_kernel_matches_the_direct_sum():
    x = np.array([0.0, 1e-9, 3e-4, 0.37, 2 * np.pi / 0.5, 2 * np.pi / 0.5 + 1e-7, -5.1])
    steps, dt = 300, 0.5
    direct = np.exp(1j * np.outer(x, dt * np.arange(1, steps + 1))).mean(axis=1)
    assert np.allclose(reference.dirichlet(x, dt, steps), direct, rtol=0, atol=1e-12)


def test_the_clamped_swap_test_expectation_is_exact():
    n, p = 5, np.array([0.5, 0.6, 0.93, 1.0])
    pmf = reference._binomial_pmf(n, p)
    assert np.allclose(pmf.sum(axis=1), 1.0)
    rng = np.random.default_rng(3)
    draws = rng.binomial(n, p[1], size=200_000)
    clipped = np.clip(2.0 * np.arange(n + 1) / n - 1.0, 0.0, 1.0)
    assert abs(pmf[1] @ clipped - np.clip(2.0 * draws / n - 1.0, 0, 1).mean()) < 5e-3


def test_circuit_amplitudes_match_the_program_transform():
    qpe = {"m": 3, "shift": 1.0, "scale": 1.0, "mode": "circuit"}
    evals = np.array([1.1, 1.37, 1.9])
    spec = ethsim.Spectrum(evals, np.eye(3), ((0,), (1,), (2,)))
    rows = np.zeros((3, 8), dtype=complex)
    rows[:, 0] = 1.0
    program = ethsim.phase_estimation._transform_register_rows(rows, spec, ethsim.QpeConfig(**qpe), inverse=False)
    assert np.allclose(reference.qpe_amplitudes(evals, qpe), program, atol=1e-14)


def test_traced_self_times_add_up_and_cover_rebound_names(tmp_path):
    spec = small_spec(2, steps=64)
    workloads.write_inputs(spec, tmp_path / "in")
    original = ethsim.runner.read_matrix_file
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ethsim.runner.read_matrix_file is not original
        assert ethsim.fileio.read_matrix_file is ethsim.runner.read_matrix_file

        def one_pass():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ethsim.PhaseCollisionWarning)
                for r in spec.runs:
                    config = ethsim.config.load_config(tmp_path / "in" / r.config_file)
                    ethsim.runner.execute_experiment(config.with_outputs(out_dir=str(tmp_path / "out")))

        tracer.root(one_pass)
    finally:
        tracer.uninstall()
    assert ethsim.runner.read_matrix_file is original
    metrics = tracer.pass_metrics()
    self_times = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.wall_s")
    assert self_times == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["spectral.eigh_calls"] >= len(spec.runs)
    assert metrics["estimators.time_steps"] == 64 * len(spec.runs)
    assert metrics["estimators.shots"] == 2 * 16 * 64
    assert metrics["phase_estimation.pipeline_calls"] > 0
    assert metrics["phase_estimation.joint_bytes"] == 3 * 16 * (4 * 8) ** 2
    assert metrics["fileio.read_bytes"] == len(spec.runs) * (tmp_path / "in" / workloads.MATRIX_FILE).stat().st_size
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.METRICS)


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for section in ("end_to_end", "per_layer", "workloads"):
        for entry in bench[section]:
            assert NAME.match(entry["name"]), entry["name"]
    units = {**run.END_TO_END, **tracing.METRICS}
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert entry["unit"] == units[entry["name"]]
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"])
