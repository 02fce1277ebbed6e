"""The measured loop of one sample process (see sample.py).

A sample makes passes over the workload's runs into one output directory,
emptied before each pass, until the next pass would end after the request's
deadline; it makes at least ``MIN_PASSES``. It checks every run after every
pass:

* correctness: the summary on disk against the one the run returned and
  against the closed-form reference of ``reference.py``, and the series
  file's last row against the summary;
* determinism: each series file must be byte-identical to the first pass's.

A run whose check raises counts as failed, like one that fails it.

An untraced sample also times fresh ``import ethsim`` processes between
runs (see ``Prober``), outside the timed part of the pass.

In a traced sample every other pass runs with the tracer installed.
"""

import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import ethsim

import reference
import workloads
from tracing import Tracer


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# the determinism gate compares a repeated pass with the first
MIN_PASSES = 2
# at most one set-up probe per this many seconds: the shared CPU runs in slow
# and fast phases of a few seconds, and probes spread over the run see them
# in the proportion the passes do
PROBE_EVERY_S = 1.0
# With numpy's default BLAS pool, the pool's start-up competes with the
# import for the second CPU: on 2 vCPUs the import took 0.14 s with that CPU
# idle and 0.23-0.39 s with it busy, so the median followed the share of
# slow starts. With one BLAS thread it took 0.14-0.23 s either way, so the
# probes pin the pool; the samples do not.
PROBE_ENV = {"OPENBLAS_NUM_THREADS": "1"}
SAMPLE = str(Path(__file__).resolve().parent / "sample.py")


class Prober:
    """Times a fresh process until ``import ethsim`` completes (sample.py in
    set-up mode), at most once per PROBE_EVERY_S seconds."""

    def __init__(self, request_path: str):
        self.request_path = request_path
        self.setups = []
        self.last = -PROBE_EVERY_S

    def __call__(self):
        if time.monotonic() - self.last < PROBE_EVERY_S:
            return
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, SAMPLE, self.request_path, repr(spawned)],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, **PROBE_ENV),
        )
        self.setups.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        self.last = time.monotonic()


def _one_pass(spec, inputs: Path, out_dir: Path, probe=None):
    """Every run of the workload, the way `ethsim preset` / `ethsim run` make
    them; module attributes are looked up per call so a tracer sees them.
    probe(), if given, is called before each run, outside the timed part.
    Returns the results, the errors by run name and the timed seconds."""
    results, errors, wall = [], {}, 0.0
    for run in spec.runs:
        if probe is not None:
            probe()
        start = time.perf_counter()
        try:
            if run.preset is not None:
                config = ethsim.presets.build_preset(run.preset)
            else:
                config = ethsim.config.load_config(inputs / run.config_file)
            config = config.with_outputs(out_dir=str(out_dir))
            results.append(ethsim.runner.execute_experiment(config))
        except Exception:
            errors[run.name] = traceback.format_exc(limit=3)
        wall += time.perf_counter() - start
    return results, errors, wall


class Gate:
    """Correctness and determinism checks, with references cached per run."""

    def __init__(self, spec, out_dir: Path):
        self.spec = spec
        self.out_dir = out_dir
        self.refs = {}
        self.digests = {}

    def _reference(self, summary: dict):
        name = summary["name"]
        if name not in self.refs:
            config = summary["config"]
            problem = self.spec.problem
            if config["problem"]["kind"] == "dense-matrix-file":
                self.refs[name] = reference.reference(
                    config, problem.matrix, (problem.eigenvalues, problem.eigenvectors)
                )
            else:
                self.refs[name] = reference.reference(config, reference.pauli_sum(config["problem"]["terms"]))
        return self.refs[name]

    def check(self, result) -> list:
        failures = []
        for report in result.reports:
            summary = reference.load_summary(self.out_dir, report.config_echo["outputs"]["basename"])
            if summary != json.loads(json.dumps(report.to_summary_dict())):
                failures.append(f"{summary['name']}: the summary on disk is not the one the run returned")
            failures += reference.check(summary, self._reference(summary), self.out_dir)
            series = self.out_dir / summary["series_file"]
            digest = _digest(series)
            first = self.digests.setdefault(summary["series_file"], digest)
            if digest != first:
                failures.append(f"{summary['name']}: {series.name} differs from the first pass")
        return failures


def _clear(out_dir: Path):
    for path in out_dir.iterdir():
        path.unlink()


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file() and not p.name.startswith("."))


def _os_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def measure(request: dict) -> dict:
    warnings.simplefilter("ignore", ethsim.PhaseCollisionWarning)
    spec = workloads.build(request["workload"], request["seed"])
    inputs, out_dir = Path(request["inputs"]), Path(request["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    gate = Gate(spec, out_dir)
    tracer = Tracer() if request["trace"] else None
    prober = None if request["trace"] else Prober(request["probe_request"])

    walls, traced_flags, output_bytes, layers, failures = [], [], [], [], []
    attempted = failed = 0
    i, last = 0, 0.0
    while i < MIN_PASSES or time.monotonic() + last <= request["deadline"]:
        began = time.monotonic()
        traced = tracer is not None and i % 2 == 1
        _clear(out_dir)
        one_pass = _one_pass
        if traced:
            tracer.reset()
            tracer.install()
            one_pass = functools.partial(tracer.root, _one_pass)
        results, errors, wall = one_pass(spec, inputs, out_dir, prober)
        walls.append(wall)
        if traced:
            tracer.uninstall()
            layers.append(tracer.pass_metrics())
            tracer.dump(Path(request["trace_file"]), i)
        traced_flags.append(traced)
        output_bytes.append(_output_bytes(out_dir))

        attempted += len(spec.runs)
        failed += len(errors)
        failures += [f"{name}: raised\n{tb}" for name, tb in errors.items()]
        for result in results:
            try:
                run_failures = gate.check(result)
            except Exception:
                run_failures = [f"{result.summary.get('name')}: check raised\n{traceback.format_exc(limit=3)}"]
            failed += bool(run_failures)
            failures += run_failures
        i += 1
        last = time.monotonic() - began

    return {
        "walls": walls,
        "traced": traced_flags,
        "output_bytes": output_bytes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "layers": layers,
        "os_threads": _os_threads(),
        "setups": prober.setups if prober else [],
    }
