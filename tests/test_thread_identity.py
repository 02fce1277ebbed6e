"""Where byte identity holds: the same seed gives the same bytes at the same
BLAS thread count, and series that agree to a fixed tolerance across counts.

The complex eigh of an N = 512 matrix returns different bits at one and two
OpenBLAS threads, so only equal thread counts promise equal bytes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import load_perfbench

SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN = "dense-inverse-operator"


def _series(inputs: Path, out: Path, threads: int) -> bytes:
    """The series file of one `ethsim run` of the config in its own process at the given BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ethsim.cli", "run", f"{RUN}.json", "--out-dir", str(out)],
                          cwd=inputs, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return (out / f"{RUN}_series.csv").read_bytes()


@pytest.fixture(scope="module")
def series_by_threads(tmp_path_factory):
    """The benchmark's N = 512 exact-binning run at seed 3, cut to 256 steps: twice at one thread, once at two."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        workloads = load_perfbench("workloads", monkeypatch)
        monkeypatch.setattr(workloads, "DENSE_STEPS", 256)
        inputs = tmp_path_factory.mktemp("inputs")
        workloads.write_inputs(workloads.build("dense", seed=3), inputs)
    finally:
        monkeypatch.undo()
    return [_series(inputs, tmp_path_factory.mktemp(f"run{i}"), threads) for i, threads in enumerate((1, 1, 2))]


def _samples(text: bytes) -> np.ndarray:
    return np.loadtxt(text.decode().splitlines()[1:], delimiter=",")[:, 2]


def test_equal_thread_counts_give_equal_bytes(series_by_threads):
    one, again, _ = series_by_threads
    assert one.splitlines(keepends=True) == again.splitlines(keepends=True)


def test_thread_counts_agree_to_the_stated_tolerance(series_by_threads):
    one, _, two = series_by_threads
    a, b = _samples(one), _samples(two)
    assert a.size == b.size == 256
    assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()
