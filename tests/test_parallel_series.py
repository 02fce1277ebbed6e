"""The forked series writer: write_series cuts the rows into one span per CPU,
formats span 0 itself and each later span in a forked child, and writes the
same bytes as the one-span block generators. No child and no part or temp
file outlives a call, whether it succeeds or fails."""

import inspect
import os
import time

import numpy as np
import pytest

from ethsim import SimulationError, fileio
from ethsim.fileio import atomic_write_text, series_blocks, write_series

from test_streamed_series import traced_peak

SIZES = [0, 1, fileio._CSV_ROWS, fileio._SPAN_ROWS - 1, fileio._SPAN_ROWS, fileio._SPAN_ROWS + 1, 100_000]


def edge_columns(size):
    """Three seeded columns with nan, +-inf, -0.0 and subnormals spread over
    them, some on the rows where spans of two to four CPUs meet."""
    rng = np.random.default_rng(size)
    cols = [rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size) for _ in range(3)]
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-320, 1e-310])
    for k, col in enumerate(cols):
        rows = np.unique(np.concatenate([rng.integers(0, size, size=min(size, 40)), [size // 2, size // 3, size // 4, size - 1]]))
        rows = rows[(rows >= 0) & (rows < size)]
        col[rows] = special[(rows + k) % special.size]
    return cols


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the writer sees; returns the fork counter."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def set_cpus(count):
        monkeypatch.setattr(fileio, "_cpu_count", lambda: count)
        return forks

    return set_cpus


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", SIZES)
def test_same_bytes_as_the_one_span_blocks(tmp_path, cpus, fmt, size):
    cols = edge_columns(size)
    expected = "".join(series_blocks(fmt, 0.01 * np.pi, *cols))
    for count in (1, 2, 3, 4):
        forks = cpus(count)
        forks.clear()
        path = write_series(tmp_path / f"s.{fmt}", fmt, 0.01 * np.pi, *cols)
        assert path.read_text().splitlines(keepends=True) == expected.splitlines(keepends=True), count
        assert len(forks) == max(1, min(count, size // fileio._SPAN_ROWS)) - 1
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_left()


def test_the_public_blocks_are_one_span_and_never_fork(cpus):
    forks = cpus(4)
    assert "path" not in inspect.signature(series_blocks).parameters
    text = "".join(series_blocks("csv", 0.5, *edge_columns(4 * fileio._SPAN_ROWS)))
    assert text.count("\n") == 4 * fileio._SPAN_ROWS + 1
    assert forks == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_without_fork_the_rows_are_one_span(tmp_path, monkeypatch, cpus, fmt):
    cpus(4)
    monkeypatch.delattr(os, "fork")
    cols = edge_columns(4 * fileio._SPAN_ROWS)
    path = write_series(tmp_path / f"s.{fmt}", fmt, 0.5, *cols)
    assert path.read_text().splitlines(keepends=True) == "".join(series_blocks(fmt, 0.5, *cols)).splitlines(keepends=True)


def test_the_cpu_count_is_the_affinity_set_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert fileio._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert fileio._cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fileio._cpu_count() == 1


def failing_rows(monkeypatch, fails, stalls=lambda lo: False):
    """Patch the span formatter to raise on the spans where fails(lo) holds
    and to sleep for a minute on those where stalls(lo) holds."""
    rows = fileio._row_blocks

    def row_blocks(fmt, dt, cols, lo, hi):
        if fails(lo):
            raise RuntimeError(f"span at row {lo} failed")
        if stalls(lo):
            time.sleep(60)
        yield from rows(fmt, dt, cols, lo, hi)

    monkeypatch.setattr(fileio, "_row_blocks", row_blocks)


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", [2, 4])
def test_a_child_that_fails_raises_and_leaves_no_file(tmp_path, monkeypatch, capfd, cpus, count, fmt, existing):
    cpus(count)
    failing_rows(monkeypatch, lambda lo: lo >= fileio._SPAN_ROWS)
    path = tmp_path / f"s.{fmt}"
    if existing:
        atomic_write_text(path, "kept")
    # every child fails; the first later span in span order is named
    first = 100_000 // count
    with pytest.raises(SimulationError, match=rf"^series file .*s\.{fmt}: the child process formatting steps {first + 1}\.\.{2 * first} exited with status 1$"):
        write_series(path, fmt, 0.5, *edge_columns(100_000))
    assert f"RuntimeError: span at row {first} failed" in capfd.readouterr().err
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_text() == "kept"
    assert_no_child_left()


@pytest.mark.parametrize("where", ["span", "writer"])
def test_a_parent_that_fails_kills_the_children_and_leaves_no_file(tmp_path, monkeypatch, cpus, where):
    forks = cpus(4)
    if where == "span":
        # the parent's own span raises while the children stall in theirs
        failing_rows(monkeypatch, lambda lo: lo == 0, stalls=lambda lo: lo > 0)
        error = RuntimeError
    else:
        # the temp file write fails once the children are started: the writer
        # leaves the series generator suspended, and write_series closes it
        def failing_write(path, blocks):
            def written():
                yield next(blocks)
                yield next(blocks)
                raise OSError("no space left")

            return atomic_write_text(path, written())

        monkeypatch.setattr(fileio, "atomic_write_text", failing_write)
        error = OSError
    start = time.monotonic()
    # the error is held, as by a caller that reports it later: its traceback
    # keeps the frames of the call alive
    with pytest.raises(error) as held:
        write_series(tmp_path / "s.csv", "csv", 0.5, *edge_columns(100_000))
    assert time.monotonic() - start < 30
    assert len(forks) == 3
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_parent_holds_no_child_text(tmp_path, cpus, fmt):
    assert len(cpus(4)) == 0
    cols = edge_columns(100_000)
    path = tmp_path / f"s.{fmt}"
    assert traced_peak(lambda: write_series(path, fmt, 0.5, *cols)) <= 2**20
    assert len(cpus(4)) == 3
