"""The forked matrix-file reader: read_matrix_file cuts the body into one
span of whole lines per CPU, parses span 0 itself and each later span in a
forked child that hands its rows back through a shared anonymous map. Any
span count gives the same array, or the same error text, as one span. No
child and no open map outlives a call, whether it succeeds or fails."""

import mmap
import os
import threading
import time
import types

import numpy as np
import pytest

from ethsim import ConfigError, SimulationError, fileio
from ethsim.fileio import read_matrix_file, write_matrix_file

import test_config
from test_parallel_series import assert_no_child_left


@pytest.fixture
def spans(monkeypatch):
    """Let every body of at least one byte per span be cut into count spans,
    parsed parse_bytes of text at a time; returns the fork counter and the
    maps the reader opened."""
    forks, maps = [], []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def recording_map(*args):
        maps.append(mmap.mmap(*args))
        return maps[-1]

    monkeypatch.setattr(fileio, "mmap", types.SimpleNamespace(mmap=recording_map))
    monkeypatch.setattr(fileio, "_SPAN_BYTES", 1)

    def set_spans(count, parse_bytes=fileio._PARSE_BYTES):
        monkeypatch.setattr(fileio, "_cpu_count", lambda: count)
        monkeypatch.setattr(fileio, "_PARSE_BYTES", parse_bytes)
        forks.clear()
        return forks, maps

    return set_spans


def matrix_text(dim, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(dim, 2 * dim)) * 10.0 ** rng.integers(-300, 300, size=(dim, 2 * dim))
    return [" ".join(repr(float(x)) for x in row) for row in rows]


def error_text(path):
    with pytest.raises(ConfigError) as raised:
        read_matrix_file(path)
    return str(raised.value)


def test_the_extreme_exponent_file_is_bit_identical_for_any_span_count(tmp_path, spans):
    rng = np.random.default_rng(11)
    shape = (512, 512)
    scale = 10.0 ** rng.integers(-300, 300, size=(2,) + shape)
    path = tmp_path / "big.mat"
    write_matrix_file(path, rng.normal(size=shape) * scale[0] + 1j * rng.normal(size=shape) * scale[1])
    ref = test_config.TestMatrixFile.token_reference(path)
    for count, parse_bytes in [(1, 2**18), (2, 2**18), (3, 12345), (4, 2**20)]:
        forks, maps = spans(count, parse_bytes)
        back = read_matrix_file(path)
        np.testing.assert_array_equal(back.view(np.uint64), ref.view(np.uint64))
        assert not back.flags.writeable
        assert len(forks) == count - 1
        assert all(shared.closed for shared in maps)
        assert_no_child_left()


def test_a_small_body_stays_one_span(tmp_path, spans, monkeypatch):
    forks, maps = spans(4)
    monkeypatch.setattr(fileio, "_SPAN_BYTES", 2**20)
    path = tmp_path / "op.mat"
    path.write_text("4\n" + "\n".join(matrix_text(4)) + "\n")
    read_matrix_file(path)
    assert forks == []


@pytest.mark.parametrize(
    "layout",
    [
        "blank lines around every row",
        "long blank runs where the cuts fall",
        "trailing blank lines",
        "crlf line ends",
        "no final newline",
        "fewer lines than spans",
    ],
)
def test_blank_lines_and_line_ends_parse_for_any_span_count(tmp_path, spans, layout):
    dim = 2 if layout == "fewer lines than spans" else 16
    rows = matrix_text(dim, seed=3)
    if layout == "blank lines around every row":
        body = "\n\n".join([""] + rows + [""])
    elif layout == "long blank runs where the cuts fall":
        body = "".join(row + "\n" * 3000 for row in rows)
    elif layout == "trailing blank lines":
        body = "\n".join(rows) + "\n\n  \n\t\n\n"
    elif layout == "crlf line ends":
        body = "".join(row + "\r\n" for row in rows)
    else:
        body = "\n".join(rows)
    path = tmp_path / "op.mat"
    path.write_bytes(f"{dim}\n{body}".encode())
    expected = np.array([[float(t) for t in row.split()] for row in rows]).view(complex)
    for count in (1, 2, 3, 4):
        forks, _ = spans(count, parse_bytes=300)
        np.testing.assert_array_equal(read_matrix_file(path), expected)
        assert len(forks) == count - 1
        assert_no_child_left()


FAULTS = {
    "ragged row": lambda row: row.rsplit(" ", 1)[0],
    "bad token": lambda row: row.replace(" ", " x ", 1).rsplit(" ", 1)[0],
    "hash": lambda row: "# " + row.split(" ", 1)[1],
    "nan": lambda row: row.replace(row.split(" ", 1)[0], "nan", 1),
    "extra number": lambda row: row + " 1.0",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_in_the_last_span_reads_as_in_one_span(tmp_path, spans, fault):
    dim = 16
    rows = matrix_text(dim, seed=5)
    rows[-2] = FAULTS[fault](rows[-2])
    path = tmp_path / "bad.mat"
    path.write_text(f"{dim}\n\n" + "\n".join(rows) + "\n")
    spans(1)
    expected = error_text(path)
    assert "bad.mat" in expected
    if fault != "nan":
        # the header is line 1 and a blank line 2, so row k is on line k + 3
        assert f"; line {dim + 1}: " in expected
    for count in (2, 3, 4):
        forks, maps = spans(count, parse_bytes=500)
        assert error_text(path) == expected
        assert len(forks) == count - 1
        assert all(shared.closed for shared in maps)
        assert_no_child_left()


def test_the_earliest_fault_in_the_file_is_reported(tmp_path, spans):
    dim = 16
    rows = matrix_text(dim, seed=6)
    rows[3] = FAULTS["bad token"](rows[3])
    rows[13] = FAULTS["ragged row"](rows[13])
    path = tmp_path / "bad.mat"
    path.write_text(f"{dim}\n" + "\n".join(rows) + "\n")
    for count in (1, 2, 4):
        spans(count, parse_bytes=500)
        assert "line 5: could not convert string 'x' to float64 at column 2." in error_text(path)
    rows[3] = matrix_text(dim, seed=6)[3]
    rows[14] = FAULTS["bad token"](rows[14])
    path.write_text(f"{dim}\n" + "\n".join(rows) + "\n")
    for count in (1, 2, 4):
        spans(count, parse_bytes=500)
        assert f"line 15: {2 * dim - 1} numbers" in error_text(path)


@pytest.mark.parametrize("extra", [-3, 3])
def test_a_wrong_row_count_reads_as_in_one_span(tmp_path, spans, extra):
    dim = 16
    path = tmp_path / "bad.mat"
    path.write_text(f"{dim}\n" + "\n".join((2 * matrix_text(dim, seed=7))[: dim + extra]) + "\n")
    for count in (1, 2, 4):
        spans(count, parse_bytes=500)
        assert error_text(path).endswith(f"expected {dim} rows of {2 * dim} numbers, got {dim + extra} rows")


def test_rows_count_lines_one_way_for_both_faults(tmp_path):
    # loadtxt alone named the bad token's data row 1 and the ragged row's line 2
    path = tmp_path / "bad.mat"
    path.write_text("2\n1.0 0.0 0.0 0.0\n\n0.0 x 1.0 0.0\n")
    assert "; line 4: could not convert string 'x' to float64 at column 2." in error_text(path)
    path.write_text("2\n1.0 0.0 0.0 0.0\n\n0.0 0.0 1.0\n")
    assert "; line 4: 3 numbers" in error_text(path)


def failing_spans(monkeypatch, fails, stalls=lambda: False):
    """Patch the span parser: in a child, raise where fails() holds and sleep
    for a minute where stalls() holds; in the parent, raise where fails(parent=True) holds."""
    parse = fileio._parse_span
    parent = os.getpid()

    def parse_span(fd, lo, hi, out):
        in_parent = os.getpid() == parent
        if fails(parent=in_parent):
            raise RuntimeError(f"span at byte {lo} failed")
        if not in_parent and stalls():
            time.sleep(60)
        return parse(fd, lo, hi, out)

    monkeypatch.setattr(fileio, "_parse_span", parse_span)


def test_a_child_that_fails_raises_and_leaves_no_child(tmp_path, monkeypatch, capfd, spans):
    forks, maps = spans(3)
    failing_spans(monkeypatch, lambda parent: not parent)
    path = tmp_path / "op.mat"
    path.write_text("16\n" + "\n".join(matrix_text(16)) + "\n")
    with pytest.raises(SimulationError, match=r"op\.mat: the child process parsing bytes \d+\.\.\d+ exited with status 1"):
        read_matrix_file(path)
    assert "RuntimeError: span at byte" in capfd.readouterr().err
    assert len(forks) == 2
    assert maps and all(shared.closed for shared in maps)
    assert_no_child_left()


def test_a_parent_that_fails_kills_the_children(tmp_path, monkeypatch, spans):
    forks, maps = spans(4)
    # the parent's own span raises while the children stall in theirs
    failing_spans(monkeypatch, lambda parent: parent, stalls=lambda: True)
    path = tmp_path / "op.mat"
    path.write_text("16\n" + "\n".join(matrix_text(16)) + "\n")
    start = time.monotonic()
    # the error is held, as by a caller that reports it later: its traceback
    # keeps the frames of the call alive
    with pytest.raises(RuntimeError, match="span at byte") as held:
        read_matrix_file(path)
    assert time.monotonic() - start < 30
    assert len(forks) == 3
    assert maps and all(shared.closed for shared in maps)
    assert_no_child_left()


def test_without_fork_the_body_is_one_span(tmp_path, monkeypatch, spans):
    forks, _ = spans(4)
    monkeypatch.delattr(os, "fork")
    path = tmp_path / "op.mat"
    path.write_text("16\n" + "\n".join(matrix_text(16)) + "\n")
    np.testing.assert_array_equal(read_matrix_file(path), test_config.TestMatrixFile.token_reference(path))


def test_a_named_pipe_is_a_config_error(tmp_path):
    # spans are read at offsets, which a pipe does not have
    path = tmp_path / "op.mat"
    os.mkfifo(path)

    def write():
        try:
            path.write_text("2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n")
        except BrokenPipeError:  # the reader gave up first
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with pytest.raises(ConfigError, match=r"cannot read matrix file .*op\.mat"):
        read_matrix_file(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
