"""Floats formatted once per distinct 64-bit pattern in a block that repeats
enough: fileio._float_texts and the series and matrix writers built on it
write the same bytes as a repr per element, with 0.0 and -0.0, and NaNs of
every sign and payload, kept apart."""

import json
import struct

import numpy as np
import pytest

from ethsim import fileio
from ethsim.fileio import read_matrix_file, write_matrix_file, write_series

from test_config import reference_series_text
from test_parallel_series import assert_no_child_left, cpus  # cpus is a fixture


def nan(sign: int, payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF0_0000_0000_0000 | payload))[0]


# a handful of values whose reprs collide without their bit patterns being equal
HANDFUL = np.array([0.0, -0.0, nan(0, 1 << 51), nan(1, 1 << 51), nan(0, 1), nan(1, 12345), np.inf, -np.inf, 5e-324, -5e-324, 2.5e-320, 1.0, -2.5])


def repeated(size: int, seed: int) -> np.ndarray:
    """size draws from HANDFUL, so every value repeats on both sides of any cut."""
    return np.random.default_rng(seed).choice(HANDFUL, size=size)


def assert_reprs(texts, block):
    """texts is the repr of each element of block."""
    assert texts == [repr(x) for x in block.tolist()]


class TestFloatTexts:
    def test_handful_values_keep_their_own_text(self):
        assert len(set(HANDFUL.view(np.int64).tolist())) == HANDFUL.size
        block = repeated(4096, 0)
        assert_reprs(fileio._float_texts(block), block)
        assert fileio._float_texts(np.array([0.0, -0.0, -0.0, 0.0])) == ["0.0", "-0.0", "-0.0", "0.0"]

    def test_names_respell_non_finite_texts_as_json_does(self):
        block = repeated(1000, 1)
        texts = fileio._float_texts(block, fileio._JSON_NAMES)
        assert texts == [json.dumps(x) for x in block.tolist()]

    @staticmethod
    def with_repeats(size: int, repeats: int) -> np.ndarray:
        block = np.random.default_rng(size).normal(size=size)
        block[size - repeats :] = block[:repeats]
        assert np.unique(block).size == size - repeats
        return block

    @pytest.mark.parametrize("size,repeats", [(0, 0), (1, 0), (2, 0), (1024, 0), (1024, 1024 // fileio._REPEAT_SHARE - 1)])
    def test_a_block_with_few_repeats_builds_no_index(self, monkeypatch, size, repeats):
        block = self.with_repeats(size, repeats)
        monkeypatch.setattr(np, "searchsorted", None)  # the index path would call it
        assert_reprs(fileio._float_texts(block), block)

    def test_a_block_with_enough_repeats_builds_the_index(self, monkeypatch):
        block = self.with_repeats(1024, 1024 // fileio._REPEAT_SHARE)
        calls, searchsorted = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *args: calls.append(args) or searchsorted(*args))
        assert_reprs(fileio._float_texts(block), block)
        assert len(calls) == 1

    def test_a_strided_block_is_read_in_place(self):
        block = repeated(2048, 2)[::2]
        assert_reprs(fileio._float_texts(block), block)


def assert_same_text(text: str, expected: str):
    """Equal texts, compared line by line, so a failure names the first
    differing line without a diff of the whole file."""
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def columns(size: int, seed: int):
    """A repeated column, one mostly distinct with repeats of HANDFUL
    values, and one of 0.0 and -0.0 alone."""
    rng = np.random.default_rng(seed)
    mixed = rng.normal(size=size)
    where = rng.random(size) < 0.3
    mixed[where] = rng.choice(HANDFUL, size=where.sum())
    return repeated(size, seed), mixed, rng.choice([0.0, -0.0], size=size)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [None, (7, 21)])
@pytest.mark.parametrize("dt", [0.01 * np.pi, -0.0])
def test_series_files_match_the_per_element_writer_on_every_span_count(tmp_path, monkeypatch, cpus, fmt, rows, dt):
    if rows is not None:
        monkeypatch.setattr(fileio, "_CSV_ROWS", rows[0])
        monkeypatch.setattr(fileio, "_SPAN_ROWS", rows[1])
    # blocks and spans cut inside runs of repeats; the last block is partial
    size = 4 * fileio._SPAN_ROWS + fileio._CSV_ROWS // 2 + 1
    cols = columns(size, 3)
    expected = reference_series_text(fmt, dt, *cols)
    for count in (1, 2, 3, 4):
        forks = cpus(count)
        forks.clear()
        path = write_series(tmp_path / f"s.{fmt}", fmt, dt, *cols)
        assert_same_text(path.read_text(), expected)
        assert len(forks) == count - 1
        assert_no_child_left()


class TestMatrixFile:
    @staticmethod
    def repeated_matrix(dim: int, seed: int) -> np.ndarray:
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -2.5e-320, 1e300, 0.1])
        return np.random.default_rng(seed).choice(values, size=(dim, 2 * dim)).view(complex)

    @staticmethod
    def element_text(entries) -> str:
        """The earlier writer's text: a repr of float() per real and imaginary part."""
        rows = (" ".join(f"{float(x.real)!r} {float(x.imag)!r}" for x in row) + "\n" for row in entries)
        return f"{entries.shape[0]}\n" + "".join(rows)

    @pytest.mark.parametrize("dim", [2, 16, 512])
    def test_same_bytes_as_the_per_element_writer_and_read_back_exactly(self, tmp_path, dim):
        entries = self.repeated_matrix(dim, dim)
        path = write_matrix_file(tmp_path / "a.mat", entries)
        assert_same_text(path.read_text(), self.element_text(entries))
        np.testing.assert_array_equal(read_matrix_file(path).view(np.uint64), entries.view(np.uint64))

    def test_a_transposed_matrix_is_written_as_its_values(self, tmp_path):
        entries = self.repeated_matrix(8, 1)
        path = write_matrix_file(tmp_path / "a.mat", entries.T)
        assert_same_text(path.read_text(), self.element_text(entries.T))
