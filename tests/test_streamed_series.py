"""Series output in bounded memory: the writers stream their blocks into the
atomic temp file, and the running statistics work in place, bit-identical to
the whole-array expressions kept here as the reference."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ethsim.estimators import batch_means_standard_error, running_mean, running_standard_error
from ethsim.fileio import atomic_write_text, read_matrix_file, series_csv_blocks, series_json_blocks, write_matrix_file, write_series

STREAM_ROWS = 100_000


def reference_running_mean(series):
    series = np.asarray(series, dtype=float)
    return np.cumsum(series) / np.arange(1, series.size + 1)


def reference_running_standard_error(series):
    series = np.asarray(series, dtype=float)
    n = np.arange(1, series.size + 1, dtype=float)
    mean = np.cumsum(series) / n
    mean_sq = np.cumsum(series**2) / n
    var = np.maximum(mean_sq - mean**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        unbiased = np.where(n > 1, var * n / (n - 1.0), 0.0)
    return np.sqrt(unbiased / n)


def traced_peak(call):
    """Traced peak of call() over the traced size at its start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def columns(size, seed=0):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=size) * 10.0 ** rng.integers(-3, 3, size=size)
    return series, running_mean(series), running_standard_error(series)


class TestRunningStatistics:
    @pytest.mark.parametrize("size", [0, 1, 2, 1025, 100_000])
    def test_bit_identical_to_the_whole_array_expressions(self, size):
        rng = np.random.default_rng(size)
        for series in (rng.normal(size=size) * 1e3 + 5.0, rng.random(size), np.full(size, 0.25)):
            assert running_mean(series).tobytes() == reference_running_mean(series).tobytes()
            assert running_standard_error(series).tobytes() == reference_running_standard_error(series).tobytes()

    def test_bit_identical_on_non_finite_columns(self):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e22, 4.0, -1e-7])
        for series in (special, special[::-1], np.roll(special, 3), np.array([np.inf, 1.0]), np.array([1.0, np.nan, 2.0])):
            with np.errstate(all="ignore"):
                assert running_mean(series).tobytes() == reference_running_mean(series).tobytes()
                assert running_standard_error(series).tobytes() == reference_running_standard_error(series).tobytes()

    def test_no_warning_on_a_single_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = np.array([0.75])
            assert running_mean(series).tolist() == [0.75]
            assert running_standard_error(series).tolist() == [0.0]
            assert batch_means_standard_error(series) == 0.0

    def test_standard_error_holds_three_columns(self):
        series = columns(STREAM_ROWS)[0]
        assert traced_peak(lambda: running_standard_error(series)) <= 24 * STREAM_ROWS + 64 * 2**10


class TestStreamedWrite:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_series_streams_the_blocks(self, tmp_path, fmt):
        cols = columns(STREAM_ROWS)
        path = tmp_path / f"s.{fmt}"
        assert traced_peak(lambda: write_series(path, fmt, 0.5, *cols)) <= 2**20
        blocks = {"csv": series_csv_blocks, "json": series_json_blocks}[fmt]
        assert path.read_text() == "".join(blocks(0.5, *cols))

    def test_matrix_file_streams_its_rows(self, tmp_path):
        rng = np.random.default_rng(14)
        mat = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        mat[0, :3] = [complex(-0.0, 5e-324), complex(1e22, -1e22), complex(2.0, -0.0)]
        joined = "\n".join([str(256)] + [" ".join(f"{float(x.real)!r} {float(x.imag)!r}" for x in row) for row in mat]) + "\n"
        path = tmp_path / "a.txt"
        # one formatted row at a time; the joined file text alone would be 2.5 MiB
        assert traced_peak(lambda: write_matrix_file(path, mat)) <= 2**20
        assert path.read_bytes() == joined.encode()
        np.testing.assert_array_equal(read_matrix_file(path), mat)

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_block_that_raises_leaves_no_file_behind(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing:
            atomic_write_text(path, "kept")

        def blocks():
            yield "x" * 100_000
            yield "y" * 100_000
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            atomic_write_text(path, blocks())
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_text() == "kept"
