"""Plain-text file formats and atomic writers.

Matrix files: first line is the dimension (a power of two: the operator
acts on qubits), then one row per line as whitespace-separated "re im"
pairs, row-major; every entry finite. Series files: CSV with
columns step,t,sample,running_mean,running_se (or the JSON equivalent).
Floats are written with repr so identical runs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import os
import secrets
import signal
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, SimulationError

SERIES_COLUMNS = ("step", "t", "sample", "running_mean", "running_se")
# series rows formatted per block of the CSV writer
_CSV_ROWS = 1024
# least rows per span of the forked series writer. On a 2-vCPU VM a fork,
# exit and wait took about 2 ms, two spans of 4096 rows were as often slower
# than one span as faster, and two of 6144 or more were faster
_SPAN_ROWS = 8 * _CSV_ROWS
# characters per read when a span's part file is copied into the series file
_COPY_CHARS = 2**16


def atomic_write_text(path, text) -> Path:
    """Write text, one str or an iterable of str blocks, via a sibling temp
    file and rename, so readers never see a half-written file. The blocks
    go through one writelines call, so an iterable is written as it is
    produced and never joined; a block that raises leaves no temp file. A
    path that cannot be written is a ConfigError naming it."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # mode 0o666 leaves the permissions to the umask, as for any new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if fd is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, (FileExistsError, NotADirectoryError, IsADirectoryError, PermissionError)):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise
    return path


def write_matrix_file(path, entries) -> Path:
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {entries.shape}")
    # one line per row, streamed; plain-float repr: numpy scalar reprs are not parseable numbers
    rows = (" ".join(f"{float(x.real)!r} {float(x.imag)!r}" for x in row) + "\n" for row in entries)
    return atomic_write_text(path, itertools.chain([f"{entries.shape[0]}\n"], rows))


def read_matrix_file(path) -> np.ndarray:
    """Read a matrix file: the header with int(), the rows in one streaming
    np.loadtxt pass. The file is read as bytes and the body decoded as
    latin1, so a byte that is not text fails as a token of the line it is on."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            try:
                dim = int(handle.readline())
            except ValueError:
                raise ConfigError(f"matrix file {path}: first line must be the dimension") from None
            if dim < 2 or dim & (dim - 1):
                raise ConfigError(f"matrix file {path}: dimension {dim} is not a power of two >= 2")
            expect = f"expected {dim} rows of {2 * dim} numbers"
            try:
                with warnings.catch_warnings():
                    # loadtxt warns on a body with no rows, which the shape check reports
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(handle, dtype=float, ndmin=2, comments=None, encoding="latin1")
            except ValueError as exc:
                raise ConfigError(f"matrix file {path}: {expect} ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    if values.shape != (dim, 2 * dim):
        raise ConfigError(f"matrix file {path}: {expect}, got {values.size} numbers in {len(values)} rows")
    if not np.isfinite(values).all():
        raise ConfigError(f"matrix file {path}: entries must be finite, found nan or inf")
    entries = values.view(complex)  # each row holds re, im pairs
    entries.setflags(write=False)  # a fresh array, so an operator keeps it without a copy
    return entries


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(fmt: str, dt: float, cols, lo: int, hi: int):
    """Rows lo..hi-1 of the series body, _CSV_ROWS at a time, each block one
    f-string per row over tolist() columns, so only one block's Python floats
    and text are held at once. A JSON block after row 0 starts with the
    separator, so the text of a row range does not depend on where it is cut."""
    for start in range(lo, hi, _CSV_ROWS):
        xs, ms, ses = (col[start : min(start + _CSV_ROWS, hi)].tolist() for col in cols)
        steps = range(start + 1, start + 1 + len(xs))
        if fmt == "csv":
            yield "".join([f"{j},{j * dt!r},{x!r},{m!r},{se!r}\n" for j, x, m, se in zip(steps, xs, ms, ses)])
        else:
            text = ",\n".join([f"    [\n      {j},\n      {j * dt!r},\n      {x!r},\n      {m!r},\n      {se!r}\n    ]" for j, x, m, se in zip(steps, xs, ms, ses)])
            # only a non-finite repr has letters n, a, i, f: "-inf" becomes "-Infinity"
            yield (",\n" if start else "") + text.replace("nan", "NaN").replace("inf", "Infinity")


def _format_part(part: Path, fmt: str, dt: float, cols, lo: int, hi: int):
    """In a forked child: write rows lo..hi-1 to the part file, then end the
    process, with exit status 0 only if the whole span was written."""
    status = 1
    try:
        # no collection in the child, so no finalizer of the parent's garbage
        # (a file with buffered writes, say) runs a second time
        gc.disable()
        with os.fdopen(os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as handle:
            handle.writelines(_row_blocks(fmt, dt, cols, lo, hi))
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # the traceback, as for an uncaught error
        sys.stderr.flush()
    finally:
        os._exit(status)


def _series_blocks(fmt: str, dt: float, series, running_mean_col, running_se_col, path: Path | None = None):
    """The series file as str blocks: the head, the rows, the tail.

    The rows are cut into contiguous spans, one per CPU and each of at least
    _SPAN_ROWS rows; without a target path, one CPU or os.fork, they are one
    span. The generator formats span 0 itself and forks one child per later
    span, which formats it into a sibling part file; the parts are reaped and
    copied in order, _COPY_CHARS at a time. On exit, also by close() or an
    exception, every child not yet reaped is killed and reaped and every part
    file removed.
    """
    dt = float(dt)
    cols = [np.asarray(col, dtype=float) for col in (series, running_mean_col, running_se_col)]
    size = cols[0].size
    if fmt == "csv":
        head, tail = ",".join(SERIES_COLUMNS) + "\n", ""
    else:
        empty = json.dumps({"schema_version": 1, "columns": list(SERIES_COLUMNS), "rows": []}, indent=2, sort_keys=True)
        head, tail = empty.split("[]")
        head, tail = head + ("[\n" if size else "[]"), ("\n  ]" if size else "") + tail + "\n"
    spans = 1 if path is None or not hasattr(os, "fork") else max(1, min(_cpu_count(), size // _SPAN_ROWS))
    bounds = [k * size // spans for k in range(spans + 1)]
    yield head
    children = {}  # pid -> its span, while not reaped
    parts = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            parts.append(path.parent / f".{path.name}.{secrets.token_hex(8)}.part")
            pid = os.fork()
            if pid == 0:
                _format_part(parts[-1], fmt, dt, cols, lo, hi)
            children[pid] = lo, hi
        yield from _row_blocks(fmt, dt, cols, bounds[0], bounds[1])
        for part, (pid, (lo, hi)) in zip(parts, list(children.items())):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                raise SimulationError(f"series file {path}: the child process formatting steps {lo + 1}..{hi} exited with status {status}")
            with part.open() as handle:
                yield from iter(functools.partial(handle.read, _COPY_CHARS), "")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)
    yield tail


def series_csv_blocks(dt: float, series, running_mean_col, running_se_col):
    """The CSV series file as str blocks: the header, then one block per _CSV_ROWS rows."""
    return _series_blocks("csv", dt, series, running_mean_col, running_se_col)


def series_json_blocks(dt: float, series, running_mean_col, running_se_col):
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\\n" for the
    payload {"columns", "rows", "schema_version"} as str blocks: the head, the
    rows _CSV_ROWS at a time as the CSV writer formats them, then the tail.
    json writes a finite float as its repr, and nan, inf and -inf as NaN,
    Infinity and -Infinity."""
    return _series_blocks("json", dt, series, running_mean_col, running_se_col)


def write_series(path, fmt: str, dt: float, series, running_mean_col, running_se_col) -> Path:
    """Stream the series file into its atomic temp file, its rows formatted on
    every CPU (see _series_blocks); no child outlives the call."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown series format {fmt!r}")
    path = Path(path)
    with contextlib.closing(_series_blocks(fmt, dt, series, running_mean_col, running_se_col, path)) as blocks:
        return atomic_write_text(path, blocks)


def write_summary(path, summary: dict) -> Path:
    return atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_summary(path) -> dict:
    path = Path(path)
    try:
        summary = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read summary file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"summary file {path} is not valid JSON: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"summary file {path} is not a JSON object")
    return summary
