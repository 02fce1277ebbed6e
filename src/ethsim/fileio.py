"""Plain-text file formats and atomic writers.

Matrix files: first line is the dimension (a power of two: the operator
acts on qubits), then one row per line as whitespace-separated "re im"
pairs, row-major; every entry finite. Series files: CSV with
columns step,t,sample,running_mean,running_se (or the JSON equivalent).
Floats are written with repr so identical runs produce identical bytes.
"""

from __future__ import annotations

import itertools
import json
import os
import secrets
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError

SERIES_COLUMNS = ("step", "t", "sample", "running_mean", "running_se")
# series rows formatted per block of the CSV writer
_CSV_ROWS = 1024


def atomic_write_text(path, text) -> Path:
    """Write text, one str or an iterable of str blocks, via a sibling temp
    file and rename, so readers never see a half-written file. The blocks
    go through one writelines call, so an iterable is written as it is
    produced and never joined; a block that raises leaves no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mode 0o666 leaves the permissions to the umask, as for any new file
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    """Read a matrix file: the header with int(), the rows in one streaming np.loadtxt pass."""
    path = Path(path)
    try:
        with path.open() as handle:
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
                    values = np.loadtxt(handle, dtype=float, ndmin=2, comments=None)
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


def series_csv_blocks(dt: float, series, running_mean_col, running_se_col):
    """The CSV series file as str blocks: the header, then one block per
    _CSV_ROWS rows, each one f-string per row over tolist() columns, so only
    one block's Python floats and text are held at once."""
    dt = float(dt)
    cols = [np.asarray(col, dtype=float) for col in (series, running_mean_col, running_se_col)]
    yield ",".join(SERIES_COLUMNS) + "\n"
    for lo in range(0, cols[0].size, _CSV_ROWS):
        xs, ms, ses = (col[lo : lo + _CSV_ROWS].tolist() for col in cols)
        steps = range(lo + 1, lo + 1 + len(xs))
        yield "".join([f"{j},{j * dt!r},{x!r},{m!r},{se!r}\n" for j, x, m, se in zip(steps, xs, ms, ses)])


def series_json_blocks(dt: float, series, running_mean_col, running_se_col):
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\\n" for the
    payload {"columns", "rows", "schema_version"} as str blocks: the head, the
    rows _CSV_ROWS at a time as the CSV writer formats them, then the tail.
    json writes a finite float as its repr, and nan, inf and -inf as NaN,
    Infinity and -Infinity."""
    dt = float(dt)
    cols = [np.asarray(col, dtype=float) for col in (series, running_mean_col, running_se_col)]
    empty = json.dumps({"schema_version": 1, "columns": list(SERIES_COLUMNS), "rows": []}, indent=2, sort_keys=True)
    head, tail = empty.split("[]")
    yield head + ("[\n" if cols[0].size else "[]")
    for lo in range(0, cols[0].size, _CSV_ROWS):
        xs, ms, ses = (col[lo : lo + _CSV_ROWS].tolist() for col in cols)
        steps = range(lo + 1, lo + 1 + len(xs))
        text = ",\n".join([f"    [\n      {j},\n      {j * dt!r},\n      {x!r},\n      {m!r},\n      {se!r}\n    ]" for j, x, m, se in zip(steps, xs, ms, ses)])
        # only a non-finite repr has letters n, a, i, f: "-inf" becomes "-Infinity"
        yield (",\n" if lo else "") + text.replace("nan", "NaN").replace("inf", "Infinity")
    yield ("\n  ]" if cols[0].size else "") + tail + "\n"


def write_series(path, fmt: str, dt: float, series, running_mean_col, running_se_col) -> Path:
    """Stream the series file block by block into its atomic temp file."""
    if fmt == "csv":
        blocks = series_csv_blocks(dt, series, running_mean_col, running_se_col)
    elif fmt == "json":
        blocks = series_json_blocks(dt, series, running_mean_col, running_se_col)
    else:
        raise ConfigError(f"unknown series format {fmt!r}")
    return atomic_write_text(path, blocks)


def write_summary(path, summary: dict) -> Path:
    return atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def read_summary(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read summary file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"summary file {path} is not valid JSON: {exc}") from exc
