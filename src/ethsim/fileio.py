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
import mmap
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
# exit and wait took about 2 ms; two spans of 2048 rows were slower than one
# span, two of 3072 or 4096 faster in some sets of runs and slower in
# others, and two of 5120 or more faster (see README)
_SPAN_ROWS = 8 * _CSV_ROWS
# a block where at least one float in this many repeats another formats each
# distinct float once; below that the index of distinct floats costs more
# than it saves (on a 2-vCPU VM the two broke even at about 160 repeats in
# 1024 floats, and the index cost 80-110 us more at 32 repeats)
_REPEAT_SHARE = 8
# least body bytes per span of the forked matrix-file reader (see README)
_SPAN_BYTES = 2**20
# bytes of text per np.loadtxt call of the matrix-file reader
_PARSE_BYTES = 2**18
# bytes per os.pread of the matrix-file reader, and characters per read when
# a span's part file is copied into the series file
_READ_BYTES = 2**16


def atomic_write_text(path, text) -> Path:
    """Write text, one str or an iterable of str blocks, via a sibling temp
    file and rename, so readers never see a half-written file. The blocks
    go through one writelines call, so an iterable is written as it is
    produced and never joined; a block that raises leaves no temp file and
    its error propagates. A directory that cannot be made, a temp file that
    cannot be opened or a rename that fails is a ConfigError naming the path."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # mode 0o666 leaves the permissions to the umask, as for any new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_matrix_file(path, entries) -> Path:
    entries = np.asarray(entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {entries.shape}")
    # one line per row of re, im pairs, streamed
    rows = (" ".join(_float_texts(np.ascontiguousarray(row).view(float))) + "\n" for row in entries)
    return atomic_write_text(path, itertools.chain([f"{entries.shape[0]}\n"], rows))


def read_matrix_file(path) -> np.ndarray:
    """Read a matrix file: the header with int(), the body in contiguous
    spans of whole lines, one per CPU and each of at least _SPAN_BYTES. The
    parent parses span 0 into the result and one forked child per later span
    parses it into a shared anonymous map, from which the parent places its
    rows in span order (see _forked). The body is read as bytes and decoded
    as latin1, so a byte that is not text fails as a token of its line. The
    first line that is not a row of 2*dim numbers is named by its line
    number in the file, whatever the span count."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            try:
                dim = int(handle.readline())
            except ValueError:
                raise ConfigError(f"matrix file {path}: first line must be the dimension") from None
            if dim < 2 or dim & (dim - 1):
                raise ConfigError(f"matrix file {path}: dimension {dim} is not a power of two >= 2")
            width = 2 * dim
            expect = f"expected {dim} rows of {width} numbers"
            fd, body = handle.fileno(), handle.tell()
            size = os.fstat(fd).st_size
            spans = _span_count(size - body, _SPAN_BYTES)
            cuts = [body, *(_line_start(fd, body + k * (size - body) // spans, size) for k in range(1, spans)), size]
            # each later span's block of the shared map: a head (row count,
            # offset of the first faulty line or -1), then room for its rows;
            # a row of width numbers takes at least 2*width bytes with its newline
            blocks, at = [], 0
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                cap = min(dim, (hi - lo + 1) // (2 * width))
                blocks.append((lo, hi, at, cap))
                at += 16 + 8 * width * cap
            values = np.empty((dim, width))
            # an empty map is an error, so one span maps one unused byte
            shared = mmap.mmap(-1, max(at, 1))
            tasks = ((f"matrix file {path}: the child process parsing bytes {lo}..{hi - 1}", functools.partial(_parse_part, shared, fd, lo, hi, head, cap, width)) for lo, hi, head, cap in blocks)
            with shared, _forked(tasks) as wait:
                try:
                    rows = _parse_span(fd, cuts[0], cuts[1], values)
                    for _, _, head, cap in blocks:
                        wait()
                        count, fault = np.frombuffer(shared, np.int64, 2, head).tolist()
                        if fault >= 0:
                            raise _LineFault(fault)
                        _place(values, rows, np.frombuffer(shared, float, min(count, cap) * width, head + 16).reshape(-1, width))
                        rows += count
                except _LineFault as fault:
                    raise ConfigError(f"matrix file {path}: {expect}; {_fault_text(fd, fault.args[0], width)}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from exc
    if rows != dim:
        raise ConfigError(f"matrix file {path}: {expect}, got {rows} rows")
    if not np.isfinite(values).all():
        raise ConfigError(f"matrix file {path}: entries must be finite, found nan or inf")
    entries = values.view(complex)  # each row holds re, im pairs
    entries.setflags(write=False)  # a fresh array, so an operator keeps it without a copy
    return entries


class _LineFault(Exception):
    """A line of a matrix file that is not a row of the file's width; the
    argument is the offset where it starts."""


def _lines(fd: int, lo: int, hi: int):
    """The lines of bytes lo..hi-1 of a file, without their newlines, read
    with os.pread _READ_BYTES at a time: a forked child shares the parent's
    file offset, so no reader may move it."""
    rest = b""
    while lo < hi:
        block = os.pread(fd, min(_READ_BYTES, hi - lo), lo)
        if not block:  # the file ended early
            break
        lo += len(block)
        *lines, rest = (rest + block).split(b"\n")
        yield from lines
    if rest:
        yield rest


def _line_start(fd: int, pos: int, end: int) -> int:
    """The first line start at or after pos (pos > 0), or end."""
    while pos < end:
        block = os.pread(fd, _READ_BYTES, pos - 1)
        at = block.find(b"\n")
        if at >= 0:
            return min(pos + at, end)
        if not block:
            break
        pos += len(block)
    return end


def _loadtxt(lines) -> np.ndarray:
    """np.loadtxt of byte lines decoded as latin1, where # starts no comment."""
    with warnings.catch_warnings():
        # loadtxt warns on lines with no data, which are skipped
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=float, ndmin=2, comments=None, encoding="latin1")


def _line_fault(line: bytes, width: int) -> str | None:
    """What keeps one line from being a row of width numbers, or None if it
    is one or holds no data. The test is of the line alone, so the first
    faulty line of a file does not depend on how the file is cut."""
    try:
        row = _loadtxt([line])
    except ValueError as exc:
        return str(exc).replace(" at row 0,", " at")  # the line is loadtxt's row 0
    return f"{row.shape[1]} numbers" if len(row) and row.shape[1] != width else None


def _fault_text(fd: int, offset: int, width: int) -> str:
    """The line starting at offset, by its 1-based number in the file (the
    header is line 1), and its fault."""
    number = 1 + sum(os.pread(fd, min(_READ_BYTES, offset - at), at).count(b"\n") for at in range(0, offset, _READ_BYTES))
    return f"line {number}: {_line_fault(next(_lines(fd, offset, os.fstat(fd).st_size)), width)}"


def _place(out: np.ndarray, rows: int, chunk: np.ndarray):
    """Copy chunk to out from row rows on, as far as out reaches."""
    out[rows : rows + len(chunk)] = chunk[: max(0, len(out) - rows)]


def _parse_span(fd: int, lo: int, hi: int, out: np.ndarray) -> int:
    """Parse bytes lo..hi-1 of the file (a whole number of lines), about
    _PARSE_BYTES at a time, into out; return the row count, also of rows
    past its end. Raise _LineFault at the first line that is not a row of
    out's width."""
    rows = 0
    while lo < hi:
        end = _line_start(fd, lo + _PARSE_BYTES, hi)
        try:
            chunk = _loadtxt(_lines(fd, lo, end))
            if len(chunk) and chunk.shape[1] != out.shape[1]:
                raise ValueError
        except ValueError:
            for line in _lines(fd, lo, end):
                if _line_fault(line, out.shape[1]):
                    raise _LineFault(lo) from None
                lo += len(line) + 1
        _place(out, rows, chunk)
        rows += len(chunk)
        lo = end
    return rows


def _parse_part(shared: mmap.mmap, fd: int, lo: int, hi: int, at: int, cap: int, width: int):
    """In a forked child: parse bytes lo..hi-1 into the room for cap rows
    after offset at + 16 of shared, then write the head at offset at: the
    row count and the offset of the first faulty line, or -1."""
    try:
        head = _parse_span(fd, lo, hi, np.ndarray((cap, width), float, shared, at + 16)), -1
    except _LineFault as fault:
        head = 0, fault.args[0]
    np.frombuffer(shared, np.int64, 2, at)[:] = head


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _span_count(size: int, least: int) -> int:
    """Spans to cut size units into: one per CPU, each of at least least
    units; one where os.fork is missing."""
    return max(1, min(_cpu_count(), size // least)) if hasattr(os, "fork") else 1


@contextlib.contextmanager
def _forked(tasks):
    """Run each (label, task) pair's task in a forked child, which exits with
    status 0 if the task returned and 1, its traceback on stderr, if it
    raised, and give the caller wait(): it reaps the next child in task order
    and raises SimulationError(f"{label} exited with status {n}") if n is not
    0. On exit, also by an exception, every child not yet reaped is killed."""
    children = []

    def wait():
        label, pid = children[0]
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del children[0]
        if status:
            raise SimulationError(f"{label} exited with status {status}")

    try:
        for label, task in tasks:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # no collection in the child, so no finalizer of the parent's
                    # garbage (a file with buffered writes, say) runs a second time
                    gc.disable()
                    task()
                    status = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())  # the traceback, as for an uncaught error
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            children.append((label, pid))
        yield wait
    finally:
        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _float_texts(block: np.ndarray, names: dict | None = None) -> list[str]:
    """The repr of each float of a float64 block; names respells a
    non-finite repr (JSON's NaN and Infinity). A sort of the block's 64-bit
    patterns and a neighbour compare count its repeats. A block where at
    least one float in _REPEAT_SHARE repeats formats each distinct pattern
    once, so 0.0 and -0.0, or NaNs of different payloads, are never merged,
    and indexes the texts; any other block formats float by float."""
    bits = block.view(np.int64)
    # a stable sort: it is quick on the sorted runs of t and the running
    # columns, and after the six presets its first call mapped 0.06 MiB of
    # numpy code where the default quicksort's mapped 0.31 MiB
    keys = np.sort(bits, kind="stable")
    first = np.empty(keys.size, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    repeats = keys.size - np.count_nonzero(first)
    if repeats == 0 or repeats * _REPEAT_SHARE < keys.size:
        keys, index = block, None
    else:
        keys = keys[first]
        index = np.searchsorted(keys, bits)
        keys = keys.view(float)
    texts = list(map(repr, keys.tolist()))
    if names is not None and not np.isfinite(keys).all():
        texts = [names.get(text, text) for text in texts]
    return texts if index is None else np.array(texts, object)[index].tolist()


# json's spelling of the non-finite float reprs
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# per format: the text before a block's first row (by whether it is the
# series' first), before each later row, between a row's fields and after
# the block's last row
_ROW_TEXT = {
    "csv": (("", ""), "\n", ",", "\n"),
    "json": (("    [", ",\n    ["), "],\n    [", ", ", "]"),
}


def _row_blocks(fmt: str, dt: float, cols, lo: int, hi: int):
    """Rows lo..hi-1 of the series body, _CSV_ROWS at a time, each block
    one join of its fields: the step, t = np.arange(...) * dt (bit for bit
    j * dt) and the three columns, each float column formatted by
    _float_texts, so only one block's text is held at once. A JSON block
    after row 0 starts with the separator, so the text of a row range does
    not depend on where it is cut."""
    names = None if fmt == "csv" else _JSON_NAMES
    (at_zero, at_cut), lead, sep, tail = _ROW_TEXT[fmt]
    for start in range(lo, hi, _CSV_ROWS):
        end = min(start + _CSV_ROWS, hi)
        parts = [lead, None, sep, None, sep, None, sep, None, sep, None] * (end - start) + [tail]
        parts[0] = at_cut if start else at_zero
        parts[1::10] = map(str, range(start + 1, end + 1))
        for k, col in enumerate((np.arange(start + 1, end + 1) * dt, *(col[start:end] for col in cols)), 1):
            parts[2 * k + 1 :: 10] = _float_texts(col, names)
        yield "".join(parts)


def _format_part(part: Path, fmt: str, dt: float, cols, lo: int, hi: int):
    """Write rows lo..hi-1 to the part file, in a forked child."""
    with os.fdopen(os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as handle:
        handle.writelines(_row_blocks(fmt, dt, cols, lo, hi))


def _series_frame(fmt: str, size: int) -> tuple[str, str]:
    """The text before and after the size rows of a series file in format
    fmt; a fmt other than csv or json is a ConfigError."""
    if fmt not in _ROW_TEXT:
        raise ConfigError(f"unknown series format {fmt!r}")
    if fmt == "csv":
        return ",".join(SERIES_COLUMNS) + "\n", ""
    head, tail = _json_text({"schema_version": 1, "columns": list(SERIES_COLUMNS), "rows": []}).split("[]")
    return head + ("[\n" if size else "[]"), ("\n  ]" if size else "") + tail + "\n"


def series_blocks(fmt: str, dt: float, series, running_mean_col, running_se_col):
    """The series file in format fmt as str blocks: the head, the rows, the
    tail. JSON is _json_text({"columns", "rows", "schema_version"}) + "\\n",
    one row per line, finite floats as their repr and nan, inf, -inf as NaN,
    Infinity, -Infinity. A fmt other than csv or json is a ConfigError."""
    cols = [np.asarray(col, dtype=float) for col in (series, running_mean_col, running_se_col)]
    head, tail = _series_frame(fmt, cols[0].size)
    return itertools.chain([head], _row_blocks(fmt, float(dt), cols, 0, cols[0].size), [tail])


def write_series(path, fmt: str, dt: float, series, running_mean_col, running_se_col) -> Path:
    """Stream the text of series_blocks into the series file's atomic temp
    file, its rows cut into contiguous spans, one per CPU and each of at least
    _SPAN_ROWS rows: this process formats span 0, and a forked child each
    later span into a sibling part file (see _forked), copied in order
    _READ_BYTES characters at a time. No child or part file outlives the call;
    a fmt other than csv or json is a ConfigError raised before any file is made."""
    path = Path(path)
    dt, cols = float(dt), [np.asarray(col, dtype=float) for col in (series, running_mean_col, running_se_col)]
    size = cols[0].size
    head, tail = _series_frame(fmt, size)
    spans = _span_count(size, _SPAN_ROWS)
    bounds = [k * size // spans for k in range(spans + 1)]
    parts = [path.parent / f".{path.name}.{secrets.token_hex(8)}.part" for _ in bounds[2:]]

    def rows():
        tasks = ((f"series file {path}: the child process formatting steps {lo + 1}..{hi}", functools.partial(_format_part, part, fmt, dt, cols, lo, hi)) for part, lo, hi in zip(parts, bounds[1:], bounds[2:]))
        with _forked(tasks) as wait:
            yield from _row_blocks(fmt, dt, cols, 0, bounds[1])
            for part in parts:
                wait()
                with part.open() as handle:
                    yield from iter(functools.partial(handle.read, _READ_BYTES), "")

    try:
        # closed on every exit, so the children are reaped before their part files go
        with contextlib.closing(rows()) as body:
            return atomic_write_text(path, itertools.chain([head], body, [tail]))
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _json_text(value, indent: str = "") -> str:
    """The JSON text of value as every ethsim file and printout lays it out:
    a dict one key per line, sorted and indented two spaces deeper, as
    json.dumps(indent=2, sort_keys=True) writes it; a list or tuple that
    holds a list or dict one item per line; anything else, a list of scalars
    too, as json.dumps writes it, on one line."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items, ends = (f"{json.dumps(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())), "{}"
    elif isinstance(value, (list, tuple)) and any(isinstance(item, (list, tuple, dict)) for item in value):
        items, ends = (_json_text(item, inner) for item in value), "[]"
    else:
        return json.dumps(value)
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def write_summary(path, summary: dict) -> Path:
    return atomic_write_text(path, _json_text(summary) + "\n")


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
