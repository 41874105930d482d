"""CSV record files: `time_s,current_a,voltage_v` rows plus a JSON metadata sidecar.

Row k's time is k/sample_rate_hz (`write_record` writes it, `read_record` checks
it).  The sidecar (``<name>.meta.json`` next to ``<name>.csv``) carries the
record's grid, the keys of `excitation.RECORD_GRID` checked against
`SIDECAR_SCHEMA`, and an optional ocv_v; other keys are kept as they are.  The
time column is written in its shortest round-trip form (``%r``, Python's float
repr: ``0.005`` rather than ``0.0050000000000000001``) and the samples with 17
significant digits, so every float64 reads back bitwise.

Tables are written by a block writer (`write_csv`): one ``%`` format per block
of rows.  With its default ``%.17g`` for every column it writes the bytes of
``np.savetxt(fmt="%.17g", delimiter=",")``.  Every CSV table, a record or a
`compare` input, is read by `read_csv`, which opens it once: one C parse of
the data rows (``np.loadtxt``), checked as a whole.  A regular ``.csv`` file
is parsed by its absolute name, which numpy reads in large chunks; any other
(a pipe, ``eis.gz``, ``eis.txt``) is parsed from its lines, read once, about
1.2 times as slow.  A table that fails goes on, as the rest of the
same open file, to the one row-by-row parse (`_parse_rows`), whose errors
name the file line and column.  It accepts no file with data rows
that the C parse rejects, and a row that ``float()`` rejects but the C parse
reads (a number padded with the ASCII separators 0x1C-0x1F) passes too.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .excitation import RECORD_GRID, TimeRecord, check_shared_grid, samples_per_period
from .schema import dump, load

CSV_HEADER = "time_s,current_a,voltage_v"
_TIME_TOL_S = 1e-9
_BLOCK_ROWS = 8192
# the derived time k/fs in its shortest round-trip form, the samples at 17 digits
_RECORD_FORMATS = ("%r", "%.17g", "%.17g")

SIDECAR_SCHEMA = {"type": "object", "properties": RECORD_GRID, "required": list(RECORD_GRID)}


def sidecar_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_csv(path: str | Path, header: str, columns, formats=None) -> None:
    """Write equal-length float columns as a header line plus comma-separated rows.

    `formats` holds one ``%`` format per column, ``%.17g`` for each by default;
    the default bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",",
    comments="", newline="\\n")``.  The values formatted are Python floats, so
    ``%r`` gives the shortest text that reads back to the same float64.  Rows
    are stacked and formatted a block at a time, so neither a copy of the whole
    table nor a Python float list of it is built.
    """
    block_fmt = ",".join(formats or ["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
            fh.write(block_fmt * len(block) % tuple(block.ravel().tolist()))


def write_record(
    csv_path: str | Path,
    current: TimeRecord,
    voltage: TimeRecord | None = None,
    ocv_v: float | None = None,
) -> Path:
    """Write a paired record CSV plus its metadata sidecar; returns the CSV path.

    With no voltage record the voltage column is written as zeros.
    """
    csv_path = Path(csv_path)
    if voltage is not None:
        check_shared_grid(current, voltage)
    time_s = np.arange(current.n_samples) / current.sample_rate_hz
    volt = np.zeros_like(time_s) if voltage is None else voltage.samples
    write_csv(csv_path, CSV_HEADER, (time_s, current.samples, volt), _RECORD_FORMATS)

    meta = {key: getattr(current, key) for key in RECORD_GRID}
    if ocv_v is not None:
        meta["ocv_v"] = ocv_v
    dump(sidecar_path(csv_path), meta)
    return csv_path


def read_record(csv_path: str | Path) -> tuple[TimeRecord, TimeRecord, dict]:
    """Read a record CSV and its sidecar; returns (current, voltage, metadata), each
    sample column copied out of the (N, 3) parse table, which is freed on return."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise SchemaError(f"record file not found: {csv_path}")
    # the sidecar and its samples per period, a ValueError unless whole
    meta, m = load(sidecar_path(csv_path), SIDECAR_SCHEMA, "metadata sidecar", lambda d: (
        d, samples_per_period(float(d["period_s"]), float(d["sample_rate_hz"]))))
    fs, period_s = float(meta["sample_rate_hz"]), float(meta["period_s"])
    expected = meta["periods"] * m
    # one row past the sidecar's count sizes the table in one allocation; a
    # longer file is read whole, so a wrong sidecar does not hide the true count
    table = read_csv(csv_path, CSV_HEADER, max_rows=expected + 1)
    if len(table) > expected:
        table = read_csv(csv_path, CSV_HEADER)
    if len(table) != expected:
        raise SchemaError(f"{csv_path}: {len(table)} data rows, metadata implies {expected}")
    bad = np.nonzero(np.abs(table[:, 0] - np.arange(expected) / fs) > _TIME_TOL_S)[0]
    if bad.size:  # its file line
        with open(csv_path, errors="replace") as fh:
            fh.readline()  # the header
            line, _ = next(itertools.islice(_data_lines(fh), bad[0], None))
        raise SchemaError(f"{csv_path}: non-uniform time column starting at row {line} "
                          f"(expected step {1.0 / fs})")
    return (TimeRecord(table[:, 1].copy(), fs, period_s),
            TimeRecord(table[:, 2].copy(), fs, period_s), meta)


def read_csv(path: str | Path, header: str, max_rows: int | None = None) -> np.ndarray:
    """Data rows of a CSV with the given header: one finite column per header field.

    The file is opened once and its header checked, then its data rows are
    parsed in one C call: a regular ``.csv`` file by its absolute name (a
    relative name such as ``http://host/t.csv`` would be fetched as a URL), any
    other from its lines, read once.  ``comments=None`` keeps ``#`` text in a
    field, so ``0.2,1.0,0.0 # note`` is malformed rather than silently truncated.  A
    file that fails the parse or the column and finiteness checks goes to
    `_parse_rows`, which raises a SchemaError naming the file line; a
    header-only file gives an empty table.  With `max_rows`, the C parse reads
    only the first `max_rows` data rows, into a table allocated at that many
    rows unless the file is too short to hold them (a row of n fields takes at
    least 2n bytes).  A file that cannot be opened or read is a SchemaError naming it.
    """
    columns = header.count(",") + 1
    try:
        with open(path, errors="replace") as fh:
            found = fh.readline().strip()
            if found != header:
                raise SchemaError(f"{path}: expected header '{header}', got '{found}'")
            info = os.fstat(fh.fileno())
            if max_rows is not None and 2 * columns * max_rows > info.st_size:
                max_rows = None
            if stat.S_ISREG(info.st_mode) and os.fspath(path).endswith(".csv"):
                source, lines, skiprows = os.fspath(Path(path).absolute()), fh, 1
            else:
                source = lines = fh.readlines()
                skiprows = 0
            try:
                table = _loadtxt(source, max_rows, skiprows)
                if table.shape[1] == columns and np.isfinite(table).all():
                    return table
            except ValueError:  # a malformed row, or bytes numpy cannot decode
                pass
            return _parse_rows(path, header, lines)
    except FileNotFoundError as exc:
        raise SchemaError(f"file not found: {path}") from exc
    except OSError as exc:  # a directory, a file without read permission
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc


def _loadtxt(lines, max_rows: int | None = None, skiprows: int = 0) -> np.ndarray:
    """The C parse of data rows, for `read_csv` and for the lines `_parse_rows` doubts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=max_rows,
                          skiprows=skiprows)


def _data_lines(lines):
    """(file line, text) of each data row, given the lines after the header: each non-empty one."""
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if line:
            yield lineno, line


def _parse_rows(path: str | Path, header: str, lines) -> np.ndarray:
    """The one row-by-row parse of a table, given its lines after the header.

    Its SchemaErrors name the file line, and the column where there is one.
    It accepts no data row that ``np.loadtxt`` rejects, so it rejects by name
    what ``float()`` alone would read: digit separators (``1_0``), non-ASCII
    digits and undecodable bytes (read as U+FFFD); and whitespace-only lines.
    A row that ``float()`` rejects is kept if `_loadtxt` reads it.
    """
    names = header.split(",")
    rows = []
    for lineno, line in _data_lines(lines):
        where = f"{path}: row {lineno}"
        if not line.strip():
            raise SchemaError(f"{where} holds only whitespace")
        parts = line.split(",")
        if len(parts) != len(names):
            raise SchemaError(f"{where} has {len(parts)} fields, expected {len(names)}")
        for name, v in zip(names, parts):
            if "_" in v or not v.isascii():
                raise SchemaError(f"{where} {name} field {v.strip()!r} is not a plain "
                                  "ASCII number")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            try:  # the C parse strips some characters around a number that float() keeps
                values = _loadtxt([line])[0].tolist()
            except ValueError:
                raise SchemaError(f"{where} is not numeric: {exc}") from exc
        for name, x in zip(names, values):
            if not math.isfinite(x):
                raise SchemaError(f"{where} has a non-finite {name} value")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, len(names))
