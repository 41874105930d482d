"""CSV record files: `time_s,current_a,voltage_v` rows plus a JSON metadata sidecar.

The sidecar (``<name>.meta.json`` next to ``<name>.csv``) carries
sample_rate_hz, periods, period_s and an optional ocv_v; the first three are
checked against `SIDECAR_SCHEMA`, and other keys are kept as they are.  Values
are written with 17 significant digits so float64 samples round-trip exactly.

Tables are written by a block writer (`write_csv`): one ``%`` format per block
of rows, byte-identical to ``np.savetxt(fmt="%.17g", delimiter=",")``.  Every
CSV table, a record or a `compare` input, is read by `read_csv`: one C parse
of the data rows (``np.loadtxt``), checked as a whole.  Only a file that
fails is read again, by the one row-by-row parse (`_parse_rows`), whose
errors name the file line and column.  It accepts no file with data rows
that the C parse rejects.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .excitation import TimeRecord, check_shared_grid, samples_per_period
from .schema import POSITIVE_NUMBER, dump, load

CSV_HEADER = "time_s,current_a,voltage_v"
_TIME_TOL_S = 1e-9
_BLOCK_ROWS = 8192

SIDECAR_SCHEMA = {
    "type": "object",
    "properties": {
        "sample_rate_hz": POSITIVE_NUMBER,
        "period_s": POSITIVE_NUMBER,
        "periods": {"type": "integer", "minimum": 1},
    },
    "required": ["sample_rate_hz", "period_s", "periods"],
}


def sidecar_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_csv(path: str | Path, header: str, columns) -> None:
    """Write equal-length float columns as a header line plus `%.17g` rows.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",",
    comments="", newline="\\n")``; rows are formatted a block at a time, so no
    Python float list of the whole table is built.
    """
    table = np.column_stack(columns)
    block_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
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
    time_s = current.times()
    volt = np.zeros_like(time_s) if voltage is None else voltage.samples
    write_csv(csv_path, CSV_HEADER, (time_s, current.samples, volt))

    meta = {
        "sample_rate_hz": current.sample_rate_hz,
        "periods": current.periods,
        "period_s": current.period_s,
    }
    if ocv_v is not None:
        meta["ocv_v"] = ocv_v
    dump(sidecar_path(csv_path), meta)
    return csv_path


def read_record(csv_path: str | Path) -> tuple[TimeRecord, TimeRecord, dict]:
    """Read a record CSV and its sidecar; returns (current, voltage, metadata)."""
    csv_path = Path(csv_path)
    meta_path = sidecar_path(csv_path)
    if not csv_path.exists():
        raise SchemaError(f"record file not found: {csv_path}")
    meta = load(meta_path, SIDECAR_SCHEMA, "metadata sidecar")
    try:
        fs = float(meta["sample_rate_hz"])
        periods = int(meta["periods"])
        period_s = float(meta["period_s"])
        expected = periods * samples_per_period(period_s, fs)
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"invalid metadata sidecar {meta_path}: {exc}") from exc
    table = read_csv(csv_path, CSV_HEADER)
    if len(table) != expected:
        raise SchemaError(f"{csv_path}: {len(table)} data rows, metadata implies {expected}")
    bad = np.nonzero(np.abs(table[:, 0] - np.arange(expected) / fs) > _TIME_TOL_S)[0]
    if bad.size:
        line = _parse_rows(csv_path, CSV_HEADER)[1][bad[0]]
        raise SchemaError(f"{csv_path}: non-uniform time column starting at row {line} "
                          f"(expected step {1.0 / fs})")
    current = TimeRecord(samples=table[:, 1], sample_rate_hz=fs, periods=periods,
                         period_s=period_s, kind="current")
    voltage = TimeRecord(samples=table[:, 2], sample_rate_hz=fs, periods=periods,
                         period_s=period_s, kind="voltage")
    return current, voltage, meta


def _read_header(path: str | Path, fh, header: str) -> None:
    found = fh.readline().strip()
    if found != header:
        raise SchemaError(f"{path}: expected header '{header}', got '{found}'")


def read_csv(path: str | Path, header: str) -> np.ndarray:
    """Data rows of a CSV with the given header: one finite column per header field.

    The data rows are parsed in one C call.  ``comments=None`` keeps ``#``
    text in a field, so a row such as ``0.2,1.0,0.0 # note`` is malformed
    rather than silently truncated.  A file that fails the parse or the
    column and finiteness checks goes to `_parse_rows`, which raises a
    SchemaError naming the file line; a header-only file gives an empty table.
    """
    try:
        with open(path) as fh:
            _read_header(path, fh, header)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] == header.count(",") + 1 and np.isfinite(table).all():
            return table
    except FileNotFoundError as exc:
        raise SchemaError(f"file not found: {path}") from exc
    except ValueError:  # a malformed row, or undecodable bytes
        pass
    return _parse_rows(path, header)[0]


def _parse_rows(path: str | Path, header: str) -> tuple[np.ndarray, list[int]]:
    """The one row-by-row parse: the table and the file line of each row.

    Its SchemaErrors name the file line, and the column where there is one.
    It accepts no data row that ``np.loadtxt`` rejects, so it rejects by name
    what ``float()`` alone would read: digit separators (``1_0``), non-ASCII
    digits and undecodable bytes (read as U+FFFD); and whitespace-only lines.
    Only empty lines are skipped.
    """
    names = header.split(",")
    rows, lines = [], []
    with open(path, errors="replace") as fh:
        _read_header(path, fh, header)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
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
                raise SchemaError(f"{where} is not numeric: {exc}") from exc
            for name, x in zip(names, values):
                if not math.isfinite(x):
                    raise SchemaError(f"{where} has a non-finite {name} value")
            rows.append(values)
            lines.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, len(names)), lines
