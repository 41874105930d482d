"""CSV record files: `time_s,current_a,voltage_v` rows plus a JSON metadata sidecar.

The sidecar (``<name>.meta.json`` next to ``<name>.csv``) carries
sample_rate_hz, periods, period_s and an optional ocv_v; the first three are
checked against `SIDECAR_SCHEMA`, and other keys are kept as they are.  Values
are written with 17 significant digits so float64 samples round-trip exactly.

Tables are written by a block writer (`write_csv`): one ``%`` format per block
of rows, byte-identical to ``np.savetxt(fmt="%.17g", delimiter=",")``, and read
by `read_csv`: one C parse of the data rows (``np.loadtxt``), checked as a
whole.  Only when a record fails that parse or its checks is the file read
again row by row in Python, to name the offending file line and column.  The
row loop accepts no file that the bulk parse rejects.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .excitation import TimeRecord, samples_per_period
from .schema import POSITIVE_NUMBER, SCHEMA_VERSION, load

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
        for attr in ("sample_rate_hz", "periods", "period_s", "n_samples"):
            if getattr(current, attr) != getattr(voltage, attr):
                raise ValueError(f"current/voltage records disagree on {attr}")
    time_s = current.times()
    volt = np.zeros_like(time_s) if voltage is None else voltage.samples
    write_csv(csv_path, CSV_HEADER, (time_s, current.samples, volt))

    meta = {
        "schema_version": SCHEMA_VERSION,
        "sample_rate_hz": current.sample_rate_hz,
        "periods": current.periods,
        "period_s": current.period_s,
    }
    if ocv_v is not None:
        meta["ocv_v"] = ocv_v
    sidecar_path(csv_path).write_text(json.dumps(meta, indent=2) + "\n")
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
    try:
        table = read_csv(csv_path, CSV_HEADER)
        _check_table(csv_path, table, fs, expected, lambda i: i + 2)
    except SchemaError:
        table = _parse_rows(csv_path, fs, expected)
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
    rather than silently truncated.  Every failure is a SchemaError naming
    the file.
    """
    names = header.split(",")
    try:
        with open(path) as fh:
            _read_header(path, fh, header)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except FileNotFoundError as exc:
        raise SchemaError(f"file not found: {path}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: malformed CSV: {exc}") from exc
    if len(table) == 0:
        raise SchemaError(f"{path}: no data rows")
    if table.shape[1] != len(names):
        raise SchemaError(f"{path}: {table.shape[1]} columns, expected {len(names)} "
                          f"({header})")
    bad_row, bad_col = np.nonzero(~np.isfinite(table))
    if bad_row.size:
        raise SchemaError(f"{path}: data row {bad_row[0] + 1} has a non-finite "
                          f"{names[bad_col[0]]} value")
    return table


def _parse_rows(csv_path: Path, fs: float, expected: int) -> np.ndarray:
    """Row-by-row reference parse; its errors name the file line and column.

    It accepts no more than ``np.loadtxt`` does: fields with digit separators
    (``1_0``) or non-ASCII digits, which ``float()`` would read, and
    whitespace-only lines are rejected by name.  Only empty lines are skipped.
    """
    names = CSV_HEADER.split(",")
    with open(csv_path) as fh:
        _read_header(csv_path, fh, CSV_HEADER)
        rows = []
        blanks = []  # data rows read before each skipped blank line
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                blanks.append(len(rows))
                continue
            if not line.strip():
                raise SchemaError(f"{csv_path}: row {lineno} holds only whitespace")
            parts = line.split(",")
            if len(parts) != 3:
                raise SchemaError(f"{csv_path}: row {lineno} has {len(parts)} fields")
            for name, v in zip(names, parts):
                if "_" in v or not v.isascii():
                    raise SchemaError(
                        f"{csv_path}: row {lineno} {name} field {v.strip()!r} is not a "
                        "plain ASCII number"
                    )
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise SchemaError(f"{csv_path}: row {lineno} is not numeric: {exc}") from exc

    def file_row(i: int) -> int:
        return i + 2 + int(np.searchsorted(blanks, i, side="right"))

    table = np.asarray(rows, dtype=float).reshape(-1, 3)
    _check_table(csv_path, table, fs, expected, file_row)
    return table


def _check_table(csv_path: Path, table: np.ndarray, fs: float, expected: int,
                 file_row) -> None:
    """Check row count, finiteness and uniform time; `file_row` maps index to line."""
    if len(table) != expected:
        raise SchemaError(
            f"{csv_path}: {len(table)} data rows, metadata implies {expected}"
        )
    bad_row, bad_col = np.nonzero(~np.isfinite(table))
    if bad_row.size:
        raise SchemaError(
            f"{csv_path}: row {file_row(bad_row[0])} has a non-finite "
            f"{CSV_HEADER.split(',')[bad_col[0]]} value"
        )
    bad = np.nonzero(np.abs(table[:, 0] - np.arange(expected) / fs) > _TIME_TOL_S)[0]
    if bad.size:
        raise SchemaError(
            f"{csv_path}: non-uniform time column starting at row {file_row(bad[0])} "
            f"(expected step {1.0 / fs})"
        )
