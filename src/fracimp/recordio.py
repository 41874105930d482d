"""CSV record files: `time_s,current_a,voltage_v` rows plus a JSON metadata sidecar.

The sidecar (``<name>.meta.json`` next to ``<name>.csv``) carries
sample_rate_hz, periods, period_s and optional soc_percent / ocv_v.  Values
are written with 17 significant digits so float64 samples round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .excitation import TimeRecord

CSV_HEADER = "time_s,current_a,voltage_v"
_TIME_TOL_S = 1e-9


def sidecar_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_record(
    csv_path: str | Path,
    current: TimeRecord,
    voltage: TimeRecord | None = None,
    soc_percent: float | None = None,
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
    table = np.column_stack([time_s, current.samples, volt])
    np.savetxt(csv_path, table, fmt="%.17g", delimiter=",",
               header=CSV_HEADER, comments="", newline="\n")

    meta = {
        "schema_version": "1",
        "sample_rate_hz": current.sample_rate_hz,
        "periods": current.periods,
        "period_s": current.period_s,
    }
    if soc_percent is not None:
        meta["soc_percent"] = soc_percent
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
    if not meta_path.exists():
        raise SchemaError(f"metadata sidecar not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        fs = float(meta["sample_rate_hz"])
        periods = int(meta["periods"])
        period_s = float(meta["period_s"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid metadata sidecar {meta_path}: {exc}") from exc

    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise SchemaError(
                f"{csv_path}: expected header '{CSV_HEADER}', got '{header}'"
            )
        rows = []
        blanks = []  # data rows read before each skipped blank line
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                blanks.append(len(rows))
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise SchemaError(f"{csv_path}: row {lineno} has {len(parts)} fields")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise SchemaError(f"{csv_path}: row {lineno} is not numeric: {exc}") from exc

    expected = int(round(periods * period_s * fs))
    if len(rows) != expected:
        raise SchemaError(
            f"{csv_path}: {len(rows)} data rows, metadata implies {expected}"
        )

    def file_row(i: int) -> int:
        return i + 2 + int(np.searchsorted(blanks, i, side="right"))

    table = np.asarray(rows)
    bad_row, bad_col = np.nonzero(~np.isfinite(table))
    if bad_row.size:
        raise SchemaError(
            f"{csv_path}: row {file_row(bad_row[0])} has a non-finite "
            f"{CSV_HEADER.split(',')[bad_col[0]]} value"
        )
    time_s = table[:, 0]
    ideal = np.arange(expected) / fs
    bad = np.nonzero(np.abs(time_s - ideal) > _TIME_TOL_S)[0]
    if bad.size:
        raise SchemaError(
            f"{csv_path}: non-uniform time column starting at row {file_row(bad[0])} "
            f"(expected step {1.0 / fs})"
        )

    current = TimeRecord(samples=table[:, 1], sample_rate_hz=fs, periods=periods,
                         period_s=period_s, kind="current")
    voltage = TimeRecord(samples=table[:, 2], sample_rate_hz=fs, periods=periods,
                         period_s=period_s, kind="voltage")
    return current, voltage, meta
