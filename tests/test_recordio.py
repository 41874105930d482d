import json

import numpy as np
import pytest

from fracimp import SchemaError, read_record, write_record
from fracimp.recordio import sidecar_path

from conftest import make_multisine_current, simulate_pair


def _write_pair(tmp_path, **kwargs):
    spec, current, voltage = simulate_pair(make_multisine_current(**kwargs))
    path = write_record(tmp_path / "rec.csv", current, voltage, ocv_v=3.6)
    return path, current, voltage


_KW = dict(period_s=5.0, f_min_hz=0.2, f_max_hz=1.0, points_per_decade=4,
           sample_rate_hz=20.0, periods=2)


def test_round_trip_is_lossless(tmp_path):
    path, current, voltage = _write_pair(tmp_path, **_KW)
    current2, voltage2, meta = read_record(path)
    assert np.array_equal(current2.samples, current.samples)
    assert np.array_equal(voltage2.samples, voltage.samples)
    assert current2.sample_rate_hz == current.sample_rate_hz
    assert current2.periods == current.periods
    assert meta["ocv_v"] == 3.6


def test_missing_sidecar_errors(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    sidecar_path(path).unlink()
    with pytest.raises(SchemaError, match="sidecar"):
        read_record(path)


def test_row_count_mismatch_errors(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(SchemaError, match="rows"):
        read_record(path)


def test_bad_header_errors(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines[0] = "t,i,v"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="header"):
        read_record(path)


def test_non_uniform_time_names_first_bad_row(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[0] = str(float(fields[0]) + 0.01)
    lines[10] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row 11"):
        read_record(path)


def test_non_numeric_row_is_named(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines[5] = "0.2,nanana,0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row 6"):
        read_record(path)


@pytest.mark.parametrize("column, name", [(1, "current_a"), (2, "voltage_v")])
def test_non_finite_sample_names_row_and_column(tmp_path, column, name):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    fields = lines[7].split(",")
    fields[column] = "nan"
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=f"row 8 has a non-finite {name} value"):
        read_record(path)


@pytest.mark.parametrize("column, value, message", [
    (1, "nan", "row 12 has a non-finite current_a value"),
    (0, "0.123", "non-uniform time column starting at row 12 "),
])
def test_rows_after_a_blank_line_are_named_by_file_line(tmp_path, column, value, message):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines.insert(3, "")  # blank file line 4
    fields = lines[11].split(",")  # file line 12
    fields[column] = value
    lines[11] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=message):
        read_record(path)


def test_metadata_must_be_valid_json(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    sidecar_path(path).write_text("{not json")
    with pytest.raises(SchemaError, match="metadata"):
        read_record(path)


def test_current_only_record_writes_zero_voltage(tmp_path):
    spec, current = make_multisine_current(**_KW)
    path = write_record(tmp_path / "i.csv", current)
    _, voltage, meta = read_record(path)
    assert np.all(voltage.samples == 0.0)
    assert "ocv_v" not in meta
    assert json.loads(sidecar_path(path).read_text())["schema_version"] == "1"
