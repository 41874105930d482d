import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimp import SchemaError, TimeRecord, read_record, recordio, write_record
from fracimp.recordio import CSV_HEADER, _BLOCK_ROWS, sidecar_path, write_csv

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


def test_header_only_record_errors_without_a_parser_warning(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    path.write_text(CSV_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="0 data rows, metadata implies 200"):
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


def test_row_with_trailing_comment_is_rejected(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines[5] += " # note"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row 6 is not numeric"):
        read_record(path)


@pytest.mark.parametrize("column, value, name", [
    (1, "1_0", "current_a"),
    (2, "\uff11.5", "voltage_v"),
])
def test_field_only_float_reads_is_rejected_naming_row_and_column(tmp_path, column, value, name):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[column] = value
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=f"row 6 {name} field .* is not a plain ASCII number"):
        read_record(path)


def test_whitespace_only_line_is_rejected_naming_the_row(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines.insert(3, " \t ")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row 4 holds only whitespace"):
        read_record(path)


def test_undecodable_bytes_are_rejected_naming_row_and_column(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b",", b",\xff", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SchemaError, match="row 6 current_a field .* is not a plain ASCII number"):
        read_record(path)


def test_overflowing_sidecar_is_rejected_naming_the_sidecar(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    meta = json.loads(sidecar_path(path).read_text())
    sidecar_path(path).write_text(json.dumps({**meta, "sample_rate_hz": 1e200,
                                              "period_s": 1e200}))
    with pytest.raises(SchemaError, match="invalid metadata sidecar .*not a finite sample count"):
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


def _savetxt_bytes(path, header, table):
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="",
               newline="\n")
    return path.read_bytes()


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("rows", [_BLOCK_ROWS, _BLOCK_ROWS + 1, 1])
def test_writer_bytes_equal_savetxt(tmp_path, rows, paired):
    rng = np.random.default_rng(rows)
    samples = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-300, 300, (2, rows))
    specials = np.array([-0.0, 5e-324, 1e300, -1e300])
    k = min(rows, specials.size)
    samples[0, :k] = specials[:k]
    samples[1, :k] = specials[::-1][:k]
    fs = 1000.0
    current, voltage = (TimeRecord(samples=x, sample_rate_hz=fs, periods=1,
                                   period_s=rows / fs, kind=kind)
                        for x, kind in zip(samples, ("current", "voltage")))
    volt = voltage.samples if paired else np.zeros(rows)
    path = write_record(tmp_path / "rec.csv", current, voltage if paired else None)
    reference = np.column_stack([np.arange(rows) / fs, current.samples, volt])
    assert path.read_bytes() == _savetxt_bytes(tmp_path / "ref.csv", CSV_HEADER, reference)

    write_csv(tmp_path / "two.csv", "a,b", (current.samples, volt))
    assert (tmp_path / "two.csv").read_bytes() == _savetxt_bytes(
        tmp_path / "ref2.csv", "a,b", np.column_stack([current.samples, volt]))


_FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                                          "\uff15\uff16\uff17\uff18\uff19")


def _set_field(value, only=None):
    def mutate(line, field):
        parts = line.split(",")
        field = field if only is None else only
        parts[field] = value(parts[field])
        return [",".join(parts)]
    return mutate


# each mutation maps (data line, field index) to the lines that replace it
_MUTATIONS = {
    "non-numeric": _set_field(lambda v: "abc"),
    "underscore": _set_field(lambda v: "1_0"),
    "full-width digit": _set_field(lambda v: v.translate(_FULL_WIDTH)),
    "extra field": lambda line, field: [line + ",0"],
    "missing field": lambda line, field: [line.rsplit(",", 1)[0]],
    "trailing comma": lambda line, field: [line + ","],
    "blank line": lambda line, field: ["", line],
    "whitespace-only line": lambda line, field: [" \t ", line],
    "crlf ending": lambda line, field: [line + "\r"],
    "comment": lambda line, field: [line + " # note"],
    "nan": _set_field(lambda v: "nan"),
    "inf": _set_field(lambda v: "-inf"),
    "time jitter within tolerance": _set_field(lambda v: repr(float(v) + 5e-10), only=0),
    "time jitter": _set_field(lambda v: repr(float(v) + 2e-9), only=0),
    "padding spaces": _set_field(lambda v: f"  {v} "),
}


def _read_by_rows(path):
    """`read_record` with the C parse failing, so every row goes through the row parse."""
    with mock.patch.object(recordio.np, "loadtxt", side_effect=ValueError("forced")):
        return read_record(path)


@pytest.fixture(scope="module")
def clean_record(tmp_path_factory):
    path, *_ = _write_pair(tmp_path_factory.mktemp("fuzz"), **_KW)
    return path, path.read_text().splitlines()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_MUTATIONS)), lineno=st.integers(1, 200),
       field=st.integers(0, 2))
def test_fast_read_matches_row_loop_on_a_mutated_row(clean_record, name, lineno, field):
    path, lines = clean_record
    mutated = lines[:lineno] + _MUTATIONS[name](lines[lineno], field) + lines[lineno + 1:]
    path.write_text("\n".join(mutated) + "\n")

    try:
        ref_current, ref_voltage, _ = _read_by_rows(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            read_record(path)
        assert str(got.value) == str(exc)
    else:
        current, voltage, _ = read_record(path)
        assert np.array_equal(current.samples, ref_current.samples)
        assert np.array_equal(voltage.samples, ref_voltage.samples)
        # no mutated file loads through the row loop alone
        with mock.patch.object(recordio, "_parse_rows", side_effect=AssertionError("row loop")):
            read_record(path)
