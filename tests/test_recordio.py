import gzip
import json
import os
import re
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


@pytest.mark.parametrize("extra", [1, 3])
def test_longer_record_reports_its_true_row_count(tmp_path, extra):
    path, *_ = _write_pair(tmp_path, **_KW)
    last = path.read_text().splitlines()[-1]
    with open(path, "a") as fh:
        fh.write((last + "\n") * extra)
    with pytest.raises(SchemaError, match=f"{200 + extra} data rows, metadata implies 200"):
        read_record(path)


def test_sidecar_claiming_more_rows_than_the_file_holds_reports_the_count(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    meta = json.loads(sidecar_path(path).read_text())
    sidecar_path(path).write_text(json.dumps({**meta, "periods": 10**12}))
    with mock.patch.object(recordio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        with pytest.raises(SchemaError, match="200 data rows, metadata implies 100000000000000"):
            read_record(path)
    assert loadtxt.call_args.kwargs["max_rows"] is None


def test_record_table_is_read_at_its_final_size(tmp_path):
    path, current, _ = _write_pair(tmp_path, **_KW)
    with mock.patch.object(recordio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        current2, _, _ = read_record(path)
    assert loadtxt.call_count == 1
    assert loadtxt.call_args.kwargs["max_rows"] == current.n_samples + 1
    assert np.array_equal(current2.samples, current.samples)


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


def test_a_wrong_time_is_named_without_the_row_parse(tmp_path, monkeypatch):
    # the C parse reads every row, so finding the wrong time's file line
    # needs no second, row-by-row parse of the whole file
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    lines.insert(3, "")  # blank file line 4
    lines[11] = ",".join(["0.123", *lines[11].split(",")[1:]])  # file line 12
    path.write_text("\n".join(lines) + "\n")

    def no_row_parse(*args):
        raise AssertionError("the row parse ran")

    monkeypatch.setattr(recordio, "_parse_rows", no_row_parse)
    with pytest.raises(SchemaError, match="non-uniform time column starting at row 12 "):
        read_record(path)


def test_a_separator_the_c_parse_strips_does_not_hide_a_later_error(tmp_path):
    # float() rejects "1.0\x1c" and np.loadtxt reads it, so row 5 is no error
    # and the wrong time at row 12 is blamed
    path, *_ = _write_pair(tmp_path, **_KW)
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")  # file line 5
    fields[1] += "\x1c"
    lines[4] = ",".join(fields)
    fields = lines[11].split(",")  # file line 12
    fields[0] = "0.123"
    lines[11] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="non-uniform time column starting at row 12 "):
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


def _repr_first_bytes(path, header, table):
    """A table whose first column is Python's float repr of each value and whose
    others are as ``np.savetxt`` writes them at ``%.17g``."""
    rest = _savetxt_bytes(path, header, table[:, 1:]).decode().split("\n")[1:-1]
    rows = (f"{x!r},{row}\n" for x, row in zip(table[:, 0].tolist(), rest))
    return (header + "\n" + "".join(rows)).encode()


@pytest.mark.parametrize("paired", [True, False])
@pytest.mark.parametrize("rows", [_BLOCK_ROWS, _BLOCK_ROWS + 1, 1])
def test_writer_bytes_equal_savetxt(tmp_path, rows, paired):
    # a record's time column is in its shortest round-trip form, every other
    # column and every other table at savetxt's %.17g
    rng = np.random.default_rng(rows)
    samples = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-300, 300, (2, rows))
    specials = np.array([-0.0, 5e-324, 1e300, -1e300])
    k = min(rows, specials.size)
    samples[0, :k] = specials[:k]
    samples[1, :k] = specials[::-1][:k]
    fs = 1000.0
    current, voltage = (TimeRecord(x, fs, rows / fs) for x in samples)
    volt = voltage.samples if paired else np.zeros(rows)
    path = write_record(tmp_path / "rec.csv", current, voltage if paired else None)
    reference = np.column_stack([np.arange(rows) / fs, current.samples, volt])
    assert path.read_bytes() == _repr_first_bytes(tmp_path / "ref.csv", CSV_HEADER, reference)

    write_csv(tmp_path / "two.csv", "a,b", (current.samples, volt))
    assert (tmp_path / "two.csv").read_bytes() == _savetxt_bytes(
        tmp_path / "ref2.csv", "a,b", np.column_stack([current.samples, volt]))
    # the special values in the repr column too
    write_csv(tmp_path / "repr.csv", "a,b", (current.samples, volt), ("%r", "%.17g"))
    assert (tmp_path / "repr.csv").read_bytes() == _repr_first_bytes(
        tmp_path / "ref3.csv", "a,b", np.column_stack([current.samples, volt]))


@pytest.mark.parametrize("fs", [200.0, 1024.0, 48_000.0])
def test_record_round_trip_writes_time_in_its_shortest_form(tmp_path, fs):
    n = 3 * _BLOCK_ROWS + 5
    rng = np.random.default_rng(int(fs))
    current, voltage = (TimeRecord(rng.standard_normal(n) * scale, fs, n / fs)
                        for scale in (0.5, 1e-3))
    path = write_record(tmp_path / "rec.csv", current, voltage)
    current2, voltage2, _ = read_record(path)
    assert current2.samples.tobytes() == current.samples.tobytes()
    assert voltage2.samples.tobytes() == voltage.samples.tobytes()
    fields = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [f[0] for f in fields] == [repr(k / fs) for k in range(n)]
    assert [f[1:] for f in fields] == [["%.17g" % i, "%.17g" % v] for i, v in
                                       zip(current.samples.tolist(), voltage.samples.tolist())]


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
    # float() rejects these separators around a number, np.loadtxt strips them
    **{f"padding {ord(c):#x}": _set_field(lambda v, c=c: f"{c}{v}{c}")
       for c in "\x1c\x1d\x1e\x1f"},
}


def _read_by_rows(path):
    """`read_record` with every table read by the row parse alone."""
    def by_rows(path, header, max_rows=None):
        with open(path, errors="replace") as fh:
            fh.readline()  # the header, which no mutation touches
            return recordio._parse_rows(path, header, fh)

    with mock.patch.object(recordio, "read_csv", by_rows):
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


def test_a_table_is_parsed_by_its_absolute_name(tmp_path, monkeypatch):
    # np.loadtxt reads a str name in large chunks, and an open handle a line at a time
    path, current, _ = _write_pair(tmp_path, **_KW)
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(recordio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        current2, _, _ = read_record("rec.csv")
    assert loadtxt.call_count == 1
    assert loadtxt.call_args.args == (str(path),)
    assert loadtxt.call_args.kwargs["skiprows"] == 1
    assert np.array_equal(current2.samples, current.samples)


_TABLE_HEADER = "freq_hz,re_ohm,im_ohm"


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_tables_under_compressed_looking_names_read_as_under_csv(tmp_path, suffix):
    # np.loadtxt decompresses a name with these suffixes that it opens itself
    path, current, voltage = _write_pair(tmp_path, **_KW)
    renamed = path.rename(path.with_suffix(suffix))
    current2, voltage2, _ = read_record(renamed)
    assert current2.samples.tobytes() == current.samples.tobytes()
    assert voltage2.samples.tobytes() == voltage.samples.tobytes()

    table = np.column_stack([np.arange(1.0, 6.0), current.samples[:5], voltage.samples[:5]])
    write_csv(tmp_path / "eis.csv", _TABLE_HEADER, table.T)
    write_csv(tmp_path / f"eis{suffix}", _TABLE_HEADER, table.T)
    assert (recordio.read_csv(tmp_path / f"eis{suffix}", _TABLE_HEADER).tobytes()
            == recordio.read_csv(tmp_path / "eis.csv", _TABLE_HEADER).tobytes()
            == table.tobytes())


def test_a_regular_table_under_another_name_is_parsed_from_its_lines(tmp_path):
    # only a .csv name goes to np.loadtxt, which might otherwise decompress it
    table = np.column_stack([np.arange(1.0, 6.0), np.linspace(0.1, 0.5, 5), np.full(5, -0.3)])
    write_csv(tmp_path / "eis.csv", _TABLE_HEADER, table.T)
    write_csv(tmp_path / "eis.txt", _TABLE_HEADER, table.T)
    with mock.patch.object(recordio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        from_lines = recordio.read_csv(tmp_path / "eis.txt", _TABLE_HEADER)
    assert loadtxt.call_count == 1
    assert isinstance(loadtxt.call_args.args[0], list)
    assert from_lines.tobytes() == recordio.read_csv(tmp_path / "eis.csv", _TABLE_HEADER).tobytes()


def test_a_gzip_compressed_record_fails_its_header_check(tmp_path):
    path, *_ = _write_pair(tmp_path, **_KW)
    gz = path.with_suffix(".gz")
    gz.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    message = f"{gz}: expected header '{CSV_HEADER}', got "
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_record(gz)


def test_a_url_looking_name_reads_the_local_file(tmp_path, monkeypatch):
    (tmp_path / "http:" / "host").mkdir(parents=True)
    write_csv(tmp_path / "http:" / "host" / "t.csv", _TABLE_HEADER, ([1.0, 2.0], [3.0, 4.0],
                                                                     [5.0, 6.0]))
    monkeypatch.chdir(tmp_path)
    with mock.patch("urllib.request.urlopen", side_effect=AssertionError("a download")):
        table = recordio.read_csv("http://host/t.csv", _TABLE_HEADER)
    assert table.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_table_from_a_pipe_is_read_through_its_handle(tmp_path):
    # opening the pipe's name again would not see the rows the header read consumed
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(f"{_TABLE_HEADER}\n1,3,5\n2,4,6\n")
    try:
        table = recordio.read_csv(f"/dev/fd/{read_end}", _TABLE_HEADER)
    finally:
        os.close(read_end)
    assert table.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_bad_row_in_a_pipe_is_named():
    # the row parse reads the rest of the same open pipe, not the drained name
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(f"{_TABLE_HEADER}\n1,3,5\n1,x,6\n")
    message = f"/dev/fd/{read_end}: row 3 is not numeric: could not convert string to float: 'x'"
    try:
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            recordio.read_csv(f"/dev/fd/{read_end}", _TABLE_HEADER)
    finally:
        os.close(read_end)


def test_a_malformed_table_is_opened_once(tmp_path):
    # np.loadtxt opens the name through the `open` that numpy kept at import,
    # which the mock does not replace, so the count is of the reader's own opens
    path = tmp_path / "eis.csv"
    path.write_text(f"{_TABLE_HEADER}\n1,3,5\n1,x,6\n")
    with mock.patch("builtins.open", wraps=open) as opened:
        with pytest.raises(SchemaError, match=re.escape(f"{path}: row 3 is not numeric")):
            recordio.read_csv(path, _TABLE_HEADER)
    assert opened.call_count == 1


def test_a_max_rows_the_file_cannot_hold_is_not_allocated(tmp_path):
    # a row of three fields takes at least 6 bytes, so a file of S bytes holds
    # at most S // 6 rows; a larger max_rows would size the table from no data
    path = tmp_path / "eis.csv"
    write_csv(path, _TABLE_HEADER, ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]))
    most = path.stat().st_size // 6
    for max_rows, expected in ((most, most), (most + 1, None), (10**15, None)):
        with mock.patch.object(recordio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            table = recordio.read_csv(path, _TABLE_HEADER, max_rows=max_rows)
        assert table.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
        assert loadtxt.call_args.kwargs["max_rows"] == expected


def test_a_table_that_cannot_be_opened_is_named(tmp_path):
    (tmp_path / "eis.csv").mkdir()
    message = f"{tmp_path / 'eis.csv'}: Is a directory"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        recordio.read_csv(tmp_path / "eis.csv", _TABLE_HEADER)
