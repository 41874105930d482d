"""The input checker against a frozen table of jsonschema 4.26 verdicts.

Each row is (schema, input, verdict), where the verdict is what
``jsonschema.validate`` (Draft 2020-12, the default without ``$schema``)
returned for that input.  The checker must agree on every row, except that
it also rejects numbers outside the float range: NaN and infinities, which
Python's ``json`` reads from ``NaN`` and ``Infinity``, and integers beyond
``sys.float_info.max``, which it reads at any size; jsonschema accepts all of
them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracimp
from fracimp import cli
from fracimp.errors import SchemaError
from fracimp.schema import check, load

NAN, INF = float("nan"), float("inf")
HUGE, MAX = 10**400, int(sys.float_info.max)

SCHEMAS = {
    "design": cli.DESIGN_SCHEMA,
    "randles": cli.RANDLES_SCHEMA,
    "simulate": cli.SIMULATE_SCHEMA,
    "estimate": cli.ESTIMATE_SCHEMA,
    "eis": cli.ESTIMATE_SCHEMA,  # eis takes the estimate config
    "multisine": cli.MULTISINE_SCHEMA,
    "rational": cli.RATIONAL_SCHEMA,
}

D = {"period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": 2.0, "points_per_decade": 8}
R = {"r_s_ohm": 0.551, "r_ct_ohm": 0.119, "c_dl_f": 1.464, "sigma_w_ohm_per_sqrt_s": 0.0346}
X = {"type": "multisine", "f_min_hz": 0.05, "f_max_hz": 2.0, "points_per_decade": 8}
S = {"excitation": X, "period_s": 20.0, "sample_rate_hz": 20.0, "periods": 3, "rms_a": 0.5,
     "randles": R}
M = {"period_s": 20.0, "harmonics": [1, 3], "amplitudes": [1.0, 0.5], "phases": [0.0, 1.0]}
E = {"a": [1.0, 0.07, 0.17], "b": [0.05, 0.67, 0.04, 0.1]}

JSONSCHEMA_VERDICTS = [
    ("design", D, True),
    ("design", {**D, "seed": 0, "rms_a": 0.5, "sample_rate_hz": 20.0, "periods": 2}, True),
    ("design", {**D, "points_per_decade": 8.0}, True),
    ("design", {**D, "points_per_decade": 8.5}, False),
    ("design", {**D, "points_per_decade": True}, False),
    ("design", {**D, "points_per_decade": 0}, False),
    ("design", {**D, "period_s": 0}, False),
    ("design", {**D, "period_s": -1.0}, False),
    ("design", {**D, "period_s": 1e-300}, True),
    ("design", {**D, "period_s": "20"}, False),
    ("design", {**D, "period_s": True}, False),
    ("design", {**D, "period_s": None}, False),
    ("design", {"period_s": 20.0, "f_min_hz": 0.05, "points_per_decade": 8}, False),
    ("design", {**D, "seed": -1}, False),
    ("design", {**D, "seed": 3.0}, True),
    ("design", {**D, "seed": 10**30}, True),
    ("design", {**D, "colour": "red"}, False),
    ("design", [D], False),
    ("design", "design", False),
    ("design", {**D, "f_max_hz": NAN}, True),
    ("design", {**D, "period_s": INF}, True),
    ("randles", R, True),
    ("randles", {**R, "ocv_v": -3.6}, True),
    ("randles", {**R, "ocv_v": 0}, True),
    ("randles", {**R, "ocv_v": True}, False),
    ("randles", {**R, "r_s_ohm": 0}, False),
    ("randles", {**R, "r_s_ohm": 0.0}, False),
    ("randles", {"r_s_ohm": 0.551, "r_ct_ohm": 0.119, "sigma_w_ohm_per_sqrt_s": 0.0346}, False),
    ("randles", {**R, "r_l_ohm": 1.0}, False),
    ("randles", {**R, "ocv_v": -INF}, True),
    ("randles", {**R, "c_dl_f": NAN}, True),
    ("simulate", S, True),
    ("simulate", {**S, "snr": 50.0, "seed": 1}, True),
    ("simulate", {**S, "periods": 3.0}, True),
    ("simulate", {**S, "periods": 0}, False),
    ("simulate", {**S, "snr": 0}, False),
    ("simulate", {**S, "excitation": {"type": "noise"}}, True),
    ("simulate", {**S, "excitation": {"type": "sine"}}, False),
    ("simulate", {**S, "excitation": {"type": None}}, False),
    ("simulate", {**S, "excitation": {"f_min_hz": 0.05, "f_max_hz": 2.0,
                                      "points_per_decade": 8}}, False),
    ("simulate", {**S, "excitation": {**X, "phase": 0.0}}, False),
    ("simulate", {**S, "excitation": {**X, "multisine_path": 5}}, False),
    ("simulate", {**S, "excitation": {"type": "multisine", "multisine_path": "ms.json"}}, True),
    ("simulate", {**S, "randles": {**R, "extra": 1}}, False),
    ("simulate", {**S, "randles": {**R, "r_ct_ohm": -0.1}}, False),
    ("simulate", {k: v for k, v in S.items() if k != "randles"}, False),
    ("simulate", {**S, "excitation": "multisine"}, False),
    ("simulate", {**S, "snr": INF}, True),
    ("simulate", {**S, "rms_a": NAN}, True),
    ("estimate", {}, True),
    ("estimate", {"n_a": 3, "n_b": 3, "n_r": 1, "iterations": 10}, True),
    ("estimate", {"excited_bins": [1, 3, 5]}, True),
    ("estimate", {"excited_bins": []}, True),
    ("estimate", {"excited_bins": [0]}, False),
    ("estimate", {"excited_bins": [1.0, 3]}, True),
    ("estimate", {"excited_bins": [1, 2.5]}, False),
    ("estimate", {"excited_bins": [True]}, False),
    ("estimate", {"excited_bins": "1,3"}, False),
    ("estimate", {"n_a": 0}, False),
    ("estimate", {"n_b": 0}, True),
    ("estimate", {"iterations": 0}, True),
    ("estimate", {"iterations": -1}, False),
    ("estimate", {"k_min": 0}, False),
    ("estimate", {"grid_points": 1}, False),
    ("estimate", {"column_scaling": True}, False),
    ("estimate", {"noise_whitening": False}, False),
    ("estimate", {"multisine_path": None}, False),
    ("estimate", {"k_max": INF}, False),
    ("eis", {}, True),
    # the retired detection_factor is an unknown key; these rows keep their
    # places so that the ids of the rows below stay stable
    ("eis", {"detection_factor": 100.0}, False),
    ("eis", {"detection_factor": 0}, False),
    ("eis", {"detection_factor": 1e-9}, False),
    ("eis", {"detection_factor": "100"}, False),
    ("eis", {"multisine_path": "ms.json"}, True),
    ("eis", {"multisine_path": None}, False),
    ("eis", {"threshold": 3}, False),
    ("eis", {"detection_factor": NAN}, False),
    ("eis", [], False),
    # new rows go at the end, so the ids (config<index>) of the rows above stay stable
    ("design", {**D, "sample_rate_hz": 20.0, "periods": 2}, True),
    ("design", {**D, "sample_rate_hz": 20.0}, False),
    ("design", {**D, "periods": 2}, False),
    ("design", {**D, "rms_a": 0.5}, False),
    ("design", {**D, "rms_a": 0.5, "periods": 2}, False),
    ("estimate", {"n_a": 3, "n_b": 3, "n_r": 1, "iterations": 10, "grid_points": 200}, False),
    ("estimate", {"k_min": 1, "k_max": 2000}, True),
    ("estimate", {"k_min": 1}, False),
    ("estimate", {"k_max": 2000}, False),
    ("multisine", M, True),
    ("multisine", {**M, "schema_version": "1"}, True),
    ("multisine", {**M, "harmonics": [1.0, 3]}, True),
    ("multisine", {**M, "harmonics": [1.5, 3]}, False),
    ("multisine", {**M, "harmonics": [True, 3]}, False),
    ("multisine", {**M, "harmonics": [0, 3]}, False),
    ("multisine", {**M, "period_s": "20"}, False),
    ("multisine", {**M, "amplitudes": ["1.0", "0.5"]}, False),
    ("multisine", {**M, "phases": 0.0}, False),
    ("multisine", {k: v for k, v in M.items() if k != "phases"}, False),
    ("multisine", {**M, "phases": [0.0, NAN]}, True),
    ("rational", E, True),
    ("rational", {**E, "schema_version": "1", "c": [0.0], "sigma_e": None}, True),
    ("rational", {**E, "a": ["1", "0.07", "0.17"]}, False),
    ("rational", {**E, "b": [True, 0.67]}, False),
    ("rational", {**E, "a": 1.0}, False),
    ("rational", {"a": [1.0]}, False),
    ("rational", [E], False),
    ("rational", {**E, "b": [INF]}, True),
    ("design", {**D, "period_s": HUGE}, True),
    ("design", {**D, "points_per_decade": HUGE}, True),
    ("design", {**D, "seed": HUGE}, True),
    ("design", {**D, "seed": -HUGE}, False),
    ("design", {**D, "period_s": MAX}, True),
    ("design", {**D, "period_s": MAX + 1}, True),
    ("randles", {**R, "ocv_v": -HUGE}, True),
    ("randles", {**R, "r_s_ohm": -HUGE}, False),
    ("multisine", {**M, "harmonics": [1, HUGE]}, True),
    ("rational", {**E, "b": [HUGE]}, True),
    ("estimate", {"k_min": 1, "k_max": HUGE}, True),
]


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


def _accepts(name, config) -> bool:
    try:
        check(config, SCHEMAS[name], "config")
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("name,config,verdict", JSONSCHEMA_VERDICTS)
def test_checker_matches_frozen_jsonschema_verdicts(name, config, verdict):
    assert _accepts(name, config) == (verdict and _all_finite(config))


def test_frozen_table_covers_both_verdicts_and_every_schema():
    assert len(JSONSCHEMA_VERDICTS) >= 40
    assert {name for name, _, _ in JSONSCHEMA_VERDICTS} == set(SCHEMAS)
    assert {verdict for _, _, verdict in JSONSCHEMA_VERDICTS} == {True, False}
    assert sum(not _all_finite(c) for _, c, v in JSONSCHEMA_VERDICTS if v) >= 5


@pytest.mark.parametrize("config,message", [
    ({**S, "randles": {**R, "r_s_ohm": 0}}, "randles.r_s_ohm must be > 0"),
    ({**S, "excitation": {**X, "phase": 0.0}}, "unknown key excitation.phase"),
    ({**S, "excitation": {"f_min_hz": 0.05}}, "missing required key excitation.type"),
    ({**S, "excitation": {"type": "sine"}}, "excitation.type must be one of"),
    ({**S, "periods": 2.5}, "periods must be of type integer, got 2.5"),
    ({**S, "snr": INF}, "snr must be a finite number"),
    ([S], "top level must be of type object"),
])
def test_errors_name_the_key_path(config, message):
    with pytest.raises(SchemaError, match="^config x.json: " + message.replace(".", r"\.")):
        check(config, cli.SIMULATE_SCHEMA, "config x.json")


def test_dependent_keys_are_named():
    with pytest.raises(SchemaError, match="^config: missing key k_max, required with k_min$"):
        check({"k_min": 1}, cli.ESTIMATE_SCHEMA, "config")


# EstimationConfig's whole-number fields, which an estimate config sets by the
# same names, and the least value of each
ESTIMATE_LEAST = {"n_a": 1, "n_b": 0, "n_r": 0, "iterations": 0}


def test_estimate_schema_is_pinned():
    assert cli.ESTIMATE_SCHEMA == {
        "type": "object",
        "properties": {
            "n_a": {"type": "integer", "minimum": 1},
            "n_b": {"type": "integer", "minimum": 0},
            "n_r": {"type": "integer", "minimum": 0},
            "iterations": {"type": "integer", "minimum": 0},
            "k_min": {"type": "integer", "minimum": 1},
            "k_max": {"type": "integer", "minimum": 1},
            "excited_bins": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "multisine_path": {"type": "string"},
        },
        "dependentRequired": {"k_min": ["k_max"], "k_max": ["k_min"]},
        "additionalProperties": False,
    }


@pytest.mark.parametrize("key", ESTIMATE_LEAST)
@pytest.mark.parametrize("offset,accepted", [(0, True), (-1, False), (1.0, True), (0.5, False),
                                             (NAN, False)])
def test_estimate_schema_and_config_agree_on_each_count(key, offset, accepted):
    least = ESTIMATE_LEAST[key]
    value = least + offset
    if accepted:
        checked = check({key: value}, cli.ESTIMATE_SCHEMA, "config")[key]
        built = getattr(fracimp.EstimationConfig(**{key: value}), key)
        assert type(checked) is type(built) is int
        assert checked == built == value
        return
    with pytest.raises(SchemaError) as schema_info:
        check({key: value}, cli.ESTIMATE_SCHEMA, "config")
    with pytest.raises(ValueError) as config_info:
        fracimp.EstimationConfig(**{key: value})
    if offset == -1:
        assert str(schema_info.value) == f"config: {key} must be >= {least}, got {value}"
        assert str(config_info.value) == f"{key} must be >= {least}"


@pytest.mark.parametrize("text,problem", [
    (None, "No such file or directory"),
    ("{", "not valid JSON: Expecting property name"),
    ('{"snr": 50}', "missing required key excitation"),
])
def test_load_names_the_file_and_the_cause(tmp_path, text, problem):
    path = tmp_path / "x.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SchemaError, match=f"^invalid config {re.escape(str(path))}: {problem}"):
        load(path, cli.SIMULATE_SCHEMA, "config")


def test_load_reports_a_build_value_error_naming_the_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": [0.0]}')

    def build(value):
        raise ValueError(f"a_1 must be nonzero, got {value['a'][0]}")

    with pytest.raises(SchemaError) as info:
        load(path, {"type": "object"}, "estimate file", build)
    assert str(info.value) == f"invalid estimate file {path}: a_1 must be nonzero, got 0.0"
    assert load(path, {"type": "object"}, "estimate file", lambda v: v["a"]) == [0.0]


def test_load_reports_a_build_linalg_error_like_any_value_error(tmp_path):
    # numpy's LinAlgError is a ValueError: a `build` that raises one has refused the file
    path = tmp_path / "x.json"
    path.write_text("{}")

    def build(value):
        raise np.linalg.LinAlgError("Singular matrix")

    with pytest.raises(SchemaError) as info:
        load(path, {"type": "object"}, "estimate file", build)
    assert str(info.value) == f"invalid estimate file {path}: Singular matrix"


def test_load_passes_a_schema_error_through_without_building(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": "1", "b": [1.0]}')
    built = []
    with pytest.raises(SchemaError) as info:
        load(path, cli.RATIONAL_SCHEMA, "estimate file", built.append)
    assert str(info.value) == f"invalid estimate file {path}: a must be of type array, got '1'"
    assert built == []


def test_array_items_are_named_by_index():
    with pytest.raises(SchemaError, match=r"excited_bins\[1\] must be >= 1, got 0"):
        check({"excited_bins": [3, 0]}, cli.ESTIMATE_SCHEMA, "config")


def test_cli_import_loads_no_jsonschema_or_scipy():
    code = ("import sys, fracimp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'scipy')))")
    src = str(Path(fracimp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
