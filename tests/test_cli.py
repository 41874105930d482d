import ast
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracimp import cli
from fracimp.cli import main
from fracimp.estimator import EstimationConfig, nonparametric_impedance, wtls_estimate
from fracimp.recordio import read_record, write_csv, write_record
from fracimp.spectra import per_period_spectra

from conftest import SIM_PARAMS

RANDLES_JSON = {
    "r_s_ohm": 0.551,
    "r_ct_ohm": 0.119,
    "c_dl_f": 1.464,
    "sigma_w_ohm_per_sqrt_s": 0.0346,
    "ocv_v": 3.6,
}

SIM_CONFIG = {
    "excitation": {"type": "multisine", "f_min_hz": 0.05, "f_max_hz": 2.0,
                   "points_per_decade": 8},
    "period_s": 20.0,
    "sample_rate_hz": 20.0,
    "periods": 3,
    "rms_a": 0.5,
    "randles": RANDLES_JSON,
    "seed": 77,
}

_HUGE = 10**400  # json reads an integer of any size; no float holds this one
_DESIGN_CONFIG = {"period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": 2.0, "points_per_decade": 8,
                  "seed": 5, "rms_a": 0.5, "sample_rate_hz": 20.0, "periods": 2}


def _json(tmp_path, name, payload):
    """`payload` written to tmp_path / name, with "{tmp}" in it standing for tmp_path."""
    path = tmp_path / name
    path.write_text(json.dumps(payload).replace("{tmp}", str(tmp_path)))
    return str(path)


def _run_simulate(tmp_path, out="sim", extra=None):
    cfg = dict(SIM_CONFIG)
    if extra:
        cfg.update(extra)
    config = _json(tmp_path, "sim.json", cfg)
    out_dir = tmp_path / out
    assert main(["simulate", "--config", config, "--out", str(out_dir), "--quiet"]) == 0
    return out_dir


def test_design_writes_spec_and_optional_current(tmp_path, capsys):
    config = _json(tmp_path, "design.json", {
        "period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": 2.0,
        "points_per_decade": 8, "seed": 5,
        "rms_a": 0.5, "sample_rate_hz": 20.0, "periods": 2,
    })
    out = tmp_path / "design"
    assert main(["design", "--config", config, "--out", str(out), "--quiet"]) == 0
    spec = json.loads((out / "multisine.json").read_text())
    assert spec["schema_version"] == "1"
    assert all(k % 2 == 1 for k in spec["harmonics"])
    rows = (out / "current.csv").read_text().splitlines()
    assert rows[0] == "time_s,current_a,voltage_v"
    assert len(rows) == 1 + 20 * 20 * 2

    # without sample_rate_hz and periods: the spec alone
    config = _json(tmp_path, "design.json", {
        "period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": 2.0, "points_per_decade": 8, "seed": 5})
    out = tmp_path / "spec_only"
    assert main(["design", "--config", config, "--out", str(out)]) == 0
    assert [path.name for path in out.iterdir()] == ["multisine.json"]
    assert (out / "multisine.json").read_bytes() == \
        (tmp_path / "design" / "multisine.json").read_bytes()
    assert capsys.readouterr().out == f"designed {len(spec['harmonics'])} odd harmonics in " \
        f"[0.05, 1.95] Hz -> {out / 'multisine.json'}\n"


def test_full_pipeline_noiseless_recovery(tmp_path):
    out = _run_simulate(tmp_path)
    est_cfg = _json(tmp_path, "est.json", {
        "multisine_path": str(out / "multisine.json"),
        "iterations": 10,
    })
    est_out = tmp_path / "est"
    assert main(["estimate", "--record", str(out / "record.csv"),
                 "--config", est_cfg, "--out", str(est_out), "--quiet"]) == 0
    estimate = json.loads((est_out / "estimate.json").read_text())
    from fracimp import randles_to_rational
    truth = randles_to_rational(SIM_PARAMS)
    assert np.asarray(estimate["a"]) == pytest.approx(truth.a, rel=1e-6)
    assert np.asarray(estimate["b"]) == pytest.approx(truth.b, rel=1e-6)

    fit_out = tmp_path / "fit"
    assert main(["fit", "--estimate", str(est_out / "estimate.json"),
                 "--out", str(fit_out), "--quiet"]) == 0
    fitted = json.loads((fit_out / "fit.json").read_text())
    assert fitted["params"]["r_s_ohm"] == pytest.approx(0.551, rel=1e-6)
    assert fitted["converged"] is True


def test_pipeline_is_byte_deterministic(tmp_path):
    out1 = _run_simulate(tmp_path, out="a", extra={"snr": 50.0})
    out2 = _run_simulate(tmp_path, out="b", extra={"snr": 50.0})
    assert (out1 / "record.csv").read_bytes() == (out2 / "record.csv").read_bytes()
    assert (out1 / "multisine.json").read_bytes() == (out2 / "multisine.json").read_bytes()

    for sub, out in (("ea", out1), ("eb", out2)):
        assert main(["estimate", "--record", str(out / "record.csv"),
                     "--out", str(tmp_path / sub), "--quiet"]) == 0
    assert ((tmp_path / "ea" / "estimate.json").read_bytes()
            == (tmp_path / "eb" / "estimate.json").read_bytes())
    assert ((tmp_path / "ea" / "bode.csv").read_bytes()
            == (tmp_path / "eb" / "bode.csv").read_bytes())


def test_seed_flag_overrides_config(tmp_path):
    for command, base in (("design", _DESIGN_CONFIG), ("simulate", {**SIM_CONFIG, "snr": 20.0})):
        outputs = {}
        for name, seed, flag in (("config", 123, []), ("flag", 5, ["--seed", "123"]),
                                 ("unflagged", 5, [])):
            config = _json(tmp_path, f"{command}-{name}.json", {**base, "seed": seed})
            out = tmp_path / command / name
            assert main([command, "--config", config, "--out", str(out), *flag, "--quiet"]) == 0
            outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert outputs["flag"] == outputs["config"] != outputs["unflagged"]


@pytest.mark.parametrize("command", ["design", "simulate"])
def test_fractional_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    config = _json(tmp_path, "c.json", _DESIGN_CONFIG if command == "design" else SIM_CONFIG)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), "--seed", "2.5", "--quiet"]) == 1
    assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: '2.5'\n")
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [
    ("estimate", ["--record", "r.csv"]),
    ("eis", ["--record", "r.csv"]),
    ("fit", ["--estimate", "e.json"]),
    ("compare", ["--nonpar", "n.csv", "--par", "p.csv"]),
])
def test_seed_flag_is_a_usage_error_where_no_rng_runs(capsys, command, extra):
    assert main([command, *extra, "--seed", "3", "--quiet"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_eis_detects_excited_bins_and_matches_model(tmp_path):
    out = _run_simulate(tmp_path)
    eis_out = tmp_path / "eis"
    eis_cfg = _json(tmp_path, "est.json", {"multisine_path": str(out / "multisine.json")})
    assert main(["eis", "--record", str(out / "record.csv"), "--config", eis_cfg,
                 "--out", str(eis_out), "--quiet"]) == 0
    table = np.loadtxt(eis_out / "eis.csv", delimiter=",", skiprows=1)
    spec = json.loads((out / "multisine.json").read_text())
    assert table.shape[0] == len(spec["harmonics"])
    from fracimp import randles_impedance
    z = randles_impedance(SIM_PARAMS, 2 * np.pi * table[:, 0])
    assert table[:, 1] + 1j * table[:, 2] == pytest.approx(z, rel=1e-9)


def test_compare_produces_small_errors_on_noiseless_data(tmp_path):
    out = _run_simulate(tmp_path)
    est_cfg = _json(tmp_path, "est.json", {"multisine_path": str(out / "multisine.json")})
    assert main(["estimate", "--record", str(out / "record.csv"),
                 "--config", est_cfg, "--out", str(tmp_path / "est"), "--quiet"]) == 0
    assert main(["eis", "--record", str(out / "record.csv"), "--config", est_cfg,
                 "--out", str(tmp_path / "eis"), "--quiet"]) == 0
    assert main(["compare", "--nonpar", str(tmp_path / "eis" / "eis.csv"),
                 "--par", str(tmp_path / "est" / "bode.csv"),
                 "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    err = np.loadtxt(tmp_path / "cmp" / "error.csv", delimiter=",", skiprows=1, ndmin=2)
    assert err.shape[0] > 0
    assert err[:, 1].max() < 1e-8


def _compare_by_argmin(f_np, z_np, f_par, z_par):
    """Reference matching: argmin over the whole parametric grid, row by row."""
    from fracimp import ImpedanceCurve, relative_error_curve
    idx_np, idx_par = [], []
    for i, f in enumerate(f_np):
        j = np.argmin(np.abs(f_par - f))
        if abs(f_par[j] - f) <= 1e-9 * max(f, 1.0):
            idx_np.append(i)
            idx_par.append(j)
    err = relative_error_curve(ImpedanceCurve(f_np[idx_np], z_np[idx_np]),
                               ImpedanceCurve(f_par[idx_par], z_par[idx_par]))
    return f_np[idx_np], err


def _compare_files(tmp_path, f_np, z_np, f_par, mag, phase_deg):
    nonpar, par, expected = tmp_path / "eis.csv", tmp_path / "bode.csv", tmp_path / "ref.csv"
    write_csv(nonpar, "freq_hz,re_ohm,im_ohm", (f_np, z_np.real, z_np.imag))
    write_csv(par, "freq_hz,mag_ohm,phase_deg", (f_par, mag, phase_deg))
    # the reference reads the tables back, so it sees the values compare sees
    f_np, re, im = np.loadtxt(nonpar, delimiter=",", skiprows=1, ndmin=2).T
    f_par, mag, phase_deg = np.loadtxt(par, delimiter=",", skiprows=1, ndmin=2).T
    write_csv(expected, "freq_hz,rel_error", _compare_by_argmin(
        f_np, re + 1j * im, f_par, mag * np.exp(1j * np.radians(phase_deg))))
    assert main(["compare", "--nonpar", str(nonpar), "--par", str(par),
                 "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    return (tmp_path / "cmp" / "error.csv").read_bytes(), expected.read_bytes()


def test_compare_matches_rows_as_argmin_does(tmp_path):
    """Unsorted grid: duplicates go to their first row, exact ties to the earlier row."""
    eps = 2.0**-40  # exact distances, well inside the 1e-9 tolerance
    f_par = np.array([3.0, 1.0 + eps, 2.0, 1.0 - eps, 2.0, 7.0, 6.0 - 4 * eps, 0.5,
                      6.0 + 4 * eps, 7.0, 5.0])
    mag = 1.0 + np.arange(f_par.size)  # a distinct impedance per row shows which row matched
    f_np = np.array([2.0, 1.0, 0.5 * (1 + 1e-12), 4.0, 7.0 * (1 + 1e-12), 6.0, 3.0,
                     5.0 * (1 - 1e-12), 0.1, 9.0])
    z_np = 2.0 + 0.5j
    got, expected = _compare_files(tmp_path, f_np, np.full(f_np.size, z_np), f_par, mag,
                                   np.zeros(f_par.size))
    assert got == expected
    # rows 2 (first 2.0), 1 (tie, above), 7, 5 (first 7.0, from below), 6 (tie, below),
    # 0 and 10 matched; 4.0, 0.1 and 9.0 did not
    rows = np.loadtxt(tmp_path / "cmp" / "error.csv", delimiter=",", skiprows=1)
    assert rows[:, 1] == pytest.approx(np.abs(z_np - mag[[2, 1, 7, 5, 6, 0, 10]]) / abs(z_np))


def test_compare_matches_argmin_on_random_grids(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(20):
        grid = 0.01 * rng.integers(1, 60, size=40) * (1 + rng.choice([0, 1e-12, -1e-12], 40))
        f_par, f_np = rng.choice(grid, rng.integers(1, 30)), rng.choice(grid, rng.integers(1, 30))
        z_np = rng.standard_normal(f_np.size) + 1j * rng.standard_normal(f_np.size)
        out = tmp_path / str(trial)
        out.mkdir()
        if not _compare_by_argmin(f_np, z_np, f_par, np.ones(f_par.size))[0].size:
            continue  # no shared frequency: exit 1, covered elsewhere
        got, expected = _compare_files(out, f_np, z_np, f_par, 1.0 + rng.random(f_par.size),
                                       rng.uniform(-90, 90, f_par.size))
        assert got == expected


@pytest.mark.filterwarnings("always::UserWarning")
def test_single_period_estimate_falls_back(tmp_path, capsys):
    out = _run_simulate(tmp_path, extra={"periods": 1})
    code = main(["estimate", "--record", str(out / "record.csv"),
                 "--out", str(tmp_path / "est"), "--quiet"])
    assert code == 0
    # one line on stderr, --quiet or not, with no file, line number or source
    assert capsys.readouterr().err == ("warning: noise covariances unavailable (single "
                                       "period); falling back to unweighted total least "
                                       "squares\n")
    payload = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert payload["iterations_run"] == 0
    assert payload["sigma_e"] is None


@pytest.mark.filterwarnings("always::UserWarning")
def test_mask_bins_outside_the_window_warn_on_one_stderr_line(tmp_path, capsys):
    out = _run_simulate(tmp_path)
    harmonics = json.loads((out / "multisine.json").read_text())["harmonics"]
    est_cfg = _json(tmp_path, "est.json", {"excited_bins": harmonics, "k_min": 1,
                                           "k_max": harmonics[-3]})
    for command in ("estimate", "eis"):
        assert main([command, "--record", str(out / "record.csv"), "--config", est_cfg,
                     "--out", str(tmp_path / command), "--quiet"]) == 0
        assert capsys.readouterr().err == (f"warning: 2 of {len(harmonics)} mask bins outside "
                                           "the window\n")


def test_estimate_reaches_the_top_bin_of_an_odd_record(tmp_path):
    # M = 20 s * 20.05 Hz = 401 samples per period has no Nyquist bin, so bin 200 is usable
    out = _run_simulate(tmp_path, extra={"excitation": {"type": "noise"},
                                         "sample_rate_hz": 20.05})
    config = _json(tmp_path, "est.json", {"k_min": 1, "k_max": 200})
    assert main(["estimate", "--record", str(out / "record.csv"), "--config", config,
                 "--out", str(tmp_path / "est"), "--quiet"]) == 0
    bode = np.loadtxt(tmp_path / "est" / "bode.csv", delimiter=",", skiprows=1)
    assert bode[-1, 0] == 200 / 20.0


def test_a_warning_that_the_filters_make_an_error_propagates(tmp_path):
    out = _run_simulate(tmp_path, extra={"periods": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="unweighted"):
            main(["estimate", "--record", str(out / "record.csv"),
                  "--out", str(tmp_path / "est"), "--quiet"])


@pytest.mark.parametrize("snr, iterations, converged, line", [
    (50.0, 10, True, "{iterations_run} weighted iterations, converged) -> "),
    (50.0, 1, False, "1 weighted iterations, not converged) -> "),
    (None, 10, None, "0 weighted iterations) -> "),
])
def test_estimate_reports_whether_the_reweighting_converged(tmp_path, capsys, snr, iterations,
                                                            converged, line):
    out = _run_simulate(tmp_path, extra={"snr": snr} if snr else None)
    est_cfg = _json(tmp_path, "est.json", {"multisine_path": str(out / "multisine.json"),
                                           "iterations": iterations})
    assert main(["estimate", "--record", str(out / "record.csv"), "--config", est_cfg,
                 "--out", str(tmp_path / "est")]) == 0
    payload = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert payload["converged"] is converged
    assert payload["iterations_run"] <= iterations
    assert line.format(**payload) in capsys.readouterr().out


def test_noiseless_when_snr_omitted(tmp_path):
    # with a fixed multisine file and no snr key, the seed cannot matter
    out = _run_simulate(tmp_path)
    fixed = {**SIM_CONFIG,
             "excitation": {"type": "multisine",
                            "multisine_path": str(out / "multisine.json")}}
    outs = []
    for name, seed in (("n1", 1), ("n2", 999)):
        config = _json(tmp_path, f"sim_{name}.json", {**fixed, "seed": seed})
        target = tmp_path / name
        assert main(["simulate", "--config", config, "--out", str(target),
                     "--quiet"]) == 0
        outs.append((target / "record.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulation_protocol_row_count(tmp_path):
    # 5 periods of 200 s at 200 Hz: 200 000 data rows
    config = _json(tmp_path, "sim6.json", {
        "excitation": {"type": "noise"},
        "period_s": 200.0, "sample_rate_hz": 200.0, "periods": 5,
        "rms_a": 0.5, "randles": RANDLES_JSON, "seed": 6,
    })
    out = tmp_path / "sim6"
    assert main(["simulate", "--config", config, "--out", str(out), "--quiet"]) == 0
    with open(out / "record.csv") as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert n_rows == 200_000


@pytest.mark.filterwarnings("always::UserWarning")
def test_estimate_and_eis_agree_on_a_record_whose_current_vanishes(tmp_path, capsys):
    # the rule warns before it raises, so this is no `_EXIT_1` row
    record = _run_simulate(tmp_path, extra={"snr": 50.0}) / "record.csv"
    current, voltage, meta = read_record(record)
    write_record(record, current.with_samples(np.zeros(current.n_samples)), voltage,
                 ocv_v=meta["ocv_v"])
    out = tmp_path / "out"
    for command in ("estimate", "eis"):
        assert main([command, "--record", str(record), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr() == (
            "", "warning: skipping 199 excited bin(s) with vanishing current spectrum\n"
                "error: all excited bins have vanishing current spectrum\n")
    assert not out.exists()


def test_estimate_with_explicit_excited_bins(tmp_path):
    out = _run_simulate(tmp_path)
    spec = json.loads((out / "multisine.json").read_text())
    est_cfg = _json(tmp_path, "est.json", {"excited_bins": spec["harmonics"]})
    est_out = tmp_path / "est"
    assert main(["estimate", "--record", str(out / "record.csv"),
                 "--config", est_cfg, "--out", str(est_out), "--quiet"]) == 0
    estimate = json.loads((est_out / "estimate.json").read_text())
    assert estimate["a"][0] == 1.0
    nyquist = (est_out / "nyquist.csv").read_text().splitlines()
    assert nyquist[0] == "re_ohm,neg_im_ohm"


def test_usage_error_exit_1():
    assert main(["no-such-command"]) == 1
    assert main(["estimate"]) == 1  # missing --record


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_numerical_failure_exit_2(tmp_path, monkeypatch):
    from fracimp.errors import NumericsError

    est = tmp_path / "estimate.json"
    est.write_text(json.dumps({"a": [1.0, 0.07, 0.17],
                               "b": [0.05, 0.67, 0.04, 0.1]}))

    def boom(*args, **kwargs):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli, "fit_randles", boom)
    assert main(["fit", "--estimate", str(est), "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("command, stage", [("estimate", "wtls_estimate"), ("fit", "fit_randles")])
def test_a_linear_algebra_failure_exits_2(tmp_path, monkeypatch, capsys, command, stage):
    # np.linalg.LinAlgError is a ValueError, which neither main nor the
    # estimate file's loader may claim as an input error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    if command == "estimate":
        argv = ["--record", str(_run_simulate(tmp_path) / "record.csv")]
    else:
        argv = ["--estimate", _json(tmp_path, "estimate.json",
                                    {"a": [1.0, 0.07, 0.17], "b": [0.05, 0.67, 0.04, 0.1]})]
    monkeypatch.setattr(cli, stage, singular)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"
    assert not out.exists()


def test_fit_inconsistent_coefficients_exit_2(tmp_path, capsys):
    from fracimp import randles_to_rational

    truth = randles_to_rational(SIM_PARAMS)
    # a_3 inflated tenfold: the closed-form start implies a negative R_s;
    # b_0 < 0: the start rejects the coefficients before solving for it
    for a, b in ((truth.a * [1.0, 1.0, 10.0], truth.b), (truth.a, truth.b * [-1.0, 1, 1, 1])):
        est = _json(tmp_path, "estimate.json", {"a": a.tolist(), "b": b.tolist()})
        out = tmp_path / "fit"
        assert main(["fit", "--estimate", est, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == \
            "numerical failure: coefficients inconsistent with Randles structure\n"
        assert not out.exists()


def test_fit_prints_parameter_table(tmp_path, capsys):
    est = tmp_path / "estimate.json"
    from fracimp import randles_to_rational
    truth = randles_to_rational(SIM_PARAMS)
    est.write_text(json.dumps({"a": truth.a.tolist(), "b": truth.b.tolist()}))
    assert main(["fit", "--estimate", str(est), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "R_CT" in out and "omega_res" in out
    # the longest label, "sigma [ohm/sqrt(s)]", sets the label column of every
    # row, so each value ends under the header's "value"
    header, *rows, _ = out.splitlines()
    end = header.index("value") + len("value")
    assert header.startswith("parameter ") and len(header) == end
    assert len(rows) == 5 and [len(row) for row in rows] == [end] * 5


def test_a_fitted_circuit_simulates_as_the_randles_block(tmp_path):
    # fit.json's params is keyed as a randles block, with ocv_v 0.0 (no OCV is fitted)
    out = _run_simulate(tmp_path)
    est = tmp_path / "est"
    assert main(["estimate", "--record", str(out / "record.csv"), "--out", str(est),
                 "--quiet"]) == 0
    assert main(["fit", "--estimate", str(est / "estimate.json"), "--out", str(est),
                 "--quiet"]) == 0
    params = json.loads((est / "fit.json").read_text())["params"]
    assert params["ocv_v"] == 0.0
    config = _json(tmp_path, "refit.json", {**SIM_CONFIG, "randles": params})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "refit"),
                 "--quiet"]) == 0
    # noiseless: the refitted circuit gives the same response, less the OCV
    _, voltage, _ = read_record(out / "record.csv")
    _, refit, _ = read_record(tmp_path / "refit" / "record.csv")
    assert refit.samples == pytest.approx(voltage.samples - RANDLES_JSON["ocv_v"], abs=1e-9)


def test_fit_overflowing_trial_step_prints_no_warning(tmp_path, capsys):
    # a full Gauss-Newton step from this estimate's start overflows np.exp;
    # the step halving rejects it, and the trial's overflow stays silent
    est = _json(tmp_path, "estimate.json", {
        "a": [1.0, 2183.3502226694613, 0.08849290672680604],
        "b": [364.37650495546467, 0.014769707678956398, 4.2704305097017885,
              8.910607815728727e-05]})
    assert main(["fit", "--estimate", est, "--out", str(tmp_path / "fit")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "converged=True" in captured.out


def _run_noise_simulate(tmp_path):
    return _run_simulate(tmp_path, out="noise", extra={"excitation": {"type": "noise"},
                                                       "snr": 50.0})


def test_eis_and_compare_on_noise_excitation_share_every_bin(tmp_path):
    out = _run_noise_simulate(tmp_path)
    record = str(out / "record.csv")
    # 20 s at 20 Hz: bins 1..200, the last one Nyquist
    est_cfg = _json(tmp_path, "est.json", {"k_min": 1, "k_max": 199})
    assert main(["eis", "--record", record, "--config", est_cfg,
                 "--out", str(tmp_path / "eis"), "--quiet"]) == 0
    table = np.loadtxt(tmp_path / "eis" / "eis.csv", delimiter=",", skiprows=1)
    assert table.shape[0] == 199
    assert main(["estimate", "--record", record, "--config", est_cfg,
                 "--out", str(tmp_path / "est"), "--quiet"]) == 0
    assert main(["compare", "--nonpar", str(tmp_path / "eis" / "eis.csv"),
                 "--par", str(tmp_path / "est" / "bode.csv"),
                 "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    err = np.loadtxt(tmp_path / "cmp" / "error.csv", delimiter=",", skiprows=1)
    assert err.shape[0] == 199
    assert np.median(err[:, 1]) < 0.05  # 1.6 % at seed 77


@pytest.mark.parametrize("excitation", ["multisine", "noise"])
def test_eis_writes_the_bins_estimate_fits_and_compare_matches_them_all(tmp_path, excitation):
    if excitation == "noise":
        out = _run_noise_simulate(tmp_path)
        given = {"k_min": 3, "k_max": 150}
        est_cfg = EstimationConfig(bin_window=(3, 150))
    else:
        out = _run_simulate(tmp_path, extra={"snr": 50.0})
        given = {"multisine_path": str(out / "multisine.json")}
        spec = json.loads((out / "multisine.json").read_text())
        est_cfg = EstimationConfig(bin_mask=spec["harmonics"])
    record, config = str(out / "record.csv"), _json(tmp_path, "est.json", given)
    for command in ("estimate", "eis"):
        assert main([command, "--record", record, "--config", config,
                     "--out", str(out), "--quiet"]) == 0
    assert main(["compare", "--nonpar", str(out / "eis.csv"), "--par", str(out / "bode.csv"),
                 "--out", str(out), "--quiet"]) == 0

    current, voltage, _ = read_record(record)
    spectra = per_period_spectra(current, voltage)
    bins = wtls_estimate(spectra, est_cfg).bins
    expected = nonparametric_impedance(spectra, est_cfg)
    table = np.loadtxt(out / "eis.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], spectra.freq_hz[bins])
    np.testing.assert_array_equal(table[:, 1] + 1j * table[:, 2], expected.z_ohm)
    error = np.loadtxt(out / "error.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(error[:, 0], table[:, 0])


def test_estimate_with_zero_numerator_order(tmp_path):
    out = _run_simulate(tmp_path)
    est_cfg = _json(tmp_path, "est.json", {"n_a": 2, "n_b": 0})
    est_out = tmp_path / "est"
    assert main(["estimate", "--record", str(out / "record.csv"),
                 "--config", est_cfg, "--out", str(est_out), "--quiet"]) == 0
    estimate = json.loads((est_out / "estimate.json").read_text())
    assert len(estimate["a"]) == 2 and len(estimate["b"]) == 1
    # fit refuses these orders: the input error row "fit zero numerator"


def test_compare_matches_below_1_hz_within_1e_9_hz(tmp_path):
    # 5e-10 Hz apart: 1e-7 relative, yet within the absolute 1e-9 Hz below 1 Hz
    nonpar, par = tmp_path / "eis.csv", tmp_path / "bode.csv"
    nonpar.write_text("freq_hz,re_ohm,im_ohm\n0.005,1.0,0.0\n")
    par.write_text("freq_hz,mag_ohm,phase_deg\n0.0050000005,2.0,0.0\n")
    assert main(["compare", "--nonpar", str(nonpar), "--par", str(par),
                 "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    rows = np.loadtxt(tmp_path / "cmp" / "error.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.tolist() == [[0.005, 1.0]]


@pytest.mark.parametrize("order", ["n_a", "n_b", "n_r"])
def test_estimate_refuses_huge_orders_before_building_the_regressor(tmp_path, capsys, order):
    # 1e30 is a whole number to the schema; its columns would outnumber any record's rows
    record = str(_run_simulate(tmp_path) / "record.csv")
    config, out = _json(tmp_path, "est.json", {order: 1e30}), tmp_path / "out"
    start = time.perf_counter()
    assert main(["estimate", "--record", record, "--config", config,
                 "--out", str(out), "--quiet"]) == 1
    assert time.perf_counter() - start < 1.0
    columns = sum({"n_a": 3, "n_b": 3, "n_r": 1, order: int(1e30)}.values()) + 2
    # the default config takes bins 1..199, two rows each
    assert capsys.readouterr().err == (f"error: 398 stacked rows < {columns} columns; "
                                       "select more bins or reduce model orders\n")
    assert not out.exists()


def test_progress_line_without_quiet(tmp_path, capsys):
    config = _json(tmp_path, "design.json", {**_DESIGN_CONFIG, "periods": 1})
    out = tmp_path / "design"
    assert main(["design", "--config", config, "--out", str(out)]) == 0
    n = len(json.loads((out / "multisine.json").read_text())["harmonics"])
    assert capsys.readouterr().out == (
        f"designed {n} odd harmonics in [0.05, 1.95] Hz -> {out / 'multisine.json'}\n"
        f"synthesized 400 samples -> {out / 'current.csv'}\n")


@pytest.mark.parametrize("command,given", [
    ("design", {"periods": 2}),
    ("simulate", {"periods": 3}),
    ("simulate", {"seed": 1}),
    ("estimate", {"n_a": 3}),
    ("estimate", {"iterations": 10}),
    ("estimate", {"n_r": 1}),
    ("estimate", {"k_min": 1, "k_max": 20}),
    ("estimate", {"excited_bins": [1, 3, 5, 7, 9, 13, 17, 23, 31, 39]}),
])
def test_integer_keys_take_integer_valued_floats(tmp_path, command, given):
    base = {"design": _DESIGN_CONFIG, "simulate": SIM_CONFIG, "estimate": {}}[command]
    argv = []
    if command == "estimate":
        argv = ["--record", str(_run_simulate(tmp_path, extra={"snr": 50.0}) / "record.csv")]
    as_floats = {key: [float(v) for v in value] if isinstance(value, list) else float(value)
                 for key, value in given.items()}
    outputs = []
    for name, spelled in (("int", given), ("float", as_floats)):
        config, out = _json(tmp_path, f"{name}.json", {**base, **spelled}), tmp_path / name
        assert main([command, *argv, "--config", config, "--out", str(out), "--quiet"]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_quiet_silences_every_command(tmp_path, capsys):
    run = _run_simulate(tmp_path, extra={"snr": 50.0})
    argvs = [
        ["design", "--config", _json(tmp_path, "design.json", _DESIGN_CONFIG)],
        ["simulate", "--config", str(tmp_path / "sim.json")],
        ["estimate", "--record", str(run / "record.csv")],
        ["eis", "--record", str(run / "record.csv")],
        ["compare", "--nonpar", str(run / "eis.csv"), "--par", str(run / "bode.csv")],
        ["fit", "--estimate", str(run / "estimate.json")],
    ]
    for argv in argvs:
        assert main([*argv, "--out", str(run)]) == 0
        assert capsys.readouterr().out != ""
        assert main([*argv, "--out", str(run), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


def test_an_out_that_cannot_be_made_or_written_exits_1_naming_the_path(tmp_path, capsys):
    # a regular file where --out should be, and a directory where eis.csv should
    # be; the `_EXIT_1` rows require that --out does not exist, so these are no rows
    run = _run_simulate(tmp_path)
    config = _json(tmp_path, "c.json", {"multisine_path": str(run / "multisine.json")})
    (tmp_path / "afile").touch()
    (tmp_path / "e3" / "eis.csv").mkdir(parents=True)
    for command, out, path, reason in [("estimate", "afile", "afile", "File exists"),
                                       ("eis", "e3", "e3/eis.csv", "Is a directory")]:
        assert main([command, "--record", str(run / "record.csv"), "--config", config,
                     "--out", str(tmp_path / out), "--quiet"]) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / path}: {reason}\n")


def _function_spans() -> dict:
    """`FUNCTION_SPANS` of the benchmark worker, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "worker.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "FUNCTION_SPANS")


# the layer functions the benchmark's traced run rebinds on fracimp.cli to time
# each layer: a command that called one by another name would drop its span
_STAGES = list(_function_spans())


def test_every_stage_is_called_through_its_cli_module_global(tmp_path, monkeypatch):
    called = set()
    for name in _STAGES:
        def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    for excitation in (SIM_CONFIG["excitation"], {"type": "noise"}):
        run = _run_simulate(tmp_path, out=excitation["type"],
                            extra={"snr": 50.0, "excitation": excitation})
        record, out = str(run / "record.csv"), ["--out", str(run), "--quiet"]
        for command in ("estimate", "eis"):  # the default estimate config
            assert main([command, "--record", record, *out]) == 0
    assert main(["fit", "--estimate", str(tmp_path / "multisine" / "estimate.json"),
                 "--out", str(tmp_path / "fit"), "--quiet"]) == 0
    assert called == set(_STAGES)


# Input errors.  Every row of `_EXIT_1` is an argv builder, which writes the
# row's inputs under tmp_path, and the exact message of the one `error:` line
# that argv must print; `_assert_exit_1` checks each row's whole exit-1
# contract.  "{tmp}" in a message or a written JSON file stands for tmp_path,
# and the inputs take fixed names there: the config c.json, the multisine spec
# ms.json, the estimate file estimate.json, compare's eis.csv and bode.csv, and
# the simulated record sim/record.csv with its sidecar.

def _argv(command, *flags, config=None, spec=None, record=False):
    """A builder of [command, *flags], with `config` as --config c.json, `spec` in
    ms.json and, when `record`, a simulated --record."""
    def build(tmp_path):
        argv = [command, *flags]
        if record:
            argv += ["--record", str(_run_simulate(tmp_path) / "record.csv")]
        if spec is not None:
            _json(tmp_path, "ms.json", spec)
        if config is not None:
            argv += ["--config", _json(tmp_path, "c.json", config)]
        return argv
    return build


def _fit(coefficients):
    return lambda tmp_path: ["fit", "--estimate", _json(tmp_path, "estimate.json", coefficients)]


def _compare(nonpar_rows, par_rows):
    """A builder of compare on eis.csv and bode.csv, which hold the given rows
    after their headers; eis.csv is not written when `nonpar_rows` is None."""
    def build(tmp_path):
        nonpar, par = tmp_path / "eis.csv", tmp_path / "bode.csv"
        if nonpar_rows is not None:
            nonpar.write_text("freq_hz,re_ohm,im_ohm\n" + nonpar_rows)
        par.write_text("freq_hz,mag_ohm,phase_deg\n" + par_rows)
        return ["compare", "--nonpar", str(nonpar), "--par", str(par)]
    return build


def _sidecar(**changes):
    """A builder of estimate on a simulated record whose sidecar takes `changes`."""
    def build(tmp_path):
        argv = _argv("estimate", record=True)(tmp_path)
        meta = tmp_path / "sim" / "record.meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), **changes}))
        return argv
    return build


def _fractional_period(command):
    # 9 rows = 2 periods of 4.5 samples: the row count agrees, the period split cannot
    def build(tmp_path):
        write_csv(tmp_path / "rec.csv", "time_s,current_a,voltage_v",
                  (np.arange(9) / 3.0, np.ones(9), np.ones(9)))
        _json(tmp_path, "rec.meta.json", {"sample_rate_hz": 3.0, "periods": 2, "period_s": 1.5})
        return [command, "--record", str(tmp_path / "rec.csv")]
    return build


def _malformed_record(tmp_path):
    argv = _argv("estimate", record=True)(tmp_path)
    lines = (tmp_path / "sim" / "record.csv").read_text().splitlines()
    lines[3] = "bogus"
    (tmp_path / "sim" / "record.csv").write_text("\n".join(lines) + "\n")
    return argv


def _record_directory(tmp_path):
    # a directory rec.csv beside a valid sidecar
    _run_simulate(tmp_path)
    (tmp_path / "rec.csv").mkdir()
    (tmp_path / "rec.meta.json").write_text((tmp_path / "sim" / "record.meta.json").read_text())
    return ["estimate", "--record", str(tmp_path / "rec.csv")]


def _nonpar_directory(tmp_path):
    argv = _compare(None, "1.0,1.0,0.0\n")(tmp_path)
    (tmp_path / "eis.csv").mkdir()
    return argv


def _deep_config(tmp_path):
    # json.dumps of a value this deep recurses too, so the text is written directly
    (tmp_path / "c.json").write_text("[" * 100_000 + "]" * 100_000)
    return ["design", "--config", str(tmp_path / "c.json")]


def _infinite_snr(tmp_path):
    # Python's json reads Infinity; it used to write a silently noiseless record
    argv = _argv("simulate", config={**SIM_CONFIG, "snr": float("inf")})(tmp_path)
    assert "Infinity" in (tmp_path / "c.json").read_text()
    return argv


def _fit_zero_numerator(tmp_path):
    argv = _argv("estimate", "--out", str(tmp_path / "est"), "--quiet", record=True,
                 config={"n_a": 2, "n_b": 0})(tmp_path)
    assert main(argv) == 0
    return ["fit", "--estimate", str(tmp_path / "est" / "estimate.json")]


def _with_key(cfg: dict, key: str, value) -> dict:
    """A deep copy of `cfg` with `value` at the dotted key path `key`."""
    cfg = json.loads(json.dumps(cfg))
    *parents, name = key.split(".")
    node = cfg
    for parent in parents:
        node = node[parent]
    node[name] = value
    return cfg


_SPEC = {"period_s": 20.0, "harmonics": [1, 3], "amplitudes": [1.0, 0.5], "phases": [0.0, 1.0]}
_SPEC_MUTATIONS = {  # all but the last pass an int()/float() cast
    "fractional harmonic": ({"harmonics": [1.5, 3]},
                            "harmonics[0] must be of type integer, got 1.5"),
    "boolean harmonic": ({"harmonics": [True, 3]},
                         "harmonics[0] must be of type integer, got True"),
    "string period": ({"period_s": "20.0"}, "period_s must be of type number, got '20.0'"),
    "string amplitudes": ({"amplitudes": ["1.0", "0.5"]},
                          "amplitudes[0] must be of type number, got '1.0'"),
    "harmonic beyond int64": ({"harmonics": [1, 1e30]}, "harmonics must hold whole bin numbers"),
    "decreasing harmonics": ({"harmonics": [3, 1]},
                             "harmonics must be strictly increasing without duplicates"),
}
_MULTISINE_FROM_SPEC = {"type": "multisine", "multisine_path": "{tmp}/ms.json"}
_COEFFICIENTS = {"a": [1.0, 0.07, 0.17], "b": [0.05, 0.67, 0.04, 0.1]}


def _spec_argv(command, spec):
    """A builder of `command` reading `spec` from ms.json as its multisine_path."""
    if command == "simulate":
        return _argv(command, spec=spec, config={**SIM_CONFIG, "excitation": _MULTISINE_FROM_SPEC})
    return _argv(command, spec=spec, config={"multisine_path": "{tmp}/ms.json"}, record=True)


# test name -> row id -> (argv builder, message); a lone row of id None is an
# unparametrized test.  The ids of cases that were parametrized before this
# table keep their old spelling, pytest's own ids included, so a test id names
# the same check across versions.
_EXIT_1 = {
    "test_seed_flag_outside_the_seed_rule_exit_1_naming_the_flag": {
        f"negative-{command}": (_argv(command, "--seed", "-1", config=base),
                                "invalid option: --seed must be >= 0, got -1")
        for command, base in (("design", _DESIGN_CONFIG), ("simulate", SIM_CONFIG))
    },
    "test_design_synthesis_keys_come_together": {
        f"given{i}-{missing}": (
            _argv("design", config={**{key: _DESIGN_CONFIG[key] for key in (
                "period_s", "f_min_hz", "f_max_hz", "points_per_decade")}, **given}),
            f"invalid config {{tmp}}/c.json: missing key {missing}, required with {given_key}")
        for i, (given, missing, given_key) in enumerate([
            ({"sample_rate_hz": 20.0}, "periods", "sample_rate_hz"),
            ({"periods": 2}, "sample_rate_hz", "periods"),
            ({"rms_a": 0.5}, "sample_rate_hz", "rms_a"),
            ({"rms_a": 0.5, "sample_rate_hz": 20.0}, "periods", "sample_rate_hz"),
        ])
    },
    "test_bad_multisine_spec_exit_1_naming_file_and_key": {
        f"{command}-{name}": (_spec_argv(command, {**_SPEC, **change}),
                              f"invalid multisine spec {{tmp}}/ms.json: {problem}")
        for command in ("simulate", "estimate", "eis")
        for name, (change, problem) in _SPEC_MUTATIONS.items()
    },
    "test_simulate_period_mismatch_names_spec_and_config": {None: (
        _argv("simulate", spec=_SPEC,
              config={**SIM_CONFIG, "period_s": 40.0, "excitation": _MULTISINE_FROM_SPEC}),
        "multisine spec {tmp}/ms.json period_s 20.0 disagrees with config {tmp}/c.json "
        "period_s 40.0")},
    # 1e-11 relative is 5e-11 s at a 5 s period: under numpy's default 1e-8
    # absolute tolerance, yet a period the config does not have
    "test_simulate_period_check_is_relative": {None: (
        _argv("simulate", spec={**_SPEC, "period_s": 5.0 * (1 + 1e-11)},
              config={**SIM_CONFIG, "period_s": 5.0, "sample_rate_hz": 2.0,
                      "excitation": _MULTISINE_FROM_SPEC}),
        "multisine spec {tmp}/ms.json period_s 5.00000000005 disagrees with config "
        "{tmp}/c.json period_s 5.0")},
    "test_bad_estimate_file_exit_1_naming_file_and_key": {
        f"{key}-<lambda>-{id_problem}": (
            _fit({**_COEFFICIENTS, key: bad}),
            f"invalid estimate file {{tmp}}/estimate.json: {problem}")
        for key, bad, id_problem, problem in [
            ("a", ["1.0", "0.07", "0.17"], "a[0] must be of type number0",
             "a[0] must be of type number, got '1.0'"),
            ("a", [True, 0.07, 0.17], "a[0] must be of type number1",
             "a[0] must be of type number, got True"),
            ("b", 0.05, "b must be of type array", "b must be of type array, got 0.05"),
            ("a", [0.0, 0.07, 0.17], "a_1 must be nonzero", "a_1 must be nonzero"),
        ]
    },
    "test_estimate_rejects_retired_grid_points_key": {None: (
        _argv("estimate", config={"grid_points": 50}, record=True),
        "invalid config {tmp}/c.json: unknown key grid_points")},
    "test_compare_disjoint_grids_exit_1": {None: (
        _compare("1.0,1.0,0.0\n", "2.0,1.0,0.0\n"),
        "nonparametric and parametric grids share no frequencies")},
    "test_compare_rejects_bad_csv_naming_the_file": {
        f"{par_rows}-{id_problem}": (_compare("0.005,1.0,0.0\n", par_rows),
                                     f"{{tmp}}/bode.csv: {problem}")
        for par_rows, id_problem, problem in [
            ("0.005,1.0\n", "row 2 has 2 fields, expected 3", "row 2 has 2 fields, expected 3"),
            ("0.005,1,3 # x\n", "row 2 is not numeric",
             "row 2 is not numeric: could not convert string to float: '3 # x'"),
            ("0.005,nan,3\n", "row 2 has a non-finite mag_ohm value",
             "row 2 has a non-finite mag_ohm value"),
            ("", "no data rows", "no data rows"),
        ]
    },
    "test_compare_names_the_file_line": {
        f"lines{i}-{id_problem}": (_compare("\n".join(lines) + "\n", "1.0,1.0,0.0\n"),
                                   f"{{tmp}}/eis.csv: {problem}")
        for i, (lines, id_problem, problem) in enumerate([
            (["1.0,x,0.0", "2.0,1.0,0.0"], "row 2 is not numeric",
             "row 2 is not numeric: could not convert string to float: 'x'"),
            (["1.0,1.0,0.0", "2.0,1.0,0.0", "3.0,1.0"], "row 4 has 2 fields, expected 3",
             "row 4 has 2 fields, expected 3"),
            (["1.0,1.0,0.0", "2.0,nan,0.0"], "row 3 has a non-finite re_ohm value",
             "row 3 has a non-finite re_ohm value"),
            (["1.0,1.0,0.0", "", "2.0,nan,0.0"], "row 4 has a non-finite re_ohm value",
             "row 4 has a non-finite re_ohm value"),
        ])
    },
    "test_compare_missing_input_exit_1_naming_the_file": {None: (
        _compare(None, "1.0,1.0,0.0\n"), "file not found: {tmp}/eis.csv")},
    "test_schema_violation_exit_1": {None: (
        _argv("simulate", config={**SIM_CONFIG, "unexpected_key": 1}),
        "invalid config {tmp}/c.json: unknown key unexpected_key")},
    "test_infinite_snr_is_rejected_naming_the_key": {None: (
        _infinite_snr, "invalid config {tmp}/c.json: snr must be a finite number")},
    "test_nan_frequency_is_rejected_naming_the_key": {None: (
        _argv("design", config={"period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": float("nan"),
                                "points_per_decade": 8}),
        "invalid config {tmp}/c.json: f_max_hz must be a finite number")},
    "test_bad_sidecar_value_exit_1_naming_sidecar_and_key": {
        f"{key}-{value}-{problem}": (
            _sidecar(**{key: value}),
            f"invalid metadata sidecar {{tmp}}/sim/record.meta.json: {key} {problem}{got}")
        for key, value, problem, got in [
            ("period_s", float("inf"), "must be a finite number", ""),
            ("periods", 2.5, "must be of type integer", ", got 2.5"),
            ("sample_rate_hz", float("nan"), "must be a finite number", ""),
        ]
    },
    "test_overflowing_sidecar_exit_1_naming_sidecar": {None: (
        _sidecar(sample_rate_hz=1e200, period_s=1e200),
        "invalid metadata sidecar {tmp}/sim/record.meta.json: period_s*sample_rate_hz = inf "
        "is not a finite sample count per period that is a positive integer, so no record "
        "length is whole periods (period_s=1e+200, sample_rate_hz=1e+200)")},
    "test_fractional_period_sidecar_exit_1_naming_sidecar": {
        command: (_fractional_period(command),
                  "invalid metadata sidecar {tmp}/rec.meta.json: period_s*sample_rate_hz = 4.5 "
                  "is not a finite sample count per period that is a positive integer, so no "
                  "record length is whole periods (period_s=1.5, sample_rate_hz=3.0)")
        for command in ("estimate", "eis")
    },
    "test_sidecar_number_beyond_the_float_range_exit_1_naming_the_key": {
        key: (_sidecar(**{key: _HUGE}),
              f"invalid metadata sidecar {{tmp}}/sim/record.meta.json: {key} must be a finite "
              "number")
        for key in ("sample_rate_hz", "periods")
    },
    "test_simulate_periods_beyond_the_index_range_exit_1": {
        f"excitation{i}": (_argv("simulate", config={**SIM_CONFIG, "excitation": excitation,
                                                     "periods": 1e25}),
                           "invalid config {tmp}/c.json: periods=1e+25 makes a record of more "
                           f"than {np.iinfo(np.intp).max} samples")
        for i, excitation in enumerate([SIM_CONFIG["excitation"], {"type": "noise"}])
    },
    # each record is above 2^57 bytes (128 PiB), beyond any address space numpy could map
    "test_a_record_too_large_to_allocate_exits_1": {
        "simulate": (_argv("simulate", config={
            **SIM_CONFIG, "excitation": {"type": "noise"}, "period_s": 200.0,
            "sample_rate_hz": 200.0, "periods": 1_000_000_000_000}),
            "invalid config {tmp}/c.json: Unable to allocate 284. PiB for an array with shape "
            "(1000000000000, 40000) and data type float64 (a record has sample_rate_hz * "
            "period_s * periods samples)"),
        "design": (_argv("design", config={
            "period_s": 200.0, "f_min_hz": 0.005, "f_max_hz": 10.0, "points_per_decade": 12,
            "seed": 1, "rms_a": 0.5, "sample_rate_hz": 1e14, "periods": 1}),
            "invalid config {tmp}/c.json: Unable to allocate 142. PiB for an array with shape "
            "(10000000000000001,) and data type complex128 (a record has sample_rate_hz * "
            "period_s * periods samples)"),
    },
    # the quasi-log grid, not the record, is what could not be allocated
    "test_a_design_grid_too_large_to_allocate_exits_1_naming_its_keys": {
        command: (_argv(command, config=config),
                  "invalid config {tmp}/c.json: Unable to allocate 52.4 PiB for an array with "
                  "shape (7377758908227875,) and data type float64 (the design grid is sized by "
                  f"period_s, {prefix}f_min_hz, {prefix}f_max_hz and {prefix}points_per_decade)")
        for command, prefix, config in [
            ("design", "", {"period_s": 1e15, "f_min_hz": 0.05, "f_max_hz": 2.0,
                            "points_per_decade": 1e17}),
            ("simulate", "excitation.", {**SIM_CONFIG, "period_s": 1e15, "excitation": {
                **SIM_CONFIG["excitation"], "points_per_decade": 1e17}}),
        ]
    },
    "test_design_nyquist_violation_exit_1": {None: (
        _argv("design", config={"period_s": 20.0, "f_min_hz": 0.05, "f_max_hz": 40.0,
                                "points_per_decade": 6, "seed": 5, "sample_rate_hz": 20.0,
                                "periods": 1}),
        "invalid config {tmp}/c.json: sample_rate_hz=20.0 violates the Nyquist bound for "
        "harmonic 799 (39.95 Hz)")},
    "test_estimate_rejects_removed_variant_keys": {
        key: (_argv("estimate", config={key: True}, record=True),
              f"invalid config {{tmp}}/c.json: unknown key {key}")
        for key in ("column_scaling", "noise_whitening")
    },
    # the config key, not the EstimationConfig field behind it
    "test_bin_numbers_beyond_int64_exit_1_naming_the_field": {
        f"{name}-{command}": (_argv(command, config=given, record=True),
                              f"invalid config {{tmp}}/c.json: {field} must hold whole bin numbers")
        for name, given, field in [("excited_bins", {"excited_bins": [1e30]}, "excited_bins"),
                                   ("k_max", {"k_min": 1, "k_max": 1e30}, "k_min and k_max")]
        for command in ("estimate", "eis")
    },
    "test_inverted_bin_window_exit_1_naming_the_keys": {
        command: (_argv(command, config={"k_min": 9, "k_max": 3}, record=True),
                  "invalid config {tmp}/c.json: k_min and k_max must satisfy 1 <= k_min <= k_max")
        for command in ("estimate", "eis")
    },
    "test_estimate_rejects_both_mask_sources": {None: (
        _argv("estimate", record=True,
              config={"excited_bins": [1, 3], "multisine_path": "{tmp}/sim/multisine.json"}),
        "invalid config {tmp}/c.json: give excited_bins or multisine_path, not both")},
    "test_missing_config_exit_1": {None: (
        lambda tmp_path: ["design", "--config", str(tmp_path / "nope.json")],
        "invalid config {tmp}/nope.json: No such file or directory")},
    "test_malformed_record_exit_1": {None: (
        _malformed_record, "{tmp}/sim/record.csv: row 4 has 1 fields, expected 3")},
    "test_eis_rejects_retired_detection_factor_key": {None: (
        _argv("eis", config={"detection_factor": 0.01}, record=True),
        "invalid config {tmp}/c.json: unknown key detection_factor")},
    "test_number_beyond_the_float_range_exit_1_naming_the_key": {
        f"{command}-{key}": (_argv(command, config=_with_key(base, key, _HUGE)),
                             f"invalid config {{tmp}}/c.json: {key} must be a finite number")
        for command, base, keys in [
            ("design", _DESIGN_CONFIG, list(_DESIGN_CONFIG)),
            ("simulate", SIM_CONFIG, ["period_s", "snr", "seed", "randles.r_s_ohm",
                                      "randles.ocv_v", "excitation.f_max_hz"]),
        ]
        for key in keys
    },
    "test_outside_input_guards_exit_1_naming_the_cause": {
        "no band": (
            _argv("simulate", config={**SIM_CONFIG, "excitation": {"type": "multisine",
                                                                   "f_min_hz": 0.05}}),
            "invalid config {tmp}/c.json: multisine excitation needs either multisine_path or "
            "f_min_hz/f_max_hz/points_per_decade"),
        "no record": (lambda tmp_path: ["estimate", "--record", str(tmp_path / "none.csv")],
                      "record file not found: {tmp}/none.csv"),
        **{name: (_spec_argv("eis", {**_SPEC, **change}),
                  f"invalid multisine spec {{tmp}}/ms.json: {problem}")
           for name, change, problem in [
               ("spec period", {"period_s": -20.0}, "period_s must be positive"),
               ("spec empty", {"harmonics": [], "amplitudes": [], "phases": []},
                "harmonics must be a nonempty 1-D integer array"),
               ("spec lengths", {"amplitudes": [1.0]},
                "amplitudes and phases must match harmonics in shape"),
           ]},
        "spec beyond": (_spec_argv("eis", {**_SPEC, "harmonics": [1, 999]}),
                        "invalid config {tmp}/c.json: multisine_path harmonics must lie within "
                        "the spectrum (max bin 200), got 999"),
        # the record has M = 400 samples per period; eis looks its keys up as estimate does
        **{f"{prefix}{name}": (_argv(command, config=given, record=True),
                               f"invalid config {{tmp}}/c.json: {problem}")
           for command, prefix in (("estimate", ""), ("eis", "eis "))
           for name, given, problem in [
               ("bins window", {"k_min": 1, "k_max": 200},
                "k_min and k_max must lie within the usable bins 1..199"),
               ("bins window with spec",
                {"k_min": 1, "k_max": 200, "multisine_path": "{tmp}/sim/multisine.json"},
                "k_min and k_max must lie within the usable bins 1..199"),
               ("bins mask", {"excited_bins": [3, 201]},
                "excited_bins must lie within the spectrum (max bin 200), got 201"),
           ]},
        **{name: (_argv("design", config={**_DESIGN_CONFIG, **change}),
                  f"invalid config {{tmp}}/c.json: {problem}")
           for name, change, problem in [
               ("band low", {"f_min_hz": 0.01},
                "f_min_hz must be at least the fundamental 1/period_s"),
               ("band inverted", {"f_min_hz": 1.0, "f_max_hz": 0.5},
                "f_max_hz must be >= f_min_hz"),
           ]},
        # the same band errors, named by their key under excitation
        **{f"simulate {name}": (
            _argv("simulate", config={**SIM_CONFIG, "excitation": {
                **SIM_CONFIG["excitation"], "f_min_hz": f_min, "f_max_hz": f_max}}),
            f"invalid config {{tmp}}/c.json: excitation.{problem}")
           for name, f_min, f_max, problem in [
               ("band low", 0.01, 2.0, "f_min_hz must be at least the fundamental 1/period_s"),
               ("band inverted", 1.0, 0.5, "f_max_hz must be >= f_min_hz"),
           ]},
        **{name: (_fit(coefficients), f"invalid estimate file {{tmp}}/estimate.json: {problem}")
           for name, coefficients, problem in [
               ("no a", {**_COEFFICIENTS, "a": []}, "need at least denominator coefficient a_1"),
               ("no b", {**_COEFFICIENTS, "b": []}, "need numerator coefficient b_0"),
               ("fit orders", {"a": [1.0, 0.07], "b": [0.05, 0.67, 0.04]},
                "Randles recovery needs the (N_a, N_b) = (3, 3) structure"),
           ]},
        "fit zero numerator": (
            _fit_zero_numerator, "invalid estimate file {tmp}/est/estimate.json: Randles "
            "recovery needs the (N_a, N_b) = (3, 3) structure"),
        # the record's period is 20 s
        **{f"record period {command}": (
            _spec_argv(command, {**_SPEC, "period_s": 10.0}),
            "multisine spec {tmp}/ms.json period_s 10.0 disagrees with record "
            "{tmp}/sim/record.csv period_s 20.0") for command in ("estimate", "eis")},
        **{name: (_argv("simulate", spec=_SPEC, config={**SIM_CONFIG, "excitation": excitation}),
                  f"invalid config {{tmp}}/c.json: excitation.{key} is not read by {reader}")
           for name, excitation, key, reader in [
               ("noise band", {**SIM_CONFIG["excitation"], "type": "noise"}, "f_min_hz",
                "noise excitation"),
               ("noise spec", {"type": "noise", "multisine_path": "{tmp}/ms.json"},
                "multisine_path", "noise excitation"),
               ("spec and band", {**_MULTISINE_FROM_SPEC, "points_per_decade": 8},
                "points_per_decade", "a multisine from multisine_path"),
           ]},
    },
    # a scale or a noise level that would make a record the chain cannot use
    "test_a_record_whose_squares_or_noise_leave_the_float_range_exits_1_naming_the_cause": {
        name: (_argv(command, config=config), f"invalid config {{tmp}}/c.json: {problem}")
        for name, command, config, problem in [
            ("snr 1e-310", "simulate", {**SIM_CONFIG, "snr": 1e-310},
             "snr must be at least 4.45015e-308 for a record of AC RMS 0.5, or its noise "
             "overflows"),
            ("rms_a 1e300", "simulate", {**SIM_CONFIG, "rms_a": 1e300, "snr": 50.0},
             "rms_a must be at most 2.73686e+152 for 1200 samples, or the sum of their squares "
             "can overflow"),
            ("rms_a 1e-320", "simulate", {**SIM_CONFIG, "rms_a": 1e-320, "snr": 50.0},
             "rms_a must be at least 1.49167e-154, or the record's squares underflow"),
            ("design rms_a 1e300", "design", {**_DESIGN_CONFIG, "rms_a": 1e300},
             "rms_a must be at most 3.35195e+152 for 800 samples, or the sum of their squares "
             "can overflow"),
            ("design rms_a 1e-320", "design", {**_DESIGN_CONFIG, "rms_a": 1e-320},
             "rms_a must be at least 1.49167e-154, or the record's squares underflow"),
            # a current within its bound, through a 1 kOhm series resistance
            ("voltage overflow", "simulate", {
                **SIM_CONFIG, "rms_a": 2.7e152, "snr": 50.0,
                "randles": {**SIM_CONFIG["randles"], "r_s_ohm": 1000.0}},
             "record's AC power overflows; SNR is undefined"),
        ]
    },
    "test_estimate_rejects_a_spec_beyond_the_spectrum_like_eis": {None: (
        _spec_argv("estimate", {**_SPEC, "harmonics": [1, 999]}),
        "invalid config {tmp}/c.json: multisine_path harmonics must lie within the spectrum "
        "(max bin 200), got 999")},
    "test_a_config_nested_too_deeply_exits_1_naming_the_file": {None: (
        _deep_config, "invalid config {tmp}/c.json: not valid JSON: nested too deeply to decode")},
    "test_a_table_that_cannot_be_opened_exits_1_naming_the_file": {
        "record": (_record_directory, "{tmp}/rec.csv: Is a directory"),
        "nonpar": (_nonpar_directory, "{tmp}/eis.csv: Is a directory"),
    },
    # the response's AC RMS is 0.319717, so a float step above sqrt(12) * 1e-6 of it,
    # from an OCV of 2^33 up, swamps it; 400 samples per period overflow the DC bin
    "test_an_ocv_whose_rounding_swamps_the_response_exits_1_naming_the_key": {
        name: (_argv("simulate", config=_with_key({**SIM_CONFIG, **extra}, "randles.ocv_v", ocv)),
               f"invalid config {{tmp}}/c.json: randles.ocv_v {problem}")
        for name, ocv, extra, problem in [
            *((name, ocv, extra, "must be less than 8.58993e+09 in magnitude for a response of "
                                 "AC RMS 0.319717, or its rounding swamps the response")
              for name, ocv, extra in [("1e15", 1e15, {}), ("1e20", 1e20, {}),
                                       ("1e20 snr 50", 1e20, {"snr": 50.0}),
                                       ("1e305", 1e305, {})]),
            ("1e308", 1e308, {}, "must be at most 4.49423e+305 in magnitude for 400 samples per "
                                 "period, or its DC bin overflows"),
        ]
    },
}


def _assert_exit_1(row, tmp_path, capsys):
    """The exit-1 contract: exit 1, no stdout under --quiet, stderr exactly the
    row's one `error:` line, and no --out directory."""
    build, message = row
    argv, out = build(tmp_path), tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {message.replace('{tmp}', str(tmp_path))}\n")
    assert not out.exists()


def _exit_1_test(name: str, rows: dict):
    """The test `name`, which runs each of `rows` through `_assert_exit_1`."""
    if list(rows) == [None]:
        def test(tmp_path, capsys):
            _assert_exit_1(rows[None], tmp_path, capsys)
    else:
        @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
        def test(tmp_path, capsys, row):
            _assert_exit_1(row, tmp_path, capsys)
    test.__name__ = test.__qualname__ = name
    return test


for _name, _rows in _EXIT_1.items():
    globals()[_name] = _exit_1_test(_name, _rows)
