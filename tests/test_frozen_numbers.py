"""simulate -> estimate -> fit through `fracimp.cli.main`, against frozen numbers.

A short record (a 20 s period at 20 Hz, 4 periods, SNR 50) runs through the
three commands for multisine and for noise excitation.  The expected numbers
were written by an earlier build of the same pipeline, so a change meant to
keep the outputs ("same numbers") is held to them:

- estimate.json a, b and weighted_cost, and bode.csv |Z|: 1e-10 relative;
- estimate.json c, the transient, which can be near zero: 1e-10 * ||b||;
- fit.json circuit values and residual norm: 1e-8 relative, because the
  circuit fit's step-norm stop is sensitive to the last digits of its input.
"""

import json

import numpy as np
import pytest

from fracimp.cli import main

_RANDLES = {"r_s_ohm": 0.551, "r_ct_ohm": 0.119, "c_dl_f": 1.464,
            "sigma_w_ohm_per_sqrt_s": 0.0346, "ocv_v": 3.6}
_RECORD = {"period_s": 20.0, "sample_rate_hz": 20.0, "periods": 4, "rms_a": 0.5,
           "randles": _RANDLES, "snr": 50.0}
_CASES = {
    "multisine": ({"type": "multisine", "f_min_hz": 0.05, "f_max_hz": 2.0,
                   "points_per_decade": 8}, 1, {"n_r": 1}),
    # the circuit fit rejects some short noise-excited estimates as not
    # Randles-consistent (ROADMAP item 1); seed 1 is one it accepts
    "noise": ({"type": "noise"}, 1, {"k_min": 1, "k_max": 100, "n_r": 1}),
}
_BODE_ROWS = [0, 40, 80, 120, 160, 199]

FROZEN = {
    "multisine": {
        "a": [1.0, 0.09827146072411938, 0.11443560975201614],
        "b": [
            0.044234241584806364, 0.6878498750542381, 0.0346417263751487,
            0.06557328367767302,
        ],
        "c": [0.0001205276004972647, -8.850148652320632e-05],
        "weighted_cost": 2.4008833155080143,
        "iterations_run": 6,
        "estimate_converged": True,
        "bode_rows": 209,
        "bode_freq_hz": [
            0.05, 0.10251482770364288, 0.21018579798215187,
            0.42308219624954796, 0.85, 1.6522543942358903,
        ],
        "bode_mag_ohm": [
            0.7273962768471196, 0.7021229600693379, 0.6776832586992673,
            0.6493007693699141, 0.6126922998481429, 0.5777411718773123,
        ],
        "params": {
            "r_s_ohm": 0.5151240187198045,
            "r_ct_ohm": 0.07104758676693154,
            "c_dl_f": 1.7044456417436773,
            "sigma_w_ohm_per_sqrt_s": 0.031748821450532545,
            "ocv_v": 0.0,
        },
        "residual_norm": 0.30956321472241755,
        "converged": True,
    },
    "noise": {
        "a": [1.0, 0.07432526561097716, 0.18881675561682396],
        "b": [
            0.04414689878444511, 0.6746491245387238, 0.04410846799458409,
            0.10360945396547727,
        ],
        "c": [0.00010323594587347466, -3.954124858009867e-05],
        "weighted_cost": 37.57935517054722,
        "iterations_run": 10,
        "estimate_converged": True,
        "bode_rows": 300,
        "bode_freq_hz": [
            0.05, 0.12047017801197624, 0.2836213034245989,
            0.6086913638698306, 1.1908427759880789, 2.0,
        ],
        "bode_mag_ohm": [
            0.723760912139079, 0.6972949156836389, 0.6699706057209601,
            0.6328746703137532, 0.5939148858188241, 0.5717687853705948,
        ],
        "params": {
            "r_s_ohm": 0.5690987690507524,
            "r_ct_ohm": 0.10774779588606859,
            "c_dl_f": 1.7194455026774005,
            "sigma_w_ohm_per_sqrt_s": 0.03120032421091763,
            "ocv_v": 0.0,
        },
        "residual_norm": 0.03939837789908428,
        "converged": True,
    },
}


def _pipeline(tmp_path, kind):
    excitation, seed, est_cfg = _CASES[kind]
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({**_RECORD, "excitation": excitation, "seed": seed}))
    run = tmp_path / "run"
    if kind == "multisine":
        est_cfg = {**est_cfg, "multisine_path": str(run / "multisine.json")}
    est = tmp_path / "est.json"
    est.write_text(json.dumps(est_cfg))
    for argv in (["simulate", "--config", str(sim)],
                 ["estimate", "--record", str(run / "record.csv"), "--config", str(est)],
                 ["fit", "--estimate", str(run / "estimate.json")]):
        assert main([*argv, "--out", str(run), "--quiet"]) == 0
    estimate = json.loads((run / "estimate.json").read_text())
    fit = json.loads((run / "fit.json").read_text())
    bode = np.loadtxt(run / "bode.csv", delimiter=",", skiprows=1)
    return estimate, fit, bode


@pytest.mark.parametrize("kind", sorted(_CASES))
def test_cli_outputs_match_frozen_numbers(tmp_path, kind):
    estimate, fit, bode = _pipeline(tmp_path, kind)
    want = FROZEN[kind]
    b = np.asarray(want["b"])
    assert estimate["iterations_run"] == want["iterations_run"]
    assert estimate["converged"] is want["estimate_converged"]
    for key in ("a", "b", "weighted_cost"):
        np.testing.assert_allclose(estimate[key], want[key], rtol=1e-10, atol=0, err_msg=key)
    np.testing.assert_allclose(estimate["c"], want["c"], rtol=0,
                               atol=1e-10 * np.linalg.norm(b))
    assert len(bode) == want["bode_rows"]
    np.testing.assert_allclose(bode[_BODE_ROWS, 0], want["bode_freq_hz"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(bode[_BODE_ROWS, 1], want["bode_mag_ohm"], rtol=1e-10, atol=0)
    assert fit["converged"] == want["converged"]
    for key, value in want["params"].items():
        assert fit["params"][key] == pytest.approx(value, rel=1e-8, abs=0), key
    assert fit["residual_norm"] == pytest.approx(want["residual_norm"], rel=1e-8, abs=0)
