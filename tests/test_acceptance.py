"""Acceptance suite: one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
each test also asserts, so a plain `pytest` run enforces every criterion.

Protocol constants: Randles cell (551 mohm, 119 mohm, 1464 mF,
0.0346 ohm/sqrt(s)), excitation RMS 0.5 A, period 200 s at 200 Hz sampling,
5 periods (N = 200 000 samples); transient order 1 and 10 weighted
iterations.  The multisine band [5 mHz, 10 Hz] and the noise-excitation
estimation window [bin 1, bin 2000] are this suite's surrogate choices; the
survey-style comparison uses 76 odd quasi-log lines in [5.6 mHz, 80 Hz] over
10 periods of 180 s.
"""

import time

import numpy as np
import pytest

from fracimp import (
    EstimationConfig,
    HalfOrderRational,
    NoiseSpec,
    RandlesParams,
    TimeRecord,
    add_noise,
    design_odd_quasilog,
    equation_error_sigma,
    eval_rational,
    fit_randles,
    generate_periodic_noise,
    nonparametric_impedance,
    parametric_impedance,
    per_period_spectra,
    randles_impedance,
    randles_to_rational,
    relative_error_curve,
    scale_to_rms,
    simulate_response,
    synthesize_multisine,
    wtls_estimate,
)
from fracimp.model import ImpedanceCurve

from conftest import spectral_set

PARAMS = RandlesParams(r_s=0.551, r_ct=0.119, c_dl=1.464, sigma_w=0.0346, ocv=3.6)
TRUTH = randles_to_rational(PARAMS)

PERIOD_S = 200.0
FS = 200.0
PERIODS = 5
RMS = 0.5
F_MIN, F_MAX, PPD = 0.005, 10.0, 12  # multisine surrogate band
NOISE_WINDOW = (1, 2000)  # noise-excitation estimation bins: 5 mHz .. 10 Hz


def _report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _multisine_dataset(seed, snr=None, periods=PERIODS):
    spec = design_odd_quasilog(PERIOD_S, F_MIN, F_MAX, PPD, seed=seed)
    current = scale_to_rms(synthesize_multisine(spec, FS, periods), RMS)
    voltage = simulate_response(PARAMS, current)
    if snr is not None:
        current = add_noise(current, NoiseSpec(snr=snr, seed=seed * 3 + 1))
        voltage = add_noise(voltage, NoiseSpec(snr=snr, seed=seed * 3 + 2))
    return spec, per_period_spectra(current, voltage)


def _noise_dataset(seed, snr=50.0):
    current = scale_to_rms(
        generate_periodic_noise(PERIOD_S, FS, PERIODS, seed=seed), RMS)
    voltage = simulate_response(PARAMS, current)
    current = add_noise(current, NoiseSpec(snr=snr, seed=seed * 3 + 1))
    voltage = add_noise(voltage, NoiseSpec(snr=snr, seed=seed * 3 + 2))
    return per_period_spectra(current, voltage)


def _error_against_truth(result, freq_hz):
    omega = 2 * np.pi * np.asarray(freq_hz, dtype=float)
    reference = ImpedanceCurve(freq_hz=freq_hz, z_ohm=randles_impedance(PARAMS, omega))
    return relative_error_curve(reference, parametric_impedance(result, omega))


BAND_GRID = np.logspace(np.log10(F_MIN), np.log10(F_MAX), 200)


def _band_max_error(seed, snr):
    spec, spectra = _multisine_dataset(seed, snr=snr)
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    return float(_error_against_truth(result, BAND_GRID).max())


def test_criterion_1_noiseless_exact_recovery():
    start = time.monotonic()
    spec, spectra = _multisine_dataset(seed=1, snr=None)
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    elapsed = time.monotonic() - start

    rel_a = np.abs(result.rational.a - TRUTH.a) / np.abs(TRUTH.a)
    rel_b = np.abs(result.rational.b - TRUTH.b) / np.abs(TRUTH.b)
    worst = max(rel_a.max(), rel_b.max())
    transient = np.abs(result.transient).max() / np.linalg.norm(TRUTH.b)
    ok = worst < 1e-6 and transient < 1e-6 and elapsed < 10.0
    _report(1, ok, f"coefficient error {worst:.2e} (limit 1e-6), "
                   f"transient {transient:.2e}, {elapsed:.1f} s")


def test_criterion_2_multisine_snr50_relative_error():
    start = time.monotonic()
    maxima = [_band_max_error(seed, 50.0) for seed in range(10)]
    elapsed = time.monotonic() - start
    median = float(np.median(maxima))
    ok = median < 0.005 and elapsed < 180.0
    _report(2, ok, f"median band-max e_Z {median:.2%} (target 0.3%, pass < 0.5%), "
                   f"{elapsed:.0f} s")


def test_criterion_3_noise_excitation_error_profile():
    start = time.monotonic()
    cfg = EstimationConfig(bin_window=NOISE_WINDOW)
    f_low = NOISE_WINDOW[0] / PERIOD_S
    top_decade = np.logspace(np.log10(NOISE_WINDOW[1] / PERIOD_S / 10),
                             np.log10(NOISE_WINDOW[1] / PERIOD_S), 30)
    lows, tops = [], []
    for seed in range(10):
        result = wtls_estimate(_noise_dataset(seed), cfg)
        lows.append(float(_error_against_truth(result, np.array([f_low]))[0]))
        tops.append(float(_error_against_truth(result, top_decade).max()))
    elapsed = time.monotonic() - start
    med_low = float(np.median(lows))
    med_top = float(np.median(tops))
    ok = med_low <= 0.045 and med_top <= 0.0045 and elapsed < 180.0
    _report(3, ok, f"median e_Z at {f_low} Hz {med_low:.2%} (limit 4.5%), "
                   f"top decade {med_top:.2%} (limit 0.45%), {elapsed:.0f} s")


def test_criterion_4_snr_monotonicity():
    medians = {}
    for snr in (10.0, 20.0, 50.0):
        medians[snr] = float(np.median(
            [_band_max_error(seed, snr) for seed in range(100, 110)]))
    ok = medians[10.0] > medians[20.0] > medians[50.0]
    _report(4, ok, "median band-max e_Z " + ", ".join(
        f"SNR {int(s)}: {m:.3%}" for s, m in medians.items()))


def test_criterion_5_ecm_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        p = RandlesParams(
            r_s=10 ** rng.uniform(-2, 2),
            r_ct=10 ** rng.uniform(-2, 2),
            c_dl=10 ** rng.uniform(-2, 2),
            sigma_w=10 ** rng.uniform(-2, 2),
        )
        fit = fit_randles(randles_to_rational(p)).params
        worst = max(worst, *(abs(a / b - 1.0) for a, b in (
            (fit.r_s, p.r_s), (fit.r_ct, p.r_ct),
            (fit.c_dl, p.c_dl), (fit.sigma_w, p.sigma_w))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(5, ok, f"worst relative error {worst:.2e} over 100 draws "
                   f"(limit 1e-8), {elapsed:.1f} s")


def test_criterion_6_consistency_with_period_count():
    start = time.monotonic()
    period_counts = (2, 4, 8, 16)
    truth_vec = np.concatenate([TRUTH.a[1:], TRUTH.b])  # a_2, a_3, b_0..b_3
    rmse = np.zeros((len(period_counts), truth_vec.size))
    for i, periods in enumerate(period_counts):
        errors = []
        for run in range(20):
            spec, spectra = _multisine_dataset(seed=600 + 37 * run + periods,
                                               snr=20.0, periods=periods)
            result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
            est = np.concatenate([result.rational.a[1:], result.rational.b])
            errors.append((est - truth_vec) / np.abs(truth_vec))
        rmse[i] = np.sqrt(np.mean(np.square(errors), axis=0))
    elapsed = time.monotonic() - start

    slopes = np.polyfit(np.log(period_counts), np.log(rmse), 1)[0]
    endpoint_drop = rmse[-1] < rmse[0]
    ok = bool(np.all(slopes < 0) and np.all(endpoint_drop) and elapsed < 600.0)
    _report(6, ok, f"log-log RMSE slopes {np.round(slopes, 2).tolist()} "
                   f"(all < 0 required), {elapsed:.0f} s")


def test_criterion_7_nonparametric_parametric_agreement():
    start = time.monotonic()
    period_s, fs, periods, snr = 180.0, 200.0, 10, 50.0
    spec = design_odd_quasilog(period_s, 0.0056, 80.0, 23, seed=42)
    assert spec.harmonics.size == 76
    current = scale_to_rms(synthesize_multisine(spec, fs, periods), RMS)
    voltage = simulate_response(PARAMS, current)
    current = add_noise(current, NoiseSpec(snr=snr, seed=701))
    voltage = add_noise(voltage, NoiseSpec(snr=snr, seed=702))
    spectra = per_period_spectra(current, voltage)

    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    nonpar = nonparametric_impedance(spectra, spec.harmonics)
    par = parametric_impedance(result, 2 * np.pi * nonpar.freq_hz)
    error = relative_error_curve(nonpar, par)
    above_100mhz = float(error[nonpar.freq_hz > 0.1].max())
    elapsed = time.monotonic() - start
    ok = above_100mhz < 0.01
    _report(7, ok, f"max e_Z above 100 mHz {above_100mhz:.3%} (limit 1%), "
                   f"76 lines, {elapsed:.0f} s")


def test_criterion_8_oracle_equivalences():
    # the mean spectrum of per_period_spectra (4 periods of 16 samples)
    # against the O(N^2) definition of the 1/M DFT
    rng = np.random.default_rng(8)
    x = rng.normal(size=64)
    p, m = 4, 16
    k = np.arange(m)
    basis = np.exp(-2j * np.pi * np.outer(k[: m // 2 + 1], k) / m)
    direct = (x.reshape(p, 1, m) * basis).sum(axis=2).mean(axis=0) / m
    record = TimeRecord(x, m, 1.0)
    fast = per_period_spectra(record, record).mean_current
    dft_err = float(np.abs(fast - direct).max() / np.abs(direct).max())

    # rational evaluation against the circuit formula
    omega = np.logspace(-4, 5, 400)
    ident_err = float((np.abs(eval_rational(TRUTH, omega)
                              - randles_impedance(PARAMS, omega))
                       / np.abs(randles_impedance(PARAMS, omega))).max())

    # equation-error variance against a Monte-Carlo estimate
    var_v = np.array([0.0, 1.5, 0.6, 1.1, 0.0])
    var_i = np.array([0.0, 0.9, 2.0, 0.7, 0.0])
    rho = np.array([0.0, 0.3 - 0.2j, 0.5j, -0.4 + 0.1j, 0.0])
    covar = rho * np.sqrt(var_v * var_i)
    spectra = spectral_set(2.0, np.ones(5), np.ones(5),
                           var_current=var_i, var_voltage=var_v, covar_vi=covar)
    cfg = EstimationConfig(n_a=2, n_b=1, n_r=0, bin_window=(1, 3))
    rational = HalfOrderRational(a=[1.0, 0.6], b=[0.4, -0.3])
    sigma = equation_error_sigma(spectra, rational, cfg)
    omega_bins = 2 * np.pi * np.arange(1, 4) / 2.0
    q = np.sqrt(omega_bins) * np.exp(1j * np.pi / 4)
    pol_a = q + 0.6 * q**2
    pol_b = 0.4 - 0.3 * q
    mc_err = 0.0
    for j, kk in enumerate(range(1, 4)):
        cov = np.array([[var_v[kk], covar[kk]], [np.conj(covar[kk]), var_i[kk]]])
        chol = np.linalg.cholesky(cov)
        z = (rng.normal(size=(2, 100_000)) + 1j * rng.normal(size=(2, 100_000))) / np.sqrt(2)
        nv, ni = chol @ z
        mc_var = float(np.mean(np.abs(pol_a[j] * nv - pol_b[j] * ni) ** 2))
        mc_err = max(mc_err, abs(mc_var / sigma[j] ** 2 - 1.0))

    ok = dft_err < 1e-12 and ident_err < 1e-12 and mc_err < 0.03
    _report(8, ok, f"per-period DFT vs direct sum {dft_err:.1e} (limit 1e-12), "
                   f"rational vs circuit {ident_err:.1e} (limit 1e-12), "
                   f"sigma_E vs Monte-Carlo {mc_err:.1%} (limit 3%)")
