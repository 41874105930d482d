import dataclasses
import warnings

import numpy as np
import pytest

from fracimp import (
    EstimationConfig,
    TimeRecord,
    generate_periodic_noise,
    nonparametric_impedance,
    per_period_spectra,
    randles_impedance,
    wtls_estimate,
)
from fracimp import spectra as spectra_module

from conftest import make_multisine_current, simulate_pair, spectral_set


def _dft_direct(x):
    """Brute-force O(N^2) evaluation of the 1/N DFT definition."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    return (x[None, :] * np.exp(-2j * np.pi * np.outer(k, k[:n]) / n)).sum(axis=1) / n


def _mean_spectra(current, voltage=None, periods=1):
    """per_period_spectra of `periods` one-second periods; voltage defaults to current."""
    current = np.asarray(current, dtype=float)
    voltage = current if voltage is None else np.asarray(voltage, dtype=float)
    fs = current.size / periods
    return per_period_spectra(TimeRecord(current, fs, 1.0), TimeRecord(voltage, fs, 1.0))


# ---------------------------------------------------------------- the 1/M DFT of per_period_spectra


def test_dft_constant_is_dc_only():
    spectrum = _mean_spectra(np.full(16, 3.25)).mean_current
    assert spectrum[0] == pytest.approx(3.25, rel=1e-14)
    assert np.abs(spectrum[1:]).max() < 1e-14


def test_dft_of_unit_sine():
    n = 32
    spectrum = _mean_spectra(np.sin(2 * np.pi * np.arange(n) / n)).mean_current
    assert spectrum.size == n // 2 + 1  # bins 0..M/2 of a real signal
    assert spectrum[1] == pytest.approx(-0.5j, abs=1e-14)
    others = np.delete(spectrum, 1)
    assert np.abs(others).max() < 1e-14


def test_dft_matches_direct_summation():
    # the mean over 3 periods of 8 samples, on both channels
    rng = np.random.default_rng(12)
    i, v = rng.normal(size=(2, 3, 8))
    spectra = _mean_spectra(i.ravel(), v.ravel(), periods=3)
    for fast, x in ((spectra.mean_current, i), (spectra.mean_voltage, v)):
        slow = np.mean([_dft_direct(row) for row in x], axis=0)[:5]
        assert np.abs(fast - slow).max() < 1e-12 * np.abs(slow).max()


def test_parseval_under_one_over_n():
    # odd M: bins 1..M//2 stand for themselves and their mirror images
    rng = np.random.default_rng(13)
    x = rng.normal(size=257)
    lhs = np.sum(x**2) / x.size
    power = np.abs(_mean_spectra(x).mean_current) ** 2
    rhs = power[0] + 2 * power[1:].sum()
    assert rhs == pytest.approx(lhs, rel=1e-10)


def test_one_sample_period_errors():
    with pytest.raises(ValueError, match="at least 2 samples per period"):
        _mean_spectra([1.0, 2.0], periods=2)


# ---------------------------------------------------------------- per-period spectra


def test_noiseless_periodic_signals_have_zero_variance():
    # bitwise identical periods: exactly zero, not rounding debris, at any P
    for periods in (2, 3, 5, 16):
        current = generate_periodic_noise(2.0, 50.0, periods=periods, seed=1)
        voltage = current.with_samples(2.0 * current.samples)
        spectra = per_period_spectra(current, voltage)
        assert np.all(spectra.var_current == 0)
        assert np.all(spectra.var_voltage == 0)
        assert np.all(spectra.covar_vi == 0)


def test_voltage_equal_current_gives_self_covariance():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=400)
    current = TimeRecord(samples, 50.0, 2.0)
    voltage = TimeRecord(samples.copy(), 50.0, 2.0)
    spectra = per_period_spectra(current, voltage)
    assert spectra.covar_vi == pytest.approx(spectra.var_current, rel=1e-12)
    assert spectra.var_voltage == pytest.approx(spectra.var_current, rel=1e-12)


def test_white_noise_spectral_variance_is_sigma2_over_m():
    # additive white noise of variance sigma^2 on the samples gives
    # per-period spectral variance sigma^2/M under the 1/M DFT normalization
    sigma = 0.7
    periods, m = 4, 64
    rng = np.random.default_rng(3)
    acc = []
    for _ in range(200):
        noise = rng.normal(0.0, sigma, periods * m)
        current = TimeRecord(noise, float(m), 1.0)
        voltage = TimeRecord(np.zeros(periods * m), float(m), 1.0)
        spectra = per_period_spectra(current, voltage)
        acc.append(spectra.var_current)
    mean_var = np.mean(acc)
    assert mean_var == pytest.approx(sigma**2 / m, rel=0.03)


def test_variance_of_mean_spectrum_scales_as_one_over_p():
    rng = np.random.default_rng(4)
    m = 512
    levels = []
    for periods in (2, 4, 8, 16):
        power = []
        for _ in range(30):
            noise = rng.normal(size=periods * m)
            current = TimeRecord(noise, float(m), 1.0)
            voltage = TimeRecord(np.zeros(periods * m), float(m), 1.0)
            spectra = per_period_spectra(current, voltage)
            power.append(np.mean(np.abs(spectra.mean_current[1:-1]) ** 2))
        levels.append(np.mean(power))
    slope = np.polyfit(np.log([2, 4, 8, 16]), np.log(levels), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_spectral_set_invariants_on_noisy_data():
    rng = np.random.default_rng(5)
    current = TimeRecord(rng.normal(size=600), 30.0, 4.0)
    voltage = TimeRecord(rng.normal(size=600), 30.0, 4.0)
    spectra = per_period_spectra(current, voltage)
    assert np.all(spectra.var_current >= 0)
    assert np.all(spectra.var_voltage >= 0)
    cs = spectra.var_current * spectra.var_voltage - np.abs(spectra.covar_vi) ** 2
    assert np.all(cs >= -1e-12 * np.maximum(spectra.var_current * spectra.var_voltage, 1e-300))
    assert spectra.freq_hz[1] == pytest.approx(1 / 4.0, rel=1e-15)


def test_single_period_has_no_covariances():
    current = generate_periodic_noise(1.0, 64.0, 1, seed=6)
    voltage = current.with_samples(current.samples)
    spectra = per_period_spectra(current, voltage)
    assert not spectra.has_covariances


def test_metadata_mismatch_errors():
    current = generate_periodic_noise(1.0, 64.0, 2, seed=7)
    voltage = TimeRecord(samples=np.zeros(128), sample_rate_hz=32.0, period_s=2.0)
    with pytest.raises(ValueError, match="disagree"):
        per_period_spectra(current, voltage)


def test_the_cauchy_schwarz_check_holds_near_1e200_without_overflow():
    # var_current * var_voltage and |covar|^2 are about 1e400 here; the pytest
    # config makes a warning an error, so an overflow in the check would fail this
    ones = np.ones(3)
    var_current, var_voltage = np.array([1e200, 2e200, 0.0]), np.array([4e200, 3e200, 5e200])
    at_bound = np.sqrt(var_current) * np.sqrt(var_voltage) * np.exp(1j * np.array([0.3, 2.0, 0.0]))
    spectral_set(1.0, ones, ones, var_current, var_voltage, at_bound)
    for over in (at_bound * (1 + 1e-9), at_bound + [0, 0, 1e-300]):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            spectral_set(1.0, ones, ones, var_current, var_voltage, over)


# ---------------------------------------------------------------- errors reach the caller


def _overflowing_pair():
    """A current of amplitude 1e308, whose rfft overflows, and a finite noisy voltage."""
    n = np.arange(128)
    current = TimeRecord(1e308 * np.sin(2 * np.pi * n / 64), 64.0, 1.0)
    voltage = TimeRecord(np.random.default_rng(9).normal(size=n.size), 64.0, 1.0)
    return current, voltage


def test_the_callers_errstate_holds_in_the_current_channel():
    # under the caller's errstate the current's rfft overflow raises, rather than
    # leaving a non-finite var_current
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("ignore")
        with pytest.raises(FloatingPointError, match="overflow encountered in rfft"):
            per_period_spectra(*_overflowing_pair())


def test_a_warning_made_an_error_in_the_current_channel_reaches_the_caller():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow encountered in rfft"):
            per_period_spectra(*_overflowing_pair())


@pytest.mark.parametrize("failing", ["current", "voltage"])
def test_an_error_in_either_channel_is_raised_unchanged_to_the_caller(monkeypatch, failing):
    current = generate_periodic_noise(1.0, 64.0, 3, seed=10)
    voltage = current.with_samples(2.0 * current.samples)
    channel, error = spectra_module._channel, LookupError("injected")

    def one_channel_fails(record, p, m):
        if record is {"current": current, "voltage": voltage}[failing]:
            raise error
        return channel(record, p, m)

    monkeypatch.setattr(spectra_module, "_channel", one_channel_fails)
    with pytest.raises(LookupError) as raised:
        per_period_spectra(current, voltage)
    assert raised.value is error


# ---------------------------------------------------------------- nonparametric EIS


def test_nonparametric_constant_ratio():
    current = generate_periodic_noise(2.0, 32.0, 3, seed=8)
    voltage = current.with_samples(2.0 * current.samples)
    spectra = per_period_spectra(current, voltage)
    curve = nonparametric_impedance(spectra, EstimationConfig(bin_mask=np.arange(1, 30)))
    assert curve.z_ohm == pytest.approx(np.full(curve.z_ohm.size, 2.0 + 0j), rel=1e-12)


def test_nonparametric_matches_model_on_noiseless_simulation(sim_params):
    spec, current, voltage = simulate_pair(make_multisine_current(
        period_s=40.0, f_min_hz=1 / 40, f_max_hz=2.0, points_per_decade=8,
        sample_rate_hz=40.0, periods=3))
    spectra = per_period_spectra(current, voltage)
    curve = nonparametric_impedance(spectra, EstimationConfig(bin_mask=spec.harmonics))
    oracle = randles_impedance(sim_params, 2 * np.pi * curve.freq_hz)
    assert np.abs(curve.z_ohm - oracle).max() < 1e-10 * np.abs(oracle).max()


def test_nonparametric_invariant_to_common_scaling(sim_params):
    spec, current, voltage = simulate_pair(make_multisine_current(
        period_s=20.0, f_min_hz=0.05, f_max_hz=1.0, points_per_decade=6,
        sample_rate_hz=20.0, periods=2))
    gamma = 3.7
    s1 = per_period_spectra(current, voltage)
    s2 = per_period_spectra(current.with_samples(gamma * current.samples),
                            voltage.with_samples(gamma * voltage.samples))
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    c1 = nonparametric_impedance(s1, cfg)
    c2 = nonparametric_impedance(s2, cfg)
    assert c2.z_ohm == pytest.approx(c1.z_ohm, rel=1e-12)


def test_survey_bin_geometry_excited_bins_are_p_times_harmonics():
    # P periods map segment harmonic k to full-record bin P*k
    spec, current = make_multisine_current(period_s=18.0, f_min_hz=1 / 18, f_max_hz=2.0,
                                           points_per_decade=5, sample_rate_hz=20.0,
                                           periods=10, seed=3)
    full = np.abs(np.fft.fft(current.samples)) / current.n_samples
    strong = set(np.nonzero(full > 1e-6 * full.max())[0].tolist())
    expected = set((10 * spec.harmonics).tolist())
    expected |= {current.n_samples - k for k in expected}
    assert strong == expected

    voltage = current.with_samples(current.samples)
    spectra = per_period_spectra(current, voltage)
    seg = np.abs(spectra.mean_current)
    seg_strong = set(np.nonzero(seg > 1e-6 * seg.max())[0].tolist())
    assert seg_strong == set(spec.harmonics.tolist())


def test_nonparametric_skips_weak_bins_with_warning():
    current = generate_periodic_noise(2.0, 32.0, 3, seed=9)
    voltage = current.with_samples(1.5 * current.samples)
    spectra = per_period_spectra(current, voltage)
    # bin 30 is fine, but ask also for a bin where the current is zeroed
    doctored = per_period_spectra(
        current.with_samples(current.samples - current.samples), voltage)
    with pytest.raises(ValueError), pytest.warns(UserWarning, match="vanishing"):
        nonparametric_impedance(doctored, EstimationConfig(bin_mask=[1]))
    with pytest.warns(UserWarning, match="vanishing"):
        curve = nonparametric_impedance(
            _doctor_weak_bin(spectra, bin_index=5), EstimationConfig(bin_mask=[4, 5]))
    assert curve.freq_hz.size == 1


def test_wtls_shares_the_weak_current_rule_of_the_nonparametric_estimate():
    current = generate_periodic_noise(2.0, 32.0, 3, seed=9)
    voltage = current.with_samples(1.5 * current.samples)
    doctored = per_period_spectra(
        current.with_samples(current.samples - current.samples), voltage)
    for estimator in (wtls_estimate, nonparametric_impedance):
        with pytest.raises(ValueError, match="^all excited bins have vanishing current spectrum$"), \
                pytest.warns(UserWarning, match="^skipping 31 excited bin"):
            estimator(doctored, EstimationConfig())
    # a partly weak selection: the fit keeps the weak bin, without a warning
    cfg = EstimationConfig(bin_window=(1, 12), n_r=0, iterations=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = wtls_estimate(_doctor_weak_bin(per_period_spectra(current, voltage), 5), cfg)
    assert result.bins.tolist() == list(range(1, 13))


def _doctor_weak_bin(spectra, bin_index):
    mean_current = spectra.mean_current.copy()
    mean_current[bin_index] = 0.0
    return dataclasses.replace(spectra, mean_current=mean_current)


def test_nonparametric_drops_dc_and_nyquist_with_the_mask_warning():
    current = generate_periodic_noise(1.0, 32.0, 2, seed=10)
    voltage = current.with_samples(current.samples)
    spectra = per_period_spectra(current, voltage)
    with pytest.warns(UserWarning, match="^2 of 3 mask bins outside the window$"):
        cfg = EstimationConfig(bin_mask=[0, 3, 16])  # 16 is the segment Nyquist bin
        curve = nonparametric_impedance(spectra, cfg)
    assert curve.freq_hz.tolist() == [3.0]
