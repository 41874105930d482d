import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from fracimp import (
    MultisineSpec,
    NoiseSpec,
    RandlesParams,
    TimeRecord,
    add_noise,
    generate_periodic_noise,
    randles_impedance,
    scale_to_rms,
    simulate_response,
    synthesize_multisine,
)

from conftest import make_multisine_current


def test_degenerate_resistor_path():
    # r_ct, c_dl, sigma_w driven to the positive-but-negligible limit: Z -> R_S
    p = RandlesParams(r_s=0.551, r_ct=1e-30, c_dl=1e-30, sigma_w=1e-30, ocv=3.6)
    _, current = make_multisine_current(period_s=10.0, f_min_hz=0.1, f_max_hz=1.0,
                                        points_per_decade=5, sample_rate_hz=20.0,
                                        periods=2)
    voltage = simulate_response(p, current)
    expected = 3.6 + 0.551 * current.samples
    assert np.abs(voltage.samples - expected).max() < 1e-9


def test_zero_current_gives_constant_ocv(sim_params):
    current = TimeRecord(samples=np.zeros(200), sample_rate_hz=20.0, period_s=5.0)
    voltage = simulate_response(sim_params, current)
    assert voltage.samples == pytest.approx(np.full(200, sim_params.ocv), abs=1e-12)


def test_single_sine_response_matches_sinusoid_arithmetic(sim_params):
    period_s, fs, periods, k, alpha, phi = 8.0, 32.0, 3, 5, 0.4, 1.1
    spec = MultisineSpec(period_s=period_s, harmonics=[k], amplitudes=[alpha], phases=[phi])
    current = synthesize_multisine(spec, fs, periods)
    voltage = simulate_response(sim_params, current)

    omega = 2 * np.pi * k / period_s
    z = randles_impedance(sim_params, omega)
    t = np.arange(current.n_samples) / current.sample_rate_hz
    expected = sim_params.ocv + abs(z) * alpha * np.sin(omega * t + phi + np.angle(z))
    assert np.abs(voltage.samples - expected).max() < 1e-10


def test_noiseless_response_is_exactly_periodic(sim_params):
    _, current = make_multisine_current(period_s=20.0, f_min_hz=0.05, f_max_hz=2.0,
                                        points_per_decade=8, sample_rate_hz=40.0,
                                        periods=4)
    voltage = simulate_response(sim_params, current)
    per_period = voltage.samples.reshape(4, -1)
    deviation = np.abs(per_period - per_period[0]).max()
    ac = voltage.samples - voltage.samples.mean()
    assert deviation < 1e-10 * np.sqrt(np.mean(ac**2))


def test_linearity_of_the_ac_response(sim_params):
    spec1 = MultisineSpec(period_s=4.0, harmonics=[1, 3], amplitudes=[1.0, 0.5],
                          phases=[0.2, 2.2])
    spec2 = MultisineSpec(period_s=4.0, harmonics=[5, 9], amplitudes=[0.8, 0.3],
                          phases=[1.0, 4.4])
    i1 = synthesize_multisine(spec1, 40.0, 2)
    i2 = synthesize_multisine(spec2, 40.0, 2)
    alpha, beta = 1.7, -0.6
    combo = i1.with_samples(alpha * i1.samples + beta * i2.samples)

    v1 = simulate_response(sim_params, i1).samples - sim_params.ocv
    v2 = simulate_response(sim_params, i2).samples - sim_params.ocv
    v12 = simulate_response(sim_params, combo).samples - sim_params.ocv
    expected = alpha * v1 + beta * v2
    scale = np.abs(expected).max()
    assert np.abs(v12 - expected).max() < 1e-10 * scale


def test_voltage_spectrum_supported_on_dc_plus_excited_bins(sim_params):
    spec, current = make_multisine_current(period_s=16.0, f_min_hz=1 / 16, f_max_hz=1.5,
                                           points_per_decade=6, sample_rate_hz=16.0,
                                           periods=3)
    voltage = simulate_response(sim_params, current)
    spectrum = np.fft.fft(voltage.samples) / voltage.n_samples
    n = voltage.n_samples
    allowed = {0} | set((3 * spec.harmonics).tolist())
    allowed |= {n - k for k in allowed if k != 0}
    mask = np.ones(n, dtype=bool)
    mask[sorted(allowed)] = False
    assert np.abs(spectrum[mask]).max() < 1e-12 * np.abs(spectrum).max()


def test_fractional_period_record_is_rejected():
    with pytest.raises(ValueError, match="positive integer"):
        TimeRecord(samples=np.zeros(9), sample_rate_hz=3.0, period_s=1.5)


def test_noisy_current_is_rejected_as_not_steady_state(sim_params):
    _, current = make_multisine_current(period_s=4.0, f_min_hz=0.25, f_max_hz=2.0,
                                        points_per_decade=4, sample_rate_hz=16.0,
                                        periods=3)
    noisy = add_noise(current, NoiseSpec(snr=50.0, seed=5))
    with pytest.raises(ValueError, match="steady-state"):
        simulate_response(sim_params, noisy)


def test_periodicity_error_names_the_first_breaking_sample(sim_params):
    _, current = make_multisine_current(period_s=4.0, f_min_hz=0.25, f_max_hz=2.0,
                                        points_per_decade=4, sample_rate_hz=16.0,
                                        periods=3)
    samples = current.samples.copy()
    samples[[100, 75]] += 1e-3  # periods of 64 samples: 75 is in the second
    with pytest.raises(ValueError, match="sample 75 differs from sample 11 "):
        simulate_response(sim_params, current.with_samples(samples))


# ---------------------------------------------------------------- noise injection


def test_huge_snr_is_identity():
    _, current = make_multisine_current(period_s=4.0, f_min_hz=0.25, f_max_hz=2.0,
                                        points_per_decade=4, sample_rate_hz=16.0,
                                        periods=1)
    noisy = add_noise(current, NoiseSpec(snr=1e12, seed=1))
    assert np.abs(noisy.samples - current.samples).max() < 1e-9 * current.rms()


def test_noise_sigma_definition():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=1_000_000)
    samples *= 1.0 / np.sqrt(np.mean(samples**2))  # unit RMS, zero-mean-ish
    record = TimeRecord(samples=samples, sample_rate_hz=1000.0, period_s=1000.0)
    noisy = add_noise(record, NoiseSpec(snr=50.0, seed=3))
    injected = noisy.samples - record.samples
    assert injected.std() == pytest.approx(
        np.sqrt(np.mean((samples - samples.mean())**2)) / 50.0, rel=0.01)


def test_noise_sigma_references_ac_component(sim_params):
    # a large OCV offset must not inflate the voltage noise
    _, current = make_multisine_current(period_s=4.0, f_min_hz=0.25, f_max_hz=1.0,
                                        points_per_decade=3, sample_rate_hz=64.0,
                                        periods=4)
    voltage = simulate_response(sim_params, current)
    ac_rms = np.sqrt(np.mean((voltage.samples - voltage.samples.mean())**2))
    noisy = add_noise(voltage, NoiseSpec(snr=10.0, seed=4))
    injected = noisy.samples - voltage.samples
    assert injected.std() == pytest.approx(ac_rms / 10.0, rel=0.1)
    # an OCV-referenced definition would have given sigma = 0.36 here
    assert injected.std() < 0.2 * sim_params.ocv / 10.0


@pytest.mark.parametrize("current", [
    make_multisine_current(period_s=10.0, f_min_hz=0.1, f_max_hz=1.0, points_per_decade=5,
                           sample_rate_hz=20.0, periods=2)[1],
    make_multisine_current(period_s=10.0, f_min_hz=0.1, f_max_hz=1.0, points_per_decade=5,
                           sample_rate_hz=2.1, periods=2)[1],  # 21 samples, no Nyquist bin
    scale_to_rms(generate_periodic_noise(1.0, 64.0, 3, seed=4), 0.5),  # Nyquist bin excited
], ids=["even", "odd", "noise"])
def test_an_ocv_is_refused_exactly_where_its_float_step_exceeds_the_bound(sim_params, current):
    """The bound is ulp(ocv) <= sqrt(12) * 1e-6 * AC RMS, so the refused OCVs start at a
    power of two; the RMS in the message is the record's, though taken from its spectrum."""
    response = simulate_response(dataclasses.replace(sim_params, ocv=0.0), current).samples
    rms = math.sqrt(np.mean((response - response.mean()) ** 2))
    largest_step = math.sqrt(12.0) * 1e-6 * rms
    limit = 2.0 ** math.floor(math.log2(largest_step) + 53)
    assert math.ulp(np.nextafter(limit, 0.0)) <= largest_step < math.ulp(limit)

    simulate_response(dataclasses.replace(sim_params, ocv=np.nextafter(limit, 0.0)), current)
    message = (f"ocv must be less than {limit:.6g} in magnitude for a response of AC RMS "
               f"{rms:.6g}, or its rounding swamps the response")
    for ocv in (limit, -limit, 1e300):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_response(dataclasses.replace(sim_params, ocv=ocv), current)


def test_an_ocv_whose_dc_bin_overflows_is_refused(sim_params):
    _, current = make_multisine_current(period_s=10.0, f_min_hz=0.1, f_max_hz=1.0,
                                        points_per_decade=5, sample_rate_hz=20.0, periods=2)
    message = (f"ocv must be at most {sys.float_info.max / 200:.6g} in magnitude for 200 "
               "samples per period, or its DC bin overflows")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_response(dataclasses.replace(sim_params, ocv=-1e307), current)
