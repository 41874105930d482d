"""The in-place spectra and noise stages: bitwise the earlier formulas, bounded transient memory.

`per_period_spectra` and `add_noise` work inside the arrays they must
allocate anyway.  The reference functions below are the plain-expression
formulas they replaced; at the protocol record size the two must agree bit
for bit, and tracemalloc (which numpy reports its allocations to) bounds what
each call allocates relative to one input record.
"""

import tracemalloc

import numpy as np
import pytest

from fracimp import NoiseSpec, add_noise, per_period_spectra

from conftest import make_multisine_current, simulate_pair

FIELDS = ("freq_hz", "mean_current", "mean_voltage", "var_current", "var_voltage", "covar_vi")


def _spectra_reference(current, voltage):
    p, m = current.periods, current.samples_per_period
    cur = np.fft.rfft(current.samples.reshape(p, m), axis=1) / m
    vol = np.fft.rfft(voltage.samples.reshape(p, m), axis=1) / m
    d_cur, d_vol = cur[1:] - cur[0], vol[1:] - vol[0]
    s_cur, s_vol = d_cur.sum(axis=0), d_vol.sum(axis=0)
    return {
        "freq_hz": np.arange(m // 2 + 1) / current.period_s,
        "mean_current": cur.mean(axis=0),
        "mean_voltage": vol.mean(axis=0),
        "var_current": (np.sum(np.abs(d_cur) ** 2, axis=0) - np.abs(s_cur) ** 2 / p) / (p - 1),
        "var_voltage": (np.sum(np.abs(d_vol) ** 2, axis=0) - np.abs(s_vol) ** 2 / p) / (p - 1),
        "covar_vi": (np.sum(d_vol * np.conj(d_cur), axis=0) - s_vol * np.conj(s_cur) / p) / (p - 1),
    }


def _noise_reference(record, spec):
    ac = record.samples - record.samples.mean()
    sigma = float(np.sqrt(np.mean(ac**2))) / spec.snr
    rng = np.random.default_rng(spec.seed)
    return record.samples + rng.normal(0.0, sigma, record.n_samples)


def _protocol_pair(periods):
    """Protocol record: 40 000 samples per period, exact current and voltage."""
    _, current, voltage = simulate_pair(make_multisine_current(periods=periods))
    assert current.samples_per_period == 40_000
    return current, voltage


@pytest.mark.parametrize("periods", [2, 5])
def test_in_place_stages_are_bitwise_the_reference_formulas(periods):
    current, voltage = _protocol_pair(periods)
    noisy = {}
    for name, record, seed in (("current", current, 11), ("voltage", voltage, 12)):
        spec = NoiseSpec(snr=50.0, seed=seed)
        noisy[name] = add_noise(record, spec)
        assert np.array_equal(noisy[name].samples, _noise_reference(record, spec))
    # noisy pair, and exact current with noisy voltage (zero current variance)
    for cur, vol in ((noisy["current"], noisy["voltage"]), (current, noisy["voltage"])):
        spectra = per_period_spectra(cur, vol)
        reference = _spectra_reference(cur, vol)
        for field in FIELDS:
            assert np.array_equal(getattr(spectra, field), reference[field]), field


def _peak_bytes(call):
    """Bytes allocated at the peak of `call`, above what was allocated before it."""
    call()  # warm-up: FFT plans and other one-time allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_spectra_and_noise_allocate_within_their_bounds():
    current, voltage = _protocol_pair(5)
    record_bytes = current.samples.nbytes
    noisy = add_noise(voltage, NoiseSpec(snr=50.0, seed=3))
    # the two rfft outputs plus a half-record real buffer, with the outputs
    # and the SpectralSet checks on top; the plain expressions needed 5.7x
    assert _peak_bytes(lambda: per_period_spectra(current, noisy)) <= 4.0 * record_bytes
    # the one buffer that becomes the noisy record; the plain expressions needed 2.25x
    assert _peak_bytes(lambda: add_noise(voltage, NoiseSpec(snr=50.0, seed=3))) \
        <= 1.5 * record_bytes
