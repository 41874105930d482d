"""Shared builders for the simulation-protocol tests, and a seeded Monte Carlo."""

from statistics import NormalDist

import numpy as np
import pytest

from fracimp import (
    NoiseSpec,
    RandlesParams,
    SpectralSet,
    add_noise,
    design_odd_quasilog,
    per_period_spectra,
    scale_to_rms,
    simulate_response,
    synthesize_multisine,
)

# circuit values used throughout the simulation protocol
SIM_PARAMS = RandlesParams(r_s=0.551, r_ct=0.119, c_dl=1.464, sigma_w=0.0346, ocv=3.6)


@pytest.fixture(scope="session")
def sim_params():
    return SIM_PARAMS


def make_multisine_current(period_s=200.0, f_min_hz=0.005, f_max_hz=10.0,
                           points_per_decade=12, sample_rate_hz=200.0, periods=5,
                           rms=0.5, seed=20260809):
    spec = design_odd_quasilog(period_s, f_min_hz, f_max_hz, points_per_decade, seed=seed)
    record = scale_to_rms(synthesize_multisine(spec, sample_rate_hz, periods), rms)
    return spec, record


def simulate_pair(spec_record, params=SIM_PARAMS):
    spec, current = spec_record
    return spec, current, simulate_response(params, current)


def spectral_set(period_s, mean_current, mean_voltage, var_current=None,
                 var_voltage=None, covar_vi=None):
    """A SpectralSet on bins k/period_s from given per-bin means and noise.

    n bins are those of M = 2(n - 1) samples per period, so the last is the
    Nyquist bin.
    """
    mean_current = np.asarray(mean_current, dtype=complex)
    mean_voltage = np.asarray(mean_voltage, dtype=complex)
    return SpectralSet(
        period_s=period_s,
        samples_per_period=2 * (mean_current.size - 1),
        mean_current=mean_current,
        mean_voltage=mean_voltage,
        var_current=None if var_current is None else np.asarray(var_current, dtype=float),
        var_voltage=None if var_voltage is None else np.asarray(var_voltage, dtype=float),
        covar_vi=None if covar_vi is None else np.asarray(covar_vi, dtype=complex),
    )


# the first Monte Carlo seed; no other test draws from 500 000 upward
MONTE_CARLO_SEED = 500_000


def monte_carlo(draw, count):
    """`draw(seed)` for `count` fixed seeds from MONTE_CARLO_SEED, stacked along a new
    first axis."""
    return np.array([draw(seed) for seed in range(MONTE_CARLO_SEED, MONTE_CARLO_SEED + count)])


def noisy_spectra(current, voltage, snr, seed):
    """Per-period spectra of `current` and `voltage`, each with white noise at `snr`
    seeded by one of the first two children of `SeedSequence(seed)`, children 0 and 1
    (`fracimp simulate` seeds its noise from children 1 and 2, after the excitation's)."""
    i_seed, v_seed = (int(child.generate_state(1, np.uint64)[0])
                      for child in np.random.SeedSequence(seed).spawn(2))
    return per_period_spectra(add_noise(current, NoiseSpec(snr=snr, seed=i_seed)),
                              add_noise(voltage, NoiseSpec(snr=snr, seed=v_seed)))


def bias_in_standard_errors(draws):
    """|mean| over the standard error of the mean, along the first axis of `draws`."""
    draws = np.asarray(draws)
    return np.abs(draws.mean(axis=0)) / (draws.std(axis=0, ddof=1) / np.sqrt(len(draws)))


def bias_bound(false_alarm, quantities, draws):
    """The bound on `bias_in_standard_errors` that `quantities` unbiased Gaussian
    quantities, over `draws` draws, cross with probability at most `false_alarm` in
    all: the two-sided Bonferroni quantile of Student's t with draws - 1 degrees of
    freedom, by the Cornish-Fisher series of Abramowitz and Stegun 26.7.5 (within
    0.01 of the exact quantile from 20 draws up at a false-alarm rate of 1e-4)."""
    z = NormalDist().inv_cdf(1.0 - false_alarm / (2 * quantities))
    nu = draws - 1
    return (z + (z**3 + z) / (4 * nu) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * nu**2)
            + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * nu**3))
