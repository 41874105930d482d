"""Shared builders for the simulation-protocol tests."""

import numpy as np
import pytest

from fracimp import (
    RandlesParams,
    SpectralSet,
    design_odd_quasilog,
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
