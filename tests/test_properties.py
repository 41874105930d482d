"""Randomized invariants of the estimator over circuit values, periods and seeds.

Circuit values are drawn within one decade either side of the protocol point
(x 10^U(-1, 1) per value) on a short record: 50 s period, 20 Hz sampling,
odd lines in 0.02-2 Hz.  Wider draws move the circuit's time constants out of
that band, where noiseless recovery is not expected to hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimp import (
    EstimationConfig,
    NoiseSpec,
    RandlesParams,
    add_noise,
    design_odd_quasilog,
    per_period_spectra,
    randles_to_rational,
    scale_to_rms,
    simulate_response,
    synthesize_multisine,
    wtls_estimate,
)

from conftest import SIM_PARAMS

_DECADE = st.floats(min_value=-1.0, max_value=1.0)


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@settings(max_examples=30, deadline=None)
@given(
    exponents=st.tuples(_DECADE, _DECADE, _DECADE, _DECADE),
    periods=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    gain=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
)
def test_recovery_normalization_and_scale_invariance(exponents, periods, seed, gain):
    e_s, e_ct, e_dl, e_w = exponents
    params = RandlesParams(r_s=SIM_PARAMS.r_s * 10**e_s, r_ct=SIM_PARAMS.r_ct * 10**e_ct,
                           c_dl=SIM_PARAMS.c_dl * 10**e_dl,
                           sigma_w=SIM_PARAMS.sigma_w * 10**e_w, ocv=3.6)
    spec = design_odd_quasilog(50.0, 0.02, 2.0, 8, seed=seed)
    current = scale_to_rms(synthesize_multisine(spec, 20.0, periods), 0.5)
    voltage = simulate_response(params, current)
    cfg = EstimationConfig(bin_mask=spec.harmonics)

    # noiseless data: exact recovery of the generating coefficients
    exact = wtls_estimate(per_period_spectra(current, voltage), cfg)
    truth = randles_to_rational(params)
    assert exact.rational.a[0] == 1.0
    assert _max_rel(exact.rational.a, truth.a) < 1e-6
    assert _max_rel(exact.rational.b, truth.b) < 1e-6

    # noisy data: the impedance coefficients ignore a common gain on both channels,
    # up to rounding amplified by the conditioning of the draw (worst seen: 6e-9)
    current = add_noise(current, NoiseSpec(snr=100.0, seed=seed))
    voltage = add_noise(voltage, NoiseSpec(snr=100.0, seed=seed + 1))
    base = wtls_estimate(per_period_spectra(current, voltage), cfg)
    scaled = wtls_estimate(per_period_spectra(current.with_samples(gain * current.samples),
                                              voltage.with_samples(gain * voltage.samples)),
                           cfg)
    assert base.rational.a[0] == 1.0
    assert _max_rel(scaled.rational.a, base.rational.a) < 1e-7
    assert _max_rel(scaled.rational.b, base.rational.b) < 1e-7
