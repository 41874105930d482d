"""The paper's consistency claim, checked by Monte Carlo.

With noise on both channels, plain total least squares is biased and the
weighting removes the bias.  On the protocol circuit at P = 5, each check
draws fixed seeds from `conftest.MONTE_CARLO_SEED` and holds the six free
coefficients [a_2, a_3, b_0..b_3] of the weighted estimate to
|mean error| / standard error under a bound that fails an unbiased
coefficient at a false-alarm rate of 1e-4 over the six.  Plain TLS
(``iterations=0``) on the same records must cross that bound, so the check
would see the bias that the weighting exists to remove.
"""

import dataclasses

import numpy as np
import pytest

from fracimp import (
    EstimationConfig,
    design_odd_quasilog,
    generate_periodic_noise,
    randles_to_rational,
    scale_to_rms,
    simulate_response,
    synthesize_multisine,
    wtls_estimate,
)

from conftest import (
    MONTE_CARLO_SEED,
    SIM_PARAMS,
    bias_bound,
    bias_in_standard_errors,
    monte_carlo,
    noisy_spectra,
)

TRUTH = randles_to_rational(SIM_PARAMS)
FREE = np.concatenate([TRUTH.a[1:], TRUTH.b])
FALSE_ALARM = 1e-4
PERIOD_S, FS, PERIODS, RMS = 200.0, 200.0, 5, 0.5


def _multisine():
    spec = design_odd_quasilog(PERIOD_S, 0.005, 10.0, 12, seed=MONTE_CARLO_SEED)
    current = synthesize_multisine(spec, FS, PERIODS)
    return current, EstimationConfig(bin_mask=spec.harmonics)


def _noise_window():
    current = generate_periodic_noise(PERIOD_S, FS, PERIODS, seed=MONTE_CARLO_SEED)
    return current, EstimationConfig(bin_window=(1, 2000))


# plain TLS's bias grows as the noise variance and its standard error as the noise
# deviation: on the multisine it is about 4 standard errors over 40 draws at SNR 20,
# so it runs at SNR 10; on the noise window it is thousands at SNR 20
@pytest.mark.parametrize("excitation, snr, draws", [(_multisine, 10.0, 60),
                                                     (_noise_window, 20.0, 40)],
                         ids=["multisine", "noise window"])
def test_the_weighted_estimate_is_unbiased_and_plain_tls_is_not(excitation, snr, draws):
    current, cfg = excitation()
    current = scale_to_rms(current, RMS)
    voltage = simulate_response(SIM_PARAMS, current)
    plain = dataclasses.replace(cfg, iterations=0)

    def errors(seed):
        spectra = noisy_spectra(current, voltage, snr, seed)
        return [np.concatenate([r.a[1:], r.b]) - FREE
                for r in (wtls_estimate(spectra, c).rational for c in (cfg, plain))]

    weighted, tls = bias_in_standard_errors(monte_carlo(errors, draws))
    bound = bias_bound(FALSE_ALARM, FREE.size, draws)
    assert weighted.max() < bound, f"weighted bias {weighted.round(2)} against {bound:.2f}"
    assert tls.max() > bound, f"plain TLS bias {tls.round(2)} against {bound:.2f}"
