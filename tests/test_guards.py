"""Library-level guards that the CLI schemas or earlier checks shadow."""

import re

import numpy as np
import pytest

from fracimp import (
    EstimationConfig,
    HalfOrderRational,
    MultisineSpec,
    SpectralSet,
    TimeRecord,
    design_odd_quasilog,
    nonparametric_impedance,
    per_period_spectra,
    scale_to_rms,
    warburg_impedance,
)
from fracimp.excitation import samples_per_period
from fracimp.model import ImpedanceCurve

from conftest import spectral_set

_ONE_SAMPLE_PERIODS = TimeRecord(np.array([1.0, -1.0]), 1.0, 1.0)
_ONES = np.ones(3)


@pytest.mark.parametrize("call, message", [
    (lambda: design_odd_quasilog(0.0, 0.05, 2.0, 8), "period_s must be positive"),
    (lambda: design_odd_quasilog(-20.0, 0.05, 2.0, 8), "period_s must be positive"),
    (lambda: design_odd_quasilog(20.0, 0.05, 2.0, 0), "points_per_decade must be >= 1"),
    (lambda: scale_to_rms(_ONE_SAMPLE_PERIODS, 0.0), "rms_target must be positive"),
    (lambda: warburg_impedance(-0.1, 1.0), "sigma_w must be nonnegative"),
    (lambda: per_period_spectra(_ONE_SAMPLE_PERIODS, _ONE_SAMPLE_PERIODS),
     "need at least 2 samples per period"),
    (lambda: nonparametric_impedance(
        per_period_spectra(*[TimeRecord(np.arange(4.0), 2.0, 1.0)] * 2), []),
     "excited_bins must be nonempty"),
    (lambda: nonparametric_impedance(spectral_set(1.0, _ONES, _ONES), [5]),
     "excited bin 5 outside spectrum (max 2)"),
    (lambda: EstimationConfig(n_b=-1), "n_b must be >= 0"),
    (lambda: EstimationConfig(n_r=-1), "n_r must be >= 0"),
    (lambda: MultisineSpec(20.0, [0, 1], [1.0, 1.0], [0.0, 0.0]),
     "harmonics must be >= 1 (DC is never excited)"),
    # an integer period beyond the float range overflows the product
    (lambda: samples_per_period(10**400, 1.0),
     "period_s*sample_rate_hz = inf is not a finite sample count per period that is a "
     "positive integer, so no record length is whole periods "
     f"(period_s={10**400}, sample_rate_hz=1.0)"),
    (lambda: TimeRecord(_ONES, 0.0, 1.0), "sample_rate_hz must be positive"),
    (lambda: TimeRecord(_ONES, 1.0, 0.0), "period_s must be positive"),
    (lambda: TimeRecord(np.ones((2, 2)), 1.0, 1.0), "samples must be 1-D"),
    (lambda: HalfOrderRational(a=[1.0], b=[np.nan]), "coefficients must be finite"),
    (lambda: ImpedanceCurve(freq_hz=[1.0, 2.0], z_ohm=[1.0]),
     "freq_hz and z_ohm must have the same shape"),
    (lambda: SpectralSet(np.arange(3.0), _ONES[:2], _ONES, None, None, None),
     "mean_current must have one entry per bin"),
    (lambda: spectral_set(1.0, _ONES, _ONES, -_ONES, _ONES, 0 * _ONES),
     "variances must be nonnegative"),
    (lambda: spectral_set(1.0, _ONES, _ONES, _ONES, _ONES, 2 * _ONES),
     "covariance violates the Cauchy-Schwarz bound"),
], ids=["design period 0", "design period negative", "design points_per_decade 0",
        "scale rms 0", "warburg sigma negative", "spectra one sample per period",
        "nonparametric no bins", "nonparametric bin beyond spectrum", "config n_b negative",
        "config n_r negative", "multisine DC harmonic", "samples per period overflow",
        "record rate 0", "record period 0", "record 2-D", "rational not finite",
        "curve shape mismatch", "spectra mean length", "spectra negative variance",
        "spectra Cauchy-Schwarz"])
def test_library_guard_raises_naming_its_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
