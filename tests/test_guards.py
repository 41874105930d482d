"""Library-level guards that the CLI schemas or earlier checks shadow."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimp import (
    EstimationConfig,
    HalfOrderRational,
    MultisineSpec,
    NoiseSpec,
    RandlesParams,
    SpectralSet,
    TimeRecord,
    add_noise,
    design_odd_quasilog,
    generate_periodic_noise,
    nonparametric_impedance,
    per_period_spectra,
    randles_impedance,
    scale_to_rms,
    synthesize_multisine,
    warburg_impedance,
    wtls_estimate,
)
from fracimp import spectra
from fracimp.excitation import samples_per_period
from fracimp.model import ImpedanceCurve

from conftest import SIM_PARAMS, spectral_set

_ONE_SAMPLE_PERIODS = TimeRecord(np.array([1.0, -1.0]), 1.0, 1.0)
_ONES = np.ones(3)


_NAN = float("nan")
_SPECTRUM_OF_4 = per_period_spectra(*[TimeRecord(np.arange(4.0), 2.0, 1.0)] * 2)


def _scaled(record, gain):
    """`record` with every sample times `gain`."""
    return record.with_samples(record.samples * gain)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: design_odd_quasilog(0.0, 0.05, 2.0, 8), "period_s must be positive",
                 id="design period 0"),
    pytest.param(lambda: design_odd_quasilog(-20.0, 0.05, 2.0, 8), "period_s must be positive",
                 id="design period negative"),
    pytest.param(lambda: design_odd_quasilog(20.0, 0.05, 2.0, 0),
                 "points_per_decade must be >= 1", id="design points_per_decade 0"),
    pytest.param(lambda: design_odd_quasilog(1e17, 1e-17, 1.0, 8),
                 "f_max_hz must be at most 2**53/period_s = 0.090072 Hz, as no float above "
                 "harmonic 2**53 is odd",
                 id="design band beyond 2**53"),
    pytest.param(lambda: scale_to_rms(_ONE_SAMPLE_PERIODS, 0.0), "rms_target must be positive",
                 id="scale rms 0"),
    pytest.param(lambda: scale_to_rms(TimeRecord(np.zeros(4), 4.0, 1.0), 1.0),
                 "cannot scale an identically zero record", id="scale zero record"),
    # a scale or a noise draw that would leave a record whose squares or samples
    # are not finite normal floats
    pytest.param(lambda: scale_to_rms(_ONE_SAMPLE_PERIODS, 1e-155),
                 "rms_target must be at least 1.49167e-154, or the record's squares underflow",
                 id="scale rms underflow"),
    pytest.param(lambda: scale_to_rms(_ONE_SAMPLE_PERIODS, 1e154),
                 "rms_target must be at most 6.7039e+153 for 2 samples, or the sum of their "
                 "squares can overflow", id="scale rms overflow"),
    # a record whose own squares overflow, fall below the normal floats or underflow
    # to zero, which would scale to zeros, to an inexact RMS or read as all zeros
    pytest.param(lambda: scale_to_rms(_scaled(_ONE_SAMPLE_PERIODS, 1e200), 0.5),
                 "the record's RMS inf must be at most 6.7039e+153 for 2 samples, or the sum "
                 "of their squares can overflow", id="scale record overflow"),
    pytest.param(lambda: scale_to_rms(_scaled(_ONE_SAMPLE_PERIODS, 1e-158), 0.5),
                 "the record's RMS 1e-158 must be at least 1.49167e-154, or the record's "
                 "squares underflow", id="scale record subnormal squares"),
    pytest.param(lambda: scale_to_rms(_scaled(_ONE_SAMPLE_PERIODS, 1e-200), 0.5),
                 "the record's RMS 0 must be at least 1.49167e-154, or the record's squares "
                 "underflow", id="scale record squares underflow"),
    pytest.param(lambda: add_noise(_ONE_SAMPLE_PERIODS, NoiseSpec(snr=1e-308)),
                 "snr must be at least 1.49167e-154 for 2 samples of RMS 1 and AC RMS 1, or "
                 "the noisy record's sum of squares can overflow", id="noise sigma overflow"),
    pytest.param(lambda: add_noise(TimeRecord(np.array([1e300, -1e300]), 1.0, 1.0),
                                   NoiseSpec(snr=50.0)),
                 "record's AC power overflows; SNR is undefined", id="noise AC power overflow"),
    pytest.param(lambda: add_noise(TimeRecord(np.full(16, 3.6), 4.0, 4.0), NoiseSpec(snr=10.0)),
                 "record has no AC content; SNR is undefined", id="noise pure DC"),
    pytest.param(lambda: NoiseSpec(snr=0.0), "snr must be positive", id="noise snr 0"),
    pytest.param(lambda: warburg_impedance(-0.1, 1.0), "sigma_w must be nonnegative",
                 id="warburg sigma negative"),
    pytest.param(lambda: warburg_impedance(0.03, -1.0),
                 "omega must be strictly positive (Warburg diverges at DC)",
                 id="warburg omega negative"),
    pytest.param(lambda: randles_impedance(SIM_PARAMS, 0.0),
                 "omega must be strictly positive (Warburg diverges at DC)", id="randles omega 0"),
    pytest.param(lambda: RandlesParams(0.0, 0.1, 1.0, 0.1), "r_s must be strictly positive",
                 id="randles r_s 0"),
    pytest.param(lambda: per_period_spectra(_ONE_SAMPLE_PERIODS, _ONE_SAMPLE_PERIODS),
                 "need at least 2 samples per period", id="spectra one sample per period"),
    pytest.param(lambda: nonparametric_impedance(_SPECTRUM_OF_4, EstimationConfig(bin_mask=[])),
                 "bin_mask leaves no bin in the window", id="nonparametric no bins"),
    pytest.param(lambda: nonparametric_impedance(spectral_set(1.0, _ONES, _ONES),
                                                 EstimationConfig(bin_mask=[5])),
                 "bin_mask must lie within the spectrum (max bin 2), got 5",
                 id="nonparametric bin beyond spectrum"),
    pytest.param(lambda: nonparametric_impedance(_SPECTRUM_OF_4,
                                                 EstimationConfig(bin_mask=[2.5, 3.9])),
                 "bin_mask must hold whole bin numbers", id="nonparametric fractional bins"),
    pytest.param(lambda: wtls_estimate(spectral_set(1.0, np.ones(4), np.ones(4)),
                                       EstimationConfig(bin_window=(1, 2), bin_mask=[3])),
                 "bin_mask leaves no bin in the window", id="wtls no bins"),
    pytest.param(lambda: EstimationConfig(n_a=0), "n_a must be >= 1", id="config n_a 0"),
    pytest.param(lambda: EstimationConfig(iterations=-1), "iterations must be >= 0",
                 id="config iterations negative"),
    pytest.param(lambda: EstimationConfig(bin_window=(3, 2)),
                 "bin_window must satisfy 1 <= k_min <= k_max", id="config bin_window inverted"),
    pytest.param(lambda: EstimationConfig(n_b=-1), "n_b must be >= 0", id="config n_b negative"),
    pytest.param(lambda: EstimationConfig(n_r=-1), "n_r must be >= 0", id="config n_r negative"),
    pytest.param(lambda: EstimationConfig(n_a=_NAN), "n_a must be >= 1", id="config n_a nan"),
    pytest.param(lambda: EstimationConfig(iterations=_NAN), "iterations must be >= 0",
                 id="config iterations nan"),
    # counts and periods take the whole-number rule of bins: 3.0 counts, 3.5 does not
    pytest.param(lambda: EstimationConfig(n_a=3.5), "n_a must be a whole number",
                 id="config n_a fractional"),
    pytest.param(lambda: EstimationConfig(n_b=1.5), "n_b must be a whole number",
                 id="config n_b fractional"),
    pytest.param(lambda: EstimationConfig(n_r=0.5), "n_r must be a whole number",
                 id="config n_r fractional"),
    pytest.param(lambda: EstimationConfig(iterations=2.5), "iterations must be a whole number",
                 id="config iterations fractional"),
    pytest.param(lambda: EstimationConfig(iterations=np.inf), "iterations must be a whole number",
                 id="config iterations inf"),
    pytest.param(lambda: EstimationConfig(n_a=10**400), "n_a must be a whole number",
                 id="config n_a beyond float"),
    pytest.param(lambda: synthesize_multisine(MultisineSpec(1.0, [1], [1.0], [0.0]), 4.0, 2.5),
                 "periods must be a whole number", id="multisine periods fractional"),
    pytest.param(lambda: generate_periodic_noise(1.0, 4.0, 2.5, seed=0),
                 "periods must be a whole number", id="noise periods fractional"),
    pytest.param(lambda: generate_periodic_noise(1.0, 4.0, _NAN, seed=0),
                 "periods must be a whole number", id="noise periods nan"),
    # numpy would refuse -1 as a negative dimension and 0 as an empty record
    pytest.param(lambda: generate_periodic_noise(1.0, 4.0, -1), "periods must be >= 1",
                 id="noise periods negative"),
    pytest.param(lambda: generate_periodic_noise(1.0, 4.0, 0), "periods must be >= 1",
                 id="noise periods 0"),
    pytest.param(lambda: synthesize_multisine(MultisineSpec(1.0, [1], [1.0], [0.0]), 4.0, 0),
                 "periods must be >= 1", id="multisine periods 0"),
    # an int beyond the float range is no whole bin number either
    pytest.param(lambda: EstimationConfig(bin_mask=[10**400]),
                 "bin_mask must hold whole bin numbers", id="config bin_mask beyond float"),
    pytest.param(lambda: MultisineSpec(20.0, [0, 1], [1.0, 1.0], [0.0, 0.0]),
                 "harmonics must be >= 1 (DC is never excited)", id="multisine DC harmonic"),
    pytest.param(lambda: MultisineSpec(1.0, [2, 2], [1.0, 1.0], [0.0, 0.0]),
                 "harmonics must be strictly increasing without duplicates",
                 id="multisine duplicate harmonics"),
    pytest.param(lambda: MultisineSpec(1.0, [1], [-1.0], [0.0]),
                 "amplitudes must be strictly positive", id="multisine amplitude negative"),
    pytest.param(lambda: MultisineSpec(1.0, [1], [1.0], [7.0]), "phases must lie in [0, 2*pi)",
                 id="multisine phase beyond 2*pi"),
    pytest.param(lambda: MultisineSpec(20.0, [1.5, 3.9], [1.0, 1.0], [0.0, 0.0]),
                 "harmonics must hold whole bin numbers", id="multisine fractional harmonics"),
    pytest.param(lambda: MultisineSpec(20.0, [10**400], [1.0], [0.0]),
                 "harmonics must hold whole bin numbers", id="multisine harmonic beyond float"),
    # an integer period beyond the float range overflows the product
    pytest.param(lambda: samples_per_period(10**400, 1.0),
                 "period_s*sample_rate_hz = inf is not a finite sample count per period that "
                 "is a positive integer, so no record length is whole periods "
                 f"(period_s={10**400}, sample_rate_hz=1.0)", id="samples per period overflow"),
    pytest.param(lambda: TimeRecord(_ONES, 0.0, 1.0), "sample_rate_hz must be positive",
                 id="record rate 0"),
    pytest.param(lambda: TimeRecord(_ONES, 1.0, 0.0), "period_s must be positive",
                 id="record period 0"),
    pytest.param(lambda: TimeRecord(np.ones((2, 2)), 1.0, 1.0), "samples must be 1-D",
                 id="record 2-D"),
    pytest.param(lambda: TimeRecord(np.zeros(7), 4.0, 1.0),
                 "record length 7 is not a positive multiple of period_s*sample_rate_hz = 4",
                 id="record length not whole periods"),
    pytest.param(lambda: HalfOrderRational(a=[1.0], b=[np.nan]), "coefficients must be finite",
                 id="rational not finite"),
    pytest.param(lambda: ImpedanceCurve(freq_hz=[1.0, 2.0], z_ohm=[1.0]),
                 "freq_hz and z_ohm must have the same shape", id="curve shape mismatch"),
    pytest.param(lambda: SpectralSet(1.0, 4, _ONES[:2], _ONES, None, None, None),
                 "mean_current must have one entry per bin", id="spectra mean length"),
    pytest.param(lambda: spectral_set(1.0, _ONES, _ONES, -_ONES, _ONES, 0 * _ONES),
                 "variances must be nonnegative", id="spectra negative variance"),
    pytest.param(lambda: spectral_set(1.0, _ONES, _ONES, _ONES, _ONES, 2 * _ONES),
                 "covariance violates the Cauchy-Schwarz bound", id="spectra Cauchy-Schwarz"),
    # NaN compares False both ways, so each guard is written to fail on it
    pytest.param(lambda: RandlesParams(_NAN, 0.1, 1.0, 0.03), "r_s must be strictly positive",
                 id="randles r_s nan"),
    pytest.param(lambda: MultisineSpec(_NAN, [1], [1.0], [0.0]), "period_s must be positive",
                 id="multisine period nan"),
    pytest.param(lambda: MultisineSpec(20.0, [1], [_NAN], [0.0]),
                 "amplitudes must be strictly positive", id="multisine amplitude nan"),
    pytest.param(lambda: MultisineSpec(20.0, [1], [1.0], [_NAN]), "phases must lie in [0, 2*pi)",
                 id="multisine phase nan"),
    pytest.param(lambda: NoiseSpec(snr=_NAN), "snr must be positive", id="noise snr nan"),
    pytest.param(lambda: warburg_impedance(_NAN, 1.0), "sigma_w must be nonnegative",
                 id="warburg sigma nan"),
    pytest.param(lambda: design_odd_quasilog(_NAN, 0.05, 2.0, 8), "period_s must be positive",
                 id="design period nan"),
    pytest.param(lambda: design_odd_quasilog(20.0, _NAN, 2.0, 8),
                 "f_min_hz must be at least the fundamental 1/period_s", id="design f_min nan"),
    pytest.param(lambda: design_odd_quasilog(20.0, 0.05, _NAN, 8), "f_max_hz must be >= f_min_hz",
                 id="design f_max nan"),
    pytest.param(lambda: design_odd_quasilog(20.0, 0.05, 2.0, _NAN),
                 "points_per_decade must be >= 1", id="design points_per_decade nan"),
    pytest.param(lambda: scale_to_rms(_ONE_SAMPLE_PERIODS, _NAN), "rms_target must be positive",
                 id="scale rms nan"),
    pytest.param(lambda: TimeRecord(_ONES, _NAN, 1.0), "sample_rate_hz must be positive",
                 id="record rate nan"),
])
def test_library_guard_raises_naming_its_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("seed", range(8))
def test_scale_and_noise_at_their_bounds_keep_the_record_usable(seed):
    """At each bound of scale_to_rms the RMS reads back without a warning (which
    the suite makes an error) and the next float beyond it raises; noise just
    above the smallest snr, which takes the record to that same upper bound,
    leaves its RMS and its spectral variance finite, and noise just below it raises."""
    record = generate_periodic_noise(1.0, 64.0, 3, seed=seed)
    rms_max = math.sqrt(sys.float_info.max / (2 * record.n_samples))
    for rms, beyond in ((math.sqrt(sys.float_info.min), 0.0), (rms_max, np.inf)):
        assert scale_to_rms(record, rms).rms() == pytest.approx(rms, rel=1e-12)
        with pytest.raises(ValueError, match="^rms_target must be at"):
            scale_to_rms(record, np.nextafter(rms, beyond))
    # the record's RMS is its AC RMS (zero mean) and far below rms_max, so the least
    # snr puts sigma at rms_max
    least = record.rms() / rms_max
    noisy = add_noise(record, NoiseSpec(snr=1.001 * least, seed=seed))
    assert np.isfinite(noisy.rms())
    variance = spectra._channel(noisy, noisy.periods, noisy.samples_per_period)[-1]
    assert np.isfinite(variance).all()
    with pytest.raises(ValueError, match="^snr must be at least"):
        add_noise(record, NoiseSpec(snr=0.999 * least, seed=seed))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exponent=st.floats(min_value=-200.0, max_value=200.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_record_of_any_scale_scales_to_its_target_or_raises(exponent, seed):
    """A normal record times 10^e, e drawn from [-200, 200], either scales to the
    target RMS or raises a ValueError: never to zeros or to an RMS off the target,
    and without a warning (which the suite makes an error)."""
    record = _scaled(generate_periodic_noise(1.0, 64.0, 3, seed=seed), 10.0**exponent)
    try:
        scaled = scale_to_rms(record, 0.5)
    except ValueError:
        return
    assert scaled.rms() == pytest.approx(0.5, rel=1e-12)
