"""Library-level guards that the CLI schemas or earlier checks shadow."""

import re

import numpy as np
import pytest

from fracimp import (
    TimeRecord,
    design_odd_quasilog,
    nonparametric_impedance,
    per_period_spectra,
    scale_to_rms,
    warburg_impedance,
)

_ONE_SAMPLE_PERIODS = TimeRecord(np.array([1.0, -1.0]), 1.0, 1.0)


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
], ids=["design period 0", "design period negative", "design points_per_decade 0",
        "scale rms 0", "warburg sigma negative", "spectra one sample per period",
        "nonparametric no bins"])
def test_library_guard_raises_naming_its_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
