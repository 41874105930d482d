"""Frequency-domain identification of fractional-order battery impedance models.

Pipeline: design an excitation (`excitation`), simulate or measure a
current/voltage record (`simulate`, `recordio`), average per-period spectra
with errors-in-variables covariances (`spectra`), estimate the half-power
rational impedance by iteratively reweighted total least squares and the
nonparametric impedance on the same bins (`estimator`), and recover Randles
circuit values (`ecmfit`).
"""

from .ecmfit import EcmFitResult, fit_randles, init_from_coefficients
from .errors import FracimpError, NumericsError, SchemaError
from .estimator import (
    EstimateResult,
    EstimationConfig,
    equation_error_sigma,
    nonparametric_impedance,
    parametric_impedance,
    relative_error_curve,
    wtls_estimate,
)
from .excitation import (
    MultisineSpec,
    TimeRecord,
    design_odd_quasilog,
    generate_periodic_noise,
    scale_to_rms,
    synthesize_multisine,
)
from .model import (
    HalfOrderRational,
    ImpedanceCurve,
    RandlesParams,
    eval_rational,
    randles_impedance,
    randles_to_rational,
    resonance_frequency,
    warburg_impedance,
)
from .recordio import read_record, write_record
from .simulate import NoiseSpec, add_noise, simulate_response
from .spectra import SpectralSet, per_period_spectra

__version__ = "0.1.0"

__all__ = [
    "EcmFitResult",
    "EstimateResult",
    "EstimationConfig",
    "FracimpError",
    "HalfOrderRational",
    "ImpedanceCurve",
    "MultisineSpec",
    "NoiseSpec",
    "NumericsError",
    "RandlesParams",
    "SchemaError",
    "SpectralSet",
    "TimeRecord",
    "add_noise",
    "design_odd_quasilog",
    "equation_error_sigma",
    "eval_rational",
    "fit_randles",
    "generate_periodic_noise",
    "init_from_coefficients",
    "nonparametric_impedance",
    "parametric_impedance",
    "per_period_spectra",
    "randles_impedance",
    "randles_to_rational",
    "read_record",
    "relative_error_curve",
    "resonance_frequency",
    "scale_to_rms",
    "simulate_response",
    "synthesize_multisine",
    "warburg_impedance",
    "write_record",
    "wtls_estimate",
]
