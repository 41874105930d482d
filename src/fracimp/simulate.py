"""Steady-state voltage response of a battery impedance, plus SNR-controlled noise.

Simulation happens in the frequency domain on one period: the current record
must be exactly periodic, so multiplying the spectrum of one period by the
impedance gives the periodic steady-state voltage with no transient.  The
impedance is never evaluated at DC (it diverges there); the DC voltage bin is
the OCV.  An OCV so large that the voltage's rounding swamps the response is
refused (see `simulate_response`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .excitation import TimeRecord, largest_rms
from .model import RandlesParams, randles_impedance


# the OCV's rounding may be at most this fraction of the response's AC RMS:
# criterion 1's tolerance for the noiseless recovery of the coefficients
_OCV_ROUNDING = 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise level as signal-RMS over noise standard deviation."""

    snr: float
    seed: int | None = None

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive")


def simulate_response(p: RandlesParams, current: TimeRecord) -> TimeRecord:
    """Voltage record OCV + Z{i} for an exactly periodic current.

    Every period of the current must be bitwise identical to the first.  The
    response is computed circularly on that one period, which is exact for the
    periodic steady state, and tiled over the record.  The Nyquist bin (if
    present) is scaled by Re(Z) so that the sampled response of a real
    sinusoid at Nyquist comes out correctly real.

    The OCV is refused, with a ValueError that starts with ``ocv``, when its
    DC bin ocv * M overflows or when its rounding swamps the response.  Each
    voltage sample is a float near the OCV, so it is rounded to a step of
    about ulp(ocv), an error that acts as uniform noise of RMS
    ulp(ocv) / sqrt(12).  A noiseless record is meant to give the
    coefficients back to criterion 1's 1e-6 relative, so that noise may be at
    most 1e-6 of the response's AC RMS: ulp(ocv) <= sqrt(12) * 1e-6 * RMS.
    The AC RMS is taken from the response's spectrum by Parseval, so the
    check makes no pass over the record.  A response with no AC part loses
    nothing to rounding and is not refused.
    """
    m = current.samples_per_period
    per_period = current.samples.reshape(current.periods, m)
    for row in range(1, current.periods):
        differs = per_period[row] != per_period[0]
        if differs.any():
            first = row * m + int(np.argmax(differs))
            raise ValueError(
                f"current record is not exactly periodic: sample {first} differs "
                f"from sample {first % m} of the first period; this simulator is "
                "steady-state only"
            )

    dc = p.ocv * m  # unnormalized rfft convention: DC bin = M * mean
    if not math.isfinite(dc):
        raise ValueError(f"ocv must be at most {sys.float_info.max / m:.6g} in magnitude for "
                         f"{m} samples per period, or its DC bin overflows")
    spec = np.fft.rfft(per_period[0])
    k = np.arange(1, spec.size)
    omega = 2.0 * np.pi * k * current.sample_rate_hz / m
    z = randles_impedance(p, omega)
    if m % 2 == 0:
        z[-1] = z[-1].real
    out = np.empty_like(spec)
    out[0] = dc
    out[1:] = spec[1:] * z
    # Parseval: M^2 times the AC power is twice the power of bins 1.., the Nyquist bin once
    power = 2.0 * np.vdot(out[1:], out[1:]).real - (abs(out[-1]) ** 2 if m % 2 == 0 else 0.0)
    rms_ac = math.sqrt(power) / m
    largest_step = math.sqrt(12.0) * _OCV_ROUNDING * rms_ac
    if rms_ac > 0.0 and math.ulp(p.ocv) > largest_step:
        _, exp = math.frexp(largest_step)  # ulp(x) <= largest_step exactly for |x| < 2^(exp + 52)
        raise ValueError(f"ocv must be less than {math.ldexp(1.0, exp + 52):.6g} in magnitude "
                         f"for a response of AC RMS {rms_ac:.6g}, or its rounding swamps the "
                         "response")
    return current.with_samples(np.tile(np.fft.irfft(out, n=m), current.periods))


def add_noise(record: TimeRecord, spec: NoiseSpec) -> TimeRecord:
    """Add white Gaussian noise with sigma = RMS(record - mean)/snr.

    The SNR is referenced to the AC part so a large DC level (OCV on the
    voltage channel) does not inflate the noise.  A record whose AC part is
    zero or squares to infinity has no SNR.  An snr whose noisy record's
    expected RMS, hypot(mean, AC RMS, sigma), exceeds `excitation.largest_rms`
    would give a record whose squares and spectra can overflow; below that
    bound every sample is finite too, as numpy's standard normal never draws
    beyond +-12.3.  Each raises a ValueError before any noise is drawn.

    Memory: a call allocates one record-sized buffer, which becomes the
    noisy record.  It holds the squared AC part, then the standard normal
    draws, which are scaled by sigma and added to the samples in place: the
    same draws and bitwise the same sum as
    ``samples + rng.normal(0.0, sigma, n)``.
    """
    mean = record.samples.mean()
    buf = record.samples - mean
    with np.errstate(over="ignore"):  # an AC power that overflows raises below
        buf **= 2
        rms_ac = float(np.sqrt(np.mean(buf)))
    if rms_ac == 0.0:
        raise ValueError("record has no AC content; SNR is undefined")
    if rms_ac == np.inf:
        raise ValueError("record's AC power overflows; SNR is undefined")
    sigma = rms_ac / spec.snr
    rms, rms_max = math.hypot(mean, rms_ac), largest_rms(record.n_samples)
    if not math.hypot(rms, sigma) <= rms_max:
        room = math.sqrt(max(rms_max - rms, 0.0) * (rms_max + rms))  # the largest sigma left
        raise ValueError(f"snr must be at least {rms_ac / room if room else math.inf:.6g} for "
                         f"{record.n_samples} samples of RMS {rms:.6g} and AC RMS "
                         f"{rms_ac:.6g}, or the noisy record's sum of squares can overflow")
    np.random.default_rng(spec.seed).standard_normal(out=buf)
    buf *= sigma
    buf += record.samples
    return record.with_samples(buf)
