"""Steady-state voltage response of a battery impedance, plus SNR-controlled noise.

Simulation happens in the frequency domain on one period: the current record
must be exactly periodic, so multiplying the spectrum of one period by the
impedance gives the periodic steady-state voltage with no transient.  The
impedance is never evaluated at DC (it diverges there); the DC voltage bin is
the OCV.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .excitation import TimeRecord
from .model import RandlesParams, randles_impedance


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

    spec = np.fft.rfft(per_period[0])
    k = np.arange(1, spec.size)
    omega = 2.0 * np.pi * k * current.sample_rate_hz / m
    z = randles_impedance(p, omega)
    if m % 2 == 0:
        z[-1] = z[-1].real
    out = np.empty_like(spec)
    out[0] = p.ocv * m  # unnormalized rfft convention: DC bin = M * mean
    out[1:] = spec[1:] * z
    return current.with_samples(np.tile(np.fft.irfft(out, n=m), current.periods))


def add_noise(record: TimeRecord, spec: NoiseSpec) -> TimeRecord:
    """Add white Gaussian noise with sigma = RMS(record - mean)/snr.

    The SNR is referenced to the AC part so a large DC level (OCV on the
    voltage channel) does not inflate the noise.  A record whose AC part is
    zero or squares to infinity has no SNR, and an snr so small that 16 sigma
    (numpy's standard normal never draws beyond +-12.3) does not fit in the
    float range beside the mean would make samples infinite: each raises a
    ValueError before any noise is drawn.

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
    headroom = sys.float_info.max - abs(mean)
    if not 16.0 * sigma <= headroom:
        raise ValueError(f"snr must be at least {16.0 * rms_ac / headroom:.6g} for a record of "
                         f"AC RMS {rms_ac:.6g}, or its noise overflows")
    np.random.default_rng(spec.seed).standard_normal(out=buf)
    buf *= sigma
    buf += record.samples
    return record.with_samples(buf)
