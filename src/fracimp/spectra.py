"""Normalized DFT spectra, per-period averaging, and errors-in-variables covariances.

The DFT convention is X(k) = (1/N) sum_n x(n) exp(-j*2*pi*k*n/N) throughout;
all downstream estimation formulas assume it.  After splitting a record into P
periods, segment bin k corresponds to frequency k/period_s (full-record bin
P*k), and only bins 0..M/2 are kept (real signals).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .excitation import TimeRecord, check_shared_grid
from .model import ImpedanceCurve


def dft(samples) -> np.ndarray:
    """DFT with 1/N normalization, bins k = 0..N-1."""
    x = np.asarray(samples)
    if x.size == 0:
        raise ValueError("dft needs a nonempty input")
    return np.fft.fft(x) / x.size


@dataclass(frozen=True, eq=False)
class SpectralSet:
    """Period-averaged spectra of a current/voltage pair, with noise covariances.

    Arrays are indexed by segment bin k = 0..M/2 (M samples per period);
    freq_hz[k] = k/period_s.  Covariance fields are None when only one period
    was measured, and exactly 0 for a channel with bitwise identical periods.
    """

    freq_hz: np.ndarray
    mean_current: np.ndarray
    mean_voltage: np.ndarray
    var_current: np.ndarray | None
    var_voltage: np.ndarray | None
    covar_vi: np.ndarray | None

    def __post_init__(self):
        n = self.freq_hz.size
        for name in ("mean_current", "mean_voltage"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per bin")
        if self.var_current is not None:
            if np.any(self.var_current < 0) or np.any(self.var_voltage < 0):
                raise ValueError("variances must be nonnegative")
            cs = self.var_current * self.var_voltage - np.abs(self.covar_vi) ** 2
            if np.any(cs < -1e-12 * np.maximum(self.var_current * self.var_voltage, 1e-300)):
                raise ValueError("covariance violates the Cauchy-Schwarz bound")

    @property
    def has_covariances(self) -> bool:
        return self.var_current is not None

    @property
    def n_bins(self) -> int:
        return self.freq_hz.size


def _sum_sq(d: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum over the rows of d of |d|^2, a row at a time in the complex row `scratch`.

    The rows are added in order, as ``(np.abs(d) ** 2).sum(axis=0)`` adds
    them, so the result is bitwise the same without a buffer the size of d.
    """
    total, row_sq = scratch.view(float).reshape(2, -1)
    np.abs(d[0], out=total)
    total **= 2
    for row in d[1:]:
        np.abs(row, out=row_sq)
        row_sq **= 2
        total += row_sq
    return total


def per_period_spectra(current: TimeRecord, voltage: TimeRecord) -> SpectralSet:
    """Split both records into periods, DFT each, and estimate noise covariances.

    The sample covariances use the 1/(P-1) convention over the per-period
    spectra; with P = 1 the covariance fields are left unavailable and only
    uniform-weight estimation is possible downstream.

    Memory: besides per-bin arrays, a call allocates only the two
    complex (P, M/2+1) `rfft` outputs, each about one input record in bytes.
    The FFT applies the 1/M scale itself (``norm="forward"``), so it takes no
    pass over the outputs.  The deviations from the first period and the
    cross term are computed inside those two arrays, and |d|^2 is summed a
    period at a time in each channel's first row, which the deviations no
    longer need.  The cross term is formed as conj(d_cur) *= d_vol, in that
    operand order: complex multiply is not bitwise commutative under numpy's
    SIMD loops, and this is the order numpy's temporary elision picks for
    ``d_vol * np.conj(d_cur)`` once the deviations reach 256 KiB, as they do
    at the protocol record size.  The other order differs in the last bit.
    """
    check_shared_grid(current, voltage)
    p = current.periods
    m = current.samples_per_period
    if m < 2:
        raise ValueError("need at least 2 samples per period")

    cur = np.fft.rfft(current.samples.reshape(p, m), axis=1, norm="forward")
    vol = np.fft.rfft(voltage.samples.reshape(p, m), axis=1, norm="forward")
    mean_cur = cur.mean(axis=0)
    mean_vol = vol.mean(axis=0)
    freq_hz = np.arange(mean_cur.size) / current.period_s

    if p >= 2:
        # deviations from the first period are exactly 0 on bitwise identical
        # periods, where X - mean leaves rounding debris; the sums s correct the mean
        d_cur, d_vol = cur[1:], vol[1:]
        d_cur -= cur[0]
        d_vol -= vol[0]
        s_cur, s_vol = d_cur.sum(axis=0), d_vol.sum(axis=0)
        # the first period's row is free now: it holds the sums of |d|^2
        var_cur = (_sum_sq(d_cur, cur[0]) - np.abs(s_cur) ** 2 / p) / (p - 1)
        var_vol = (_sum_sq(d_vol, vol[0]) - np.abs(s_vol) ** 2 / p) / (p - 1)
        np.conjugate(d_cur, out=d_cur)
        d_cur *= d_vol
        covar_vi = (d_cur.sum(axis=0) - s_vol * np.conj(s_cur) / p) / (p - 1)
    else:
        var_cur = var_vol = covar_vi = None

    return SpectralSet(
        freq_hz=freq_hz,
        mean_current=mean_cur,
        mean_voltage=mean_vol,
        var_current=var_cur,
        var_voltage=var_vol,
        covar_vi=covar_vi,
    )


def nonparametric_impedance(spectra: SpectralSet, excited_bins) -> ImpedanceCurve:
    """Classical EIS estimate: averaged voltage over averaged current per excited bin.

    `excited_bins` are segment-bin indices (harmonic numbers of 1/period_s);
    the DC bin is always excluded, and bins whose current magnitude is below
    1e-12 of the strongest bin are skipped with a warning.
    """
    bins = np.unique(np.asarray(excited_bins, dtype=int))
    if bins.size == 0:
        raise ValueError("excited_bins must be nonempty")
    if bins[0] < 1:
        raise ValueError("excited bins must exclude DC (bin 0)")
    if bins[-1] >= spectra.n_bins:
        raise ValueError(f"excited bin {bins[-1]} outside spectrum (max {spectra.n_bins - 1})")

    mag = np.abs(spectra.mean_current[bins])
    floor = 1e-12 * np.abs(spectra.mean_current).max()
    weak = mag <= floor
    if np.any(weak):
        warnings.warn(
            f"skipping {int(weak.sum())} excited bin(s) with vanishing current spectrum",
            stacklevel=2,
        )
        bins = bins[~weak]
        if bins.size == 0:
            raise ValueError("all excited bins have vanishing current spectrum")

    z = spectra.mean_voltage[bins] / spectra.mean_current[bins]
    return ImpedanceCurve(freq_hz=spectra.freq_hz[bins], z_ohm=z)
