"""Per-period spectra with errors-in-variables covariances.

The DFT convention is X(k) = (1/M) sum_n x(n) exp(-j*2*pi*k*n/M) over each
period of M samples; all downstream estimation formulas assume it, and
`per_period_spectra` is its one implementation.  After splitting a record
into P periods, segment bin k corresponds to frequency k/period_s
(full-record bin P*k), and only bins 0..M//2 are kept (real signals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .excitation import TimeRecord, check_shared_grid


@dataclass(frozen=True, eq=False)
class SpectralSet:
    """Period-averaged spectra of a current/voltage pair, with noise covariances.

    Arrays are indexed by segment bin k = 0..M//2 of the record's grid, M =
    `samples_per_period`, at freq_hz[k] = k/`period_s`.  Covariance fields are None
    when only one period was measured, and exactly 0 for bitwise identical periods.
    """

    period_s: float
    samples_per_period: int
    mean_current: np.ndarray
    mean_voltage: np.ndarray
    var_current: np.ndarray | None
    var_voltage: np.ndarray | None
    covar_vi: np.ndarray | None

    def __post_init__(self):
        for name in ("mean_current", "mean_voltage"):
            if getattr(self, name).shape != (self.samples_per_period // 2 + 1,):
                raise ValueError(f"{name} must have one entry per bin")
        if self.var_current is not None:
            if np.any(self.var_current < 0) or np.any(self.var_voltage < 0):
                raise ValueError("variances must be nonnegative")
            # sqrt(var) * sqrt(var) cannot overflow as var * var can; a 4e-13 slack on
            # |covar| is less than 1e-12 on |covar|^2, as (1 + 4e-13)^2 < 1 + 1e-12
            bound = np.sqrt(self.var_current) * np.sqrt(self.var_voltage)
            if np.any(np.abs(self.covar_vi) - bound > 4e-13 * bound):
                raise ValueError("covariance violates the Cauchy-Schwarz bound")

    @property
    def has_covariances(self) -> bool:
        return self.var_current is not None

    @property
    def freq_hz(self) -> np.ndarray:
        return np.arange(self.mean_current.size) / self.period_s


def _sum_sq(d: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum over the rows of d of |d|^2, a row at a time in the complex row `scratch`.

    The rows are added in order, as ``(np.abs(d) ** 2).sum(axis=0)`` adds
    them, so the result is bitwise the same without a buffer the size of d.
    That plain sum also takes the same time per call, but its (P - 1, M/2 + 1)
    buffer moved the noise_broadband benchmark's record_s p50 from 24.2 to 25.7
    ms, higher in 5 of 6 pairs (ROADMAP, "Kept on measurement"), so the loop stays.
    """
    total, row_sq = scratch.view(float).reshape(2, -1)
    np.abs(d[0], out=total)
    total **= 2
    for row in d[1:]:
        np.abs(row, out=row_sq)
        row_sq **= 2
        total += row_sq
    return total


def _channel(record: TimeRecord, p: int, m: int):
    """One channel's share of `per_period_spectra`: the mean spectrum, and for p >= 2
    the deviations d from the first period, their sum s and the sample variance."""
    x = np.fft.rfft(record.samples.reshape(p, m), axis=1, norm="forward")
    mean = x.mean(axis=0)
    if p < 2:
        return mean, None, None, None
    # deviations from the first period are exactly 0 on bitwise identical
    # periods, where X - mean leaves rounding debris; the sum s corrects the mean
    d = x[1:]
    d -= x[0]
    s = d.sum(axis=0)
    # the first period's row is free now: it holds the sums of |d|^2
    return mean, d, s, (_sum_sq(d, x[0]) - np.abs(s) ** 2 / p) / (p - 1)


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

    mean_cur, d_cur, s_cur, var_cur = _channel(current, p, m)
    mean_vol, d_vol, s_vol, var_vol = _channel(voltage, p, m)

    covar_vi = None
    if p >= 2:
        np.conjugate(d_cur, out=d_cur)
        d_cur *= d_vol
        covar_vi = (d_cur.sum(axis=0) - s_vol * np.conj(s_cur) / p) / (p - 1)

    return SpectralSet(
        period_s=current.period_s,
        samples_per_period=m,
        mean_current=mean_cur,
        mean_voltage=mean_vol,
        var_current=var_cur,
        var_voltage=var_vol,
        covar_vi=covar_vi,
    )
