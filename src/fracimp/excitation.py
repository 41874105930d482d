"""Excitation design and synthesis: odd random-phase multisines and periodic noise.

A `TimeRecord` is whole periods by construction: `samples_per_period` is the
one rule that period_s*sample_rate_hz is a positive integer M, and a record
holds a positive multiple of M samples; its `periods` is derived from that
length, not given.  Every excitation is built on that grid and is exactly
periodic, so downstream period-averaged spectra are leakage free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class MultisineSpec:
    """Blueprint of a multisine: which harmonics of 1/period_s are excited and how.

    ``harmonics`` are strictly increasing positive integers; the excited
    frequencies are ``harmonics / period_s``.  Amplitudes are per-harmonic sine
    amplitudes and phases live in [0, 2*pi).
    """

    period_s: float
    harmonics: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "harmonics", _whole_bins(self.harmonics, "harmonics"))
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if not self.period_s > 0:
            raise ValueError("period_s must be positive")
        if self.harmonics.ndim != 1 or self.harmonics.size == 0:
            raise ValueError("harmonics must be a nonempty 1-D integer array")
        if np.any(self.harmonics < 1):
            raise ValueError("harmonics must be >= 1 (DC is never excited)")
        if np.any(np.diff(self.harmonics) <= 0):
            raise ValueError("harmonics must be strictly increasing without duplicates")
        if self.amplitudes.shape != self.harmonics.shape or self.phases.shape != self.harmonics.shape:
            raise ValueError("amplitudes and phases must match harmonics in shape")
        if not np.all(self.amplitudes > 0):
            raise ValueError("amplitudes must be strictly positive")
        if not np.all((self.phases >= 0) & (self.phases < TWO_PI)):
            raise ValueError("phases must lie in [0, 2*pi)")

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.harmonics / self.period_s

    def to_dict(self) -> dict:
        return {
            "period_s": self.period_s,
            "harmonics": self.harmonics.tolist(),
            "amplitudes": self.amplitudes.tolist(),
            "phases": self.phases.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultisineSpec":
        return cls(float(d["period_s"]), d["harmonics"], d["amplitudes"], d["phases"])


def samples_per_period(period_s: float, sample_rate_hz: float) -> int:
    """Samples in one period, period_s*sample_rate_hz, as an int.

    Raises ValueError when the product is not finite, is below 1, or is more
    than 1e-9 from an integer: a record must split into whole periods.
    """
    try:
        m = float(period_s) * float(sample_rate_hz)
    except OverflowError:  # an integer operand beyond the float range
        m = float("inf")
    if not (np.isfinite(m) and round(m) >= 1 and abs(m - round(m)) <= 1e-9):
        raise ValueError(
            f"period_s*sample_rate_hz = {m!r} is not a finite sample count per period "
            "that is a positive integer, so no record length is whole periods "
            f"(period_s={period_s}, sample_rate_hz={sample_rate_hz})"
        )
    return int(round(m))


def _whole_bins(values, name: str) -> np.ndarray:
    """`values` as an int array; an integral float counts, anything else names `name`."""
    error = ValueError(f"{name} must hold whole bin numbers")
    try:
        floats = np.asarray(values, dtype=float)  # also an int beyond int64, as a float
    except OverflowError:  # an int beyond the float range
        raise error from None
    with np.errstate(invalid="ignore"):  # nan, inf and overflow cast to ints that differ
        whole = floats.astype(int)
    if not np.array_equal(whole, floats):
        raise error
    return whole


def _whole_count(value, name: str) -> int:
    """`value` as an int by the rule of `_whole_bins`, cast through float (3.0 counts as
    3) but with no int64 bound; anything else raises a ValueError naming `name`."""
    try:
        if float(value).is_integer():  # False for NaN and infinity
            return int(float(value))
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"{name} must be a whole number")


@dataclass(frozen=True, eq=False)
class TimeRecord:
    """Uniformly sampled record of whole periods: `periods` follows from its length."""

    samples: np.ndarray
    sample_rate_hz: float
    period_s: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        for name in ("sample_rate_hz", "period_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        if not np.isfinite(self.samples).all():
            bad = int(np.argmin(np.isfinite(self.samples)))
            raise ValueError(f"sample {bad} is not finite ({self.samples[bad]})")
        m = samples_per_period(self.period_s, self.sample_rate_hz)
        if self.samples.size == 0 or self.samples.size % m:
            raise ValueError(f"record length {self.samples.size} is not a positive multiple "
                             f"of period_s*sample_rate_hz = {m}")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def samples_per_period(self) -> int:
        return samples_per_period(self.period_s, self.sample_rate_hz)

    @property
    def periods(self) -> int:
        return self.samples.size // self.samples_per_period

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))

    def with_samples(self, samples: np.ndarray) -> "TimeRecord":
        """Copy of this record with new samples on the same time grid."""
        return TimeRecord(samples, self.sample_rate_hz, self.period_s)


def check_shared_grid(current: TimeRecord, voltage: TimeRecord) -> None:
    """Raise ValueError unless the pair shares sample rate, periods and period.

    Each is compared with ``np.isclose(..., rtol=1e-12, atol=0.0)``, purely
    relative at any magnitude; by the whole-periods rule, records that pass
    also hold the same number of samples.
    """
    for attr in ("sample_rate_hz", "periods", "period_s"):
        if not np.isclose(getattr(current, attr), getattr(voltage, attr), rtol=1e-12, atol=0.0):
            raise ValueError(f"current/voltage records disagree on {attr}")


def _nearest_odd(x: np.ndarray) -> np.ndarray:
    # nearest odd integer, ties (even x) rounding up
    return (2 * np.floor(np.asarray(x, dtype=float) / 2.0) + 1).astype(np.int64)


def design_odd_quasilog(
    period_s: float,
    f_min_hz: float,
    f_max_hz: float,
    points_per_decade: int,
    seed: int | None = None,
) -> MultisineSpec:
    """Design an odd random-phase multisine on a quasi-logarithmic grid.

    An ideal log-spaced frequency grid with `points_per_decade` points per
    decade is laid over [f_min_hz, f_max_hz]; each grid point is rounded to
    the nearest odd harmonic of 1/period_s (ties up), clamped to the odd
    harmonics available inside the band, and duplicates are dropped.  The
    grid has at most x_hi*ln(x_hi/x_lo) + 2 points, x being the band edges in
    harmonics: its largest gap is then below one harmonic, so it already hits
    every odd harmonic in the band and a denser grid would give the same
    harmonics.  Phases are drawn uniformly on [0, 2*pi); amplitudes are all 1
    (scale the synthesized record afterwards).
    """
    if not period_s > 0:
        raise ValueError("period_s must be positive")
    if not f_min_hz >= 1.0 / period_s * (1 - 1e-12):
        raise ValueError("f_min_hz must be at least the fundamental 1/period_s")
    if not f_max_hz >= f_min_hz:
        raise ValueError("f_max_hz must be >= f_min_hz")
    if not points_per_decade >= 1:
        raise ValueError("points_per_decade must be >= 1")

    # band edges in harmonic units, with slack against float dirt at exact edges
    x_lo = f_min_hz * period_s
    x_hi = f_max_hz * period_s
    k_lo = int(np.ceil(x_lo - 1e-9 * max(1.0, x_lo)))
    if k_lo % 2 == 0:
        k_lo += 1
    k_hi = int(np.floor(x_hi + 1e-9 * max(1.0, x_hi)))
    if k_hi % 2 == 0:
        k_hi -= 1
    if k_lo > k_hi:
        raise ValueError("no excitable odd harmonic in band")

    n_grid = int(min(np.round(points_per_decade * np.log10(f_max_hz / f_min_hz)) + 1,
                     x_hi * np.log(x_hi / x_lo) + 2))
    grid = np.logspace(np.log10(f_min_hz), np.log10(f_max_hz), n_grid)
    harmonics = np.unique(np.clip(_nearest_odd(grid * period_s), k_lo, k_hi))

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, TWO_PI, size=harmonics.size)
    return MultisineSpec(
        period_s=period_s,
        harmonics=harmonics,
        amplitudes=np.ones(harmonics.size),
        phases=phases,
    )


def _tile(one_period: np.ndarray, periods: int) -> np.ndarray:
    """`periods` copies of one period; ValueError naming `periods` unless it is a whole
    number (2.0 counts as 2) from 1 up to as many periods as numpy can index."""
    if periods < 1:  # NaN falls through to the whole-number rule
        raise ValueError("periods must be >= 1")
    if one_period.size * periods > np.iinfo(np.intp).max:
        raise ValueError(f"periods={periods:.6g} makes a record of more than "
                         f"{np.iinfo(np.intp).max} samples")
    return np.tile(one_period, _whole_count(periods, "periods"))


def synthesize_multisine(spec: MultisineSpec, sample_rate_hz: float, periods: int) -> TimeRecord:
    """Sample the multisine sum of sines at sample_rate_hz over `periods` periods.

    One period of M = `samples_per_period(period_s, sample_rate_hz)` samples
    (ValueError unless period_s*sample_rate_hz is a positive integer) is the
    inverse real DFT of the line spectrum, harmonic k carrying amplitude*M/2
    at phase - pi/2 (a sine, not a cosine); it is tiled `periods` times, so
    every period is bitwise identical.
    """
    f_nyq_limit = 2.0 * spec.harmonics[-1] / spec.period_s
    if sample_rate_hz <= f_nyq_limit * (1 - 1e-12):
        raise ValueError(
            f"sample_rate_hz={sample_rate_hz} violates the Nyquist bound for harmonic "
            f"{int(spec.harmonics[-1])} ({spec.harmonics[-1] / spec.period_s} Hz)"
        )
    m = samples_per_period(spec.period_s, sample_rate_hz)
    lines = np.zeros(m // 2 + 1, dtype=complex)
    # irfft counts a line on the Nyquist bin (allowed when fs is exactly twice
    # the top frequency) once instead of twice, and keeps only its real part
    gain = np.where(2 * spec.harmonics == m, m, m / 2.0)
    lines[spec.harmonics] = spec.amplitudes * gain * np.exp(1j * (spec.phases - np.pi / 2))
    return TimeRecord(_tile(np.fft.irfft(lines, n=m), periods), sample_rate_hz, spec.period_s)


def generate_periodic_noise(
    period_s: float,
    sample_rate_hz: float,
    periods: int,
    seed: int | None = None,
) -> TimeRecord:
    """One period of zero-mean Gaussian white noise, tiled `periods` times.

    The per-period sample mean is subtracted before tiling, so every period is
    exactly zero mean and the record is exactly periodic.
    """
    rng = np.random.default_rng(seed)
    one_period = rng.standard_normal(samples_per_period(period_s, sample_rate_hz))
    one_period -= one_period.mean()
    return TimeRecord(_tile(one_period, periods), sample_rate_hz, period_s)


def scale_to_rms(record: TimeRecord, rms_target: float) -> TimeRecord:
    """Rescale a record so its RMS equals rms_target exactly."""
    if not rms_target > 0:
        raise ValueError("rms_target must be positive")
    rms = record.rms()
    if rms == 0.0:
        raise ValueError("cannot scale an identically zero record")
    return record.with_samples(record.samples * (rms_target / rms))
