import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracimp import (
    MultisineSpec,
    SchemaError,
    TimeRecord,
    design_odd_quasilog,
    generate_periodic_noise,
    per_period_spectra,
    read_record,
    scale_to_rms,
    synthesize_multisine,
    write_record,
)
from fracimp.excitation import BAND, MULTISINE_SCHEMA, RECORD_GRID, check_shared_grid
from fracimp.recordio import CSV_HEADER, sidecar_path, write_csv
from fracimp.schema import check


def _nearest_in_band_odd(x, k_lo, k_hi):
    """Independent rounding oracle: nearest odd in [k_lo, k_hi], ties upward."""
    candidates = np.arange(k_lo, k_hi + 1, 2)
    dist = np.abs(candidates - x)
    best = dist.min()
    return int(candidates[dist <= best + 1e-12][-1])  # tie -> larger harmonic


# ---------------------------------------------------------------- design


def test_design_survey_geometry_line_count():
    spec = design_odd_quasilog(180.0, 0.0056, 80.0, points_per_decade=23, seed=0)
    assert spec.harmonics.size == 76
    assert np.all(spec.harmonics % 2 == 1)
    assert spec.freqs_hz[0] >= 0.0056
    assert spec.freqs_hz[-1] <= 80.0 + 1e-9


def test_design_band_collapsed_to_fundamental():
    spec = design_odd_quasilog(200.0, 0.005, 0.005, points_per_decade=5, seed=0)
    assert spec.harmonics.tolist() == [1]


def test_design_matches_bruteforce_rounding_oracle():
    period, f_min, f_max, ppd = 10.0, 0.1, 1.0, 5
    spec = design_odd_quasilog(period, f_min, f_max, ppd, seed=3)

    # enumerate the rule independently over the odd harmonics in [1, 10]
    n_grid = int(round(ppd * np.log10(f_max / f_min))) + 1
    grid = np.logspace(np.log10(f_min), np.log10(f_max), n_grid)
    oracle = sorted({_nearest_in_band_odd(f * period, 1, 9) for f in grid})
    assert spec.harmonics.tolist() == oracle
    assert oracle == [1, 3, 7, 9]


def test_design_random_bands_stay_odd_and_in_band():
    rng = np.random.default_rng(7)
    for _ in range(25):
        period = float(rng.uniform(10.0, 500.0))
        f_min = float(rng.uniform(1.0, 5.0)) / period
        f_max = f_min * float(rng.uniform(2.0, 200.0))
        spec = design_odd_quasilog(period, f_min, f_max, int(rng.integers(2, 25)),
                                   seed=int(rng.integers(1 << 32)))
        assert np.all(spec.harmonics % 2 == 1)
        assert np.all(np.diff(spec.harmonics) > 0)
        assert spec.freqs_hz[0] >= f_min * (1 - 1e-9)
        assert spec.freqs_hz[-1] <= f_max * (1 + 1e-9)
        assert np.all(spec.amplitudes == 1.0)
        assert np.all((spec.phases >= 0) & (spec.phases < 2 * np.pi))


@pytest.mark.parametrize("x_hi", [2.0**53, 2.0**53 - 1, 2.0**53 - 2])
def test_design_up_to_harmonic_2_53_stays_odd(x_hi):
    """A band reaching 2**53 harmonics keeps every harmonic odd, its edge slack included;
    the next float above 2**53 is refused naming f_max_hz."""
    spec = design_odd_quasilog(x_hi, 1e3 / x_hi, 1.0, 3, seed=1)
    assert np.all(spec.harmonics % 2 == 1)
    assert spec.harmonics[-1] < 2**53
    with pytest.raises(ValueError, match="^f_max_hz must be at most 2\\*\\*53/period_s"):
        design_odd_quasilog(np.nextafter(2.0**53, np.inf), 1e-3, 1.0, 3, seed=1)


def test_design_empty_band_errors():
    with pytest.raises(ValueError, match="no excitable odd harmonic"):
        design_odd_quasilog(10.0, 0.19, 0.2, points_per_decade=5, seed=0)


def test_design_seed_reproducible():
    a = design_odd_quasilog(100.0, 0.02, 5.0, 10, seed=11)
    b = design_odd_quasilog(100.0, 0.02, 5.0, 10, seed=11)
    assert np.array_equal(a.phases, b.phases)


def test_design_dense_grid_hits_every_odd_harmonic_in_band():
    # 1e26 points per decade would size a grid beyond any memory; capped, the
    # grid's gaps are below one harmonic, so every odd harmonic is excited
    spec = design_odd_quasilog(200.0, 0.005, 10.0, points_per_decade=1e26, seed=0)
    assert spec.harmonics.tolist() == list(range(1, 2000, 2))


# ---------------------------------------------------------------- synthesis


def test_synthesize_single_unit_sine():
    spec = MultisineSpec(period_s=1.0, harmonics=[1], amplitudes=[1.0], phases=[0.0])
    record = synthesize_multisine(spec, sample_rate_hz=8.0, periods=1)
    assert record.samples == pytest.approx(np.sin(2 * np.pi * np.arange(8) / 8), abs=1e-15)


def test_synthesize_superposition():
    s1 = MultisineSpec(period_s=2.0, harmonics=[1], amplitudes=[0.7], phases=[0.3])
    s2 = MultisineSpec(period_s=2.0, harmonics=[5], amplitudes=[1.2], phases=[4.0])
    both = MultisineSpec(period_s=2.0, harmonics=[1, 5], amplitudes=[0.7, 1.2],
                         phases=[0.3, 4.0])
    r1 = synthesize_multisine(s1, 20.0, 2)
    r2 = synthesize_multisine(s2, 20.0, 2)
    r12 = synthesize_multisine(both, 20.0, 2)
    assert r12.samples == pytest.approx(r1.samples + r2.samples, abs=1e-14)


def test_synthesize_simulation_protocol_sample_count():
    spec = design_odd_quasilog(200.0, 0.005, 10.0, 12, seed=1)
    record = synthesize_multisine(spec, sample_rate_hz=200.0, periods=5)
    assert record.n_samples == 200_000


def test_synthesized_periods_are_bitwise_identical():
    spec = design_odd_quasilog(20.0, 0.05, 2.0, 8, seed=12)
    record = synthesize_multisine(spec, sample_rate_hz=40.0, periods=6)
    per_period = record.samples.reshape(6, 800)
    assert np.array_equal(per_period, np.broadcast_to(per_period[0], per_period.shape))


def test_synthesize_matches_direct_sum_of_sines_over_sixteen_periods():
    spec = design_odd_quasilog(200.0, 0.005, 10.0, 12, seed=1)
    record = synthesize_multisine(spec, sample_rate_hz=200.0, periods=16)
    t = np.arange(16 * 40_000) / 200.0
    direct = np.zeros_like(t)
    for k, alpha, phi in zip(spec.harmonics, spec.amplitudes, spec.phases):
        direct += alpha * np.sin(2 * np.pi * k / spec.period_s * t + phi)
    assert np.abs(record.samples - direct).max() < 1e-9


def test_synthesize_line_on_the_nyquist_bin():
    # fs exactly twice the top frequency is allowed: that line samples as
    # alpha*sin(phi)*(-1)^n
    spec = MultisineSpec(period_s=1.0, harmonics=[1, 9], amplitudes=[1.0, 0.5],
                         phases=[0.3, 1.2])
    record = synthesize_multisine(spec, sample_rate_hz=18.0, periods=2)
    t = np.arange(record.n_samples) / record.sample_rate_hz
    direct = np.sin(2 * np.pi * t + 0.3) + 0.5 * np.sin(2 * np.pi * 9 * t + 1.2)
    assert record.samples == pytest.approx(direct, abs=1e-14)


def test_synthesize_nyquist_violation_names_harmonic():
    spec = MultisineSpec(period_s=1.0, harmonics=[1, 9], amplitudes=[1, 1], phases=[0, 0])
    with pytest.raises(ValueError, match="harmonic 9"):
        synthesize_multisine(spec, sample_rate_hz=16.0, periods=1)


def test_multisine_spectrum_support():
    spec = design_odd_quasilog(16.0, 1 / 16, 2.0, 6, seed=5)
    periods = 4
    record = synthesize_multisine(spec, 16.0, periods)
    spectrum = np.fft.fft(record.samples) / record.n_samples
    n = record.n_samples
    excited = set((periods * spec.harmonics).tolist())
    excited |= {n - k for k in excited}
    mask = np.ones(n, dtype=bool)
    mask[sorted(excited)] = False
    assert np.abs(spectrum[mask]).max() < 1e-10 * spec.amplitudes.max()


# ---------------------------------------------------------------- noise


def test_periodic_noise_tiles_one_period():
    record = generate_periodic_noise(5.0, 10.0, periods=3, seed=2)
    one = record.samples[:50]
    assert np.array_equal(record.samples, np.tile(one, 3))


def test_periodic_noise_period_mean_is_zero():
    record = generate_periodic_noise(7.0, 30.0, periods=2, seed=3)
    assert abs(record.samples[:210].mean()) < 1e-15


def test_periodic_noise_unit_variance_within_chi_square_bound():
    record = generate_periodic_noise(200.0, 200.0, periods=1, seed=4)
    assert record.samples.var() == pytest.approx(1.0, rel=0.05)


def test_periodic_noise_spectrum_only_at_multiples_of_p():
    periods = 5
    record = generate_periodic_noise(2.0, 32.0, periods=periods, seed=6)
    spectrum = np.fft.fft(record.samples) / record.n_samples
    k = np.arange(record.n_samples)
    off = spectrum[k % periods != 0]
    assert np.abs(off).max() < 1e-12 * np.abs(spectrum).max()


def test_periodic_noise_fractional_period_errors():
    with pytest.raises(ValueError, match="positive integer"):
        generate_periodic_noise(1.5, 3.0, periods=2, seed=0)


@pytest.mark.parametrize("make", [
    lambda periods: synthesize_multisine(MultisineSpec(10.0, [1], [1.0], [0.0]), 10.0, periods),
    lambda periods: generate_periodic_noise(10.0, 10.0, periods, seed=0),
], ids=["multisine", "noise"])
def test_record_beyond_the_index_range_names_periods(make):
    with pytest.raises(ValueError, match=r"^periods=1e\+25 makes a record of more than "):
        make(1e25)


@pytest.mark.parametrize("make", [
    lambda periods: synthesize_multisine(MultisineSpec(10.0, [1], [1.0], [0.0]), 10.0, periods),
    lambda periods: generate_periodic_noise(10.0, 10.0, periods, seed=0),
], ids=["multisine", "noise"])
def test_an_integral_float_period_count_counts(make):
    assert make(3.0).samples.tolist() == make(3).samples.tolist()


# ---------------------------------------------------------------- RMS scaling


def test_scale_to_rms_ratio():
    record = TimeRecord(samples=np.full(8, 2.0), sample_rate_hz=8.0, period_s=1.0)
    scaled = scale_to_rms(record, 0.5)
    assert np.allclose(scaled.samples, 0.5)


def test_scale_to_rms_identity_at_current_rms():
    record = generate_periodic_noise(1.0, 64.0, 1, seed=8)
    scaled = scale_to_rms(record, record.rms())
    assert scaled.samples == pytest.approx(record.samples, rel=1e-15)


def test_scale_unit_sine_to_half_rms():
    spec = MultisineSpec(period_s=1.0, harmonics=[1], amplitudes=[1.0], phases=[0.0])
    record = scale_to_rms(synthesize_multisine(spec, 64.0, 1), 0.5)
    # a sine of amplitude alpha has RMS alpha/sqrt(2)
    assert record.samples.max() == pytest.approx(np.sqrt(2) / 2, rel=1e-6)


def test_scale_to_rms_idempotent():
    record = generate_periodic_noise(1.0, 128.0, 2, seed=9)
    once = scale_to_rms(record, 0.37)
    twice = scale_to_rms(once, 0.37)
    assert twice.samples == pytest.approx(once.samples, rel=1e-15)
    assert once.rms() == pytest.approx(0.37, rel=1e-15)


# ---------------------------------------------------------------- types


@pytest.mark.parametrize("n", [0, 9])
def test_time_record_length_is_a_positive_multiple_of_the_period(n):
    with pytest.raises(ValueError, match=f"^record length {n} is not a positive multiple "
                                         "of period_s\\*sample_rate_hz = 4$"):
        TimeRecord(samples=np.zeros(n), sample_rate_hz=4.0, period_s=1.0)


def test_time_record_derives_its_periods():
    record = TimeRecord(samples=np.zeros(12), sample_rate_hz=4.0, period_s=1.0)
    assert (record.periods, record.samples_per_period) == (3, 4)
    assert record.with_samples(np.ones(8)).periods == 2


def test_time_record_rejects_an_overflowing_length():
    with pytest.raises(ValueError, match="not a finite sample count"):
        TimeRecord(samples=np.zeros(1), sample_rate_hz=1e200, period_s=1e200)


_WHOLE_PERIODS = "not a finite sample count per period that is a positive integer"


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grids")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(whole=st.integers(0, 40),
       fraction=st.one_of(st.just(0.0), st.sampled_from([1e-6, 0.25, 0.5, 0.999])),
       fs=st.floats(0.25, 1e4), periods=st.integers(1, 5))
def test_whole_period_grids_build_and_fractional_ones_are_rejected(grid_dir, whole, fraction,
                                                                   fs, periods):
    """period_s*fs = whole + fraction samples per period, off by float rounding only."""
    m = whole + fraction
    assume(m > 0)
    period_s = m / fs
    path = grid_dir / "rec.csv"
    tone = MultisineSpec(period_s=period_s, harmonics=[1], amplitudes=[1.0], phases=[0.0])
    if fraction == 0.0:
        record = TimeRecord(samples=np.zeros(periods * whole), sample_rate_hz=fs,
                            period_s=period_s)
        assert record.periods == periods
        assert record.samples_per_period == whole
        noise = generate_periodic_noise(period_s, fs, periods, seed=whole)
        assert noise.n_samples == periods * whole
        if whole > 2:  # a tone at 1/period_s needs more than 2 samples per period
            assert synthesize_multisine(tone, fs, periods).n_samples == periods * whole
        write_record(path, noise)
        current, voltage, _ = read_record(path)
        assert np.array_equal(current.samples, noise.samples)
        assert not voltage.samples.any()
        assert (current.sample_rate_hz, current.period_s, current.periods) == (fs, period_s,
                                                                              periods)
        return

    n = int(periods * m)
    with pytest.raises(ValueError, match=_WHOLE_PERIODS):
        TimeRecord(samples=np.zeros(n), sample_rate_hz=fs, period_s=period_s)
    with pytest.raises(ValueError, match=_WHOLE_PERIODS):
        generate_periodic_noise(period_s, fs, periods, seed=0)
    if m > 2:
        with pytest.raises(ValueError, match=_WHOLE_PERIODS):
            synthesize_multisine(tone, fs, periods)
    write_csv(path, CSV_HEADER, (np.arange(n) / fs, np.zeros(n), np.zeros(n)))
    meta = {"sample_rate_hz": fs, "periods": periods, "period_s": period_s}
    sidecar_path(path).write_text(json.dumps(meta))
    named = re.escape(f"invalid metadata sidecar {sidecar_path(path)}: period_s*sample_rate_hz")
    with pytest.raises(SchemaError, match=f"{named} = .* {_WHOLE_PERIODS}"):
        read_record(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_time_record_rejects_non_finite_sample(bad):
    samples = np.zeros(8)
    samples[5] = bad
    with pytest.raises(ValueError, match="sample 5 is not finite"):
        TimeRecord(samples=samples, sample_rate_hz=4.0, period_s=1.0)


def test_time_record_names_the_first_non_finite_sample():
    samples = np.zeros(8)
    samples[[3, 6]] = np.inf, np.nan
    with pytest.raises(ValueError, match=r"^sample 3 is not finite \(inf\)$"):
        TimeRecord(samples=samples, sample_rate_hz=4.0, period_s=1.0)


def test_multisine_spec_json_roundtrip():
    """A spec designed from `BAND`, the parameters after period_s, holds
    `MULTISINE_SCHEMA`'s keys in its order, passes it and reads back bitwise;
    an integer period_s stays an integer in the file."""
    assert list(inspect.signature(design_odd_quasilog).parameters)[1:4] == list(BAND)
    for period_s in (50.0, 50):
        spec = design_odd_quasilog(period_s, **dict(zip(BAND, (0.02, 1.0, 8))), seed=10)
        d = spec.to_dict()
        assert list(d) == MULTISINE_SCHEMA["required"] == list(MULTISINE_SCHEMA["properties"])
        assert check(d, MULTISINE_SCHEMA, "spec") == d
        assert json.dumps(d["period_s"]) == repr(period_s)
        clone = MultisineSpec.from_dict(json.loads(json.dumps(d)))
        for key in MULTISINE_SCHEMA["properties"]:
            assert np.asarray(getattr(clone, key), dtype=float).tobytes() == \
                np.asarray(getattr(spec, key), dtype=float).tobytes()


@pytest.mark.parametrize("rel, accepted", [(1e-13, True), (1e-9, False)])
def test_shared_grid_rule_is_the_same_for_writer_and_spectra(tmp_path, rel, accepted):
    """A voltage grid 1e-13 off the current's passes both callers; 1e-9 off fails both."""
    fs, period_s = 200.0, 0.05
    rng = np.random.default_rng(0)
    current = TimeRecord(rng.standard_normal(20), fs, period_s)
    voltage = TimeRecord(rng.standard_normal(20), fs * (1 + rel), period_s / (1 + rel))
    callers = (lambda: write_record(tmp_path / "rec.csv", current, voltage),
               lambda: per_period_spectra(current, voltage))
    for call in callers:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="disagree on sample_rate_hz"):
                call()


@pytest.mark.parametrize("part", list(RECORD_GRID))
def test_shared_grid_names_the_one_part_of_the_grid_that_differs(part):
    """A pair that differs in one part of the grid only, the others equal, is refused
    naming that part; a different length at the same rate and period is `periods`."""
    grid = {"sample_rate_hz": 200.0, "periods": 2, "period_s": 0.05}
    records = [TimeRecord(np.ones(round(g["sample_rate_hz"] * g["period_s"]) * g["periods"]),
                          g["sample_rate_hz"], g["period_s"])
               for g in (grid, {**grid, part: 2 * grid[part]})]
    assert [key for key in RECORD_GRID
            if getattr(records[0], key) != getattr(records[1], key)] == [part]
    with pytest.raises(ValueError, match=f"^current/voltage records disagree on {part}$"):
        check_shared_grid(*records)


@pytest.mark.parametrize("rel, accepted", [(1e-13, True), (1e-9, False)])
def test_shared_grid_rule_is_relative_at_small_values(tmp_path, rel, accepted):
    """At 2 Hz and 5 s a 1e-9 relative offset is far below 1e-8 absolute, and still fails."""
    rng = np.random.default_rng(1)
    current = TimeRecord(rng.standard_normal(20), 2.0, 5.0)
    voltage = TimeRecord(rng.standard_normal(20), 2.0 * (1 - rel), 5.0 * (1 + rel))
    for call in (lambda: write_record(tmp_path / "rec.csv", current, voltage),
                 lambda: per_period_spectra(current, voltage)):
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="disagree on sample_rate_hz"):
                call()
