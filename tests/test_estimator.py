import dataclasses
import warnings

import numpy as np
import pytest

from fracimp import (
    EstimationConfig,
    EstimateResult,
    HalfOrderRational,
    NumericsError,
    SpectralSet,
    TimeRecord,
    build_regressor,
    equation_error_sigma,
    eval_rational,
    parametric_impedance,
    per_period_spectra,
    randles_impedance,
    randles_to_rational,
    relative_error_curve,
    simulate_response,
    tls_solve,
    wtls_estimate,
)
from fracimp.model import ImpedanceCurve

from conftest import SIM_PARAMS, make_multisine_current, simulate_pair

Q45 = np.exp(1j * np.pi / 4)


def _spectral_set(period_s, mean_current, mean_voltage, var_current=None,
                  var_voltage=None, covar_vi=None, periods=4):
    mean_current = np.asarray(mean_current, dtype=complex)
    mean_voltage = np.asarray(mean_voltage, dtype=complex)
    n = mean_current.size
    return SpectralSet(
        freq_hz=np.arange(n) / period_s,
        mean_current=mean_current,
        mean_voltage=mean_voltage,
        var_current=None if var_current is None else np.asarray(var_current, dtype=float),
        var_voltage=None if var_voltage is None else np.asarray(var_voltage, dtype=float),
        covar_vi=None if covar_vi is None else np.asarray(covar_vi, dtype=complex),
        periods=periods,
    )


def _noiseless_spectra(**kwargs):
    spec, current, voltage = simulate_pair(make_multisine_current(**kwargs))
    return spec, per_period_spectra(current, voltage)


_PIPE_KW = dict(period_s=200.0, f_min_hz=0.005, f_max_hz=5.0, points_per_decade=8,
                sample_rate_hz=50.0, periods=5)


# ---------------------------------------------------------------- regressor


def test_build_regressor_smallest_row():
    i_val, v_val = 0.3 - 0.1j, 0.2 + 0.5j
    spectra = _spectral_set(2.0, [0, i_val, 0], [0, v_val, 0])
    cfg = EstimationConfig(n_a=1, n_b=0, n_r=0, bin_window=(1, 1), iterations=0)
    row = build_regressor(spectra, cfg)
    assert row.shape == (1, 3)
    q = np.sqrt(2 * np.pi * 0.5) * Q45
    assert row[0] == pytest.approx([q * v_val, -i_val, 1.0], rel=1e-14)


def test_build_regressor_column_count():
    spectra = _spectral_set(1.0, np.ones(12), np.ones(12))
    cfg = EstimationConfig(n_a=3, n_b=2, n_r=1, bin_window=(1, 10), iterations=0)
    assert build_regressor(spectra, cfg).shape == (10, 3 + 3 + 2)


def test_regressor_annihilates_true_parameters():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    regressor = build_regressor(spectra, cfg)
    truth = randles_to_rational(SIM_PARAMS)
    theta = np.concatenate([truth.a, truth.b, [0.0, 0.0]])
    residual = np.abs(regressor @ theta)
    row_norms = np.linalg.norm(regressor, axis=1)
    assert np.all(residual < 1e-9 * row_norms)


def test_empty_bin_selection_errors():
    spectra = _spectral_set(1.0, np.ones(8), np.ones(8))
    cfg = EstimationConfig(bin_window=(1, 6), bin_mask=[7], iterations=0)
    with pytest.raises(ValueError, match="empty"):
        build_regressor(spectra, cfg)


# ---------------------------------------------------------------- TLS solve


def _null_space_matrix(rng, n_rows, null_vector):
    v = np.asarray(null_vector, dtype=float)
    basis = rng.normal(size=(n_rows, v.size))
    return basis - np.outer(basis @ v, v) / (v @ v)


def test_tls_recovers_exact_null_space():
    rng = np.random.default_rng(21)
    cfg = EstimationConfig(n_a=2, n_b=2, n_r=1, iterations=0)
    v = rng.normal(size=cfg.n_columns)
    v[0] = 1.3
    regressor = _null_space_matrix(rng, 12, v).astype(complex)
    result = tls_solve(regressor, cfg)
    assert result.theta == pytest.approx(v / v[0], rel=1e-10)
    assert result.weighted_cost < 1e-20


def test_tls_invariant_under_row_duplication():
    rng = np.random.default_rng(22)
    cfg = EstimationConfig(n_a=2, n_b=2, n_r=1, iterations=0)
    regressor = (rng.normal(size=(20, cfg.n_columns))
                 + 1j * rng.normal(size=(20, cfg.n_columns)))
    single = tls_solve(regressor, cfg)
    doubled = tls_solve(np.vstack([regressor, regressor]), cfg)
    assert doubled.theta == pytest.approx(single.theta, rel=1e-12)


def test_tls_normalization_error_when_a1_vanishes():
    rng = np.random.default_rng(23)
    cfg = EstimationConfig(n_a=2, n_b=2, n_r=1, iterations=0)
    v = rng.normal(size=cfg.n_columns)
    v[0] = 0.0
    regressor = _null_space_matrix(rng, 12, v).astype(complex)
    with pytest.raises(NumericsError, match="a_1"):
        tls_solve(regressor, cfg)


def test_tls_ambiguity_warning_on_two_dim_null_space():
    rng = np.random.default_rng(24)
    cfg = EstimationConfig(n_a=2, n_b=2, n_r=1, iterations=0)
    null_basis, _ = np.linalg.qr(rng.normal(size=(cfg.n_columns, 2)))
    basis = rng.normal(size=(12, cfg.n_columns))
    basis = basis - (basis @ null_basis) @ null_basis.T
    with pytest.warns(UserWarning, match="ambiguous"):
        tls_solve(basis.astype(complex), cfg)


def test_tls_requires_enough_rows():
    cfg = EstimationConfig(n_a=1, n_b=0, n_r=0, iterations=0)
    with pytest.raises(ValueError, match="rows"):
        tls_solve(np.ones((1, 3), dtype=complex), cfg)


def test_noiseless_pipeline_recovers_generator_coefficients():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    result = wtls_estimate(spectra, cfg)
    truth = randles_to_rational(SIM_PARAMS)
    assert result.rational.a == pytest.approx(truth.a, rel=1e-6)
    assert result.rational.b == pytest.approx(truth.b, rel=1e-6)
    assert np.abs(result.transient).max() < 1e-6 * np.linalg.norm(truth.b)


def test_noiseless_smallest_singular_value_is_negligible():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    regressor = build_regressor(spectra, cfg)
    stacked = np.vstack([regressor.real, regressor.imag])
    stacked /= np.linalg.norm(stacked, axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[-1] < 1e-8 * s[0]


# ---------------------------------------------------------------- sigma_E


def _theta_result(a, b, c):
    return EstimateResult(rational=HalfOrderRational(a=a, b=b), transient=np.asarray(c),
                          weighted_cost=0.0, iterations_run=0, sigma_e=None)


def test_sigma_e_zero_noise_is_floored_to_uniform():
    spectra = _spectral_set(1.0, np.ones(8), np.ones(8),
                            var_current=np.zeros(8), var_voltage=np.zeros(8),
                            covar_vi=np.zeros(8))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    sigma = equation_error_sigma(spectra, _theta_result([1.0], [0.5, 0.5], [0.0]), cfg)
    assert np.all(sigma == sigma[0])


def test_sigma_e_voltage_only_equals_abs_a():
    n = 8
    spectra = _spectral_set(1.0, np.ones(n), np.ones(n),
                            var_current=np.zeros(n), var_voltage=np.ones(n),
                            covar_vi=np.zeros(n))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    sigma = equation_error_sigma(spectra, _theta_result([1.0], [0.0, 0.0], [0.0]), cfg)
    omega = 2 * np.pi * np.arange(1, 7) / 1.0
    assert sigma == pytest.approx(np.sqrt(omega), rel=1e-12)  # |A| = |q| = sqrt(w)


def test_sigma_e_matches_monte_carlo_variance():
    rng = np.random.default_rng(30)
    period_s = 2.0
    var_v = np.array([0.0, 2.0, 0.5, 1.3, 0.0])
    var_i = np.array([0.0, 1.0, 2.5, 0.8, 0.0])
    rho = np.array([0.0, 0.4 + 0.3j, -0.5j, 0.2 - 0.6j, 0.0])
    covar = rho * np.sqrt(var_v * var_i)

    spectra = _spectral_set(period_s, np.ones(5), np.ones(5),
                            var_current=var_i, var_voltage=var_v, covar_vi=covar)
    cfg = EstimationConfig(n_a=2, n_b=1, n_r=0, bin_window=(1, 3))
    theta = _theta_result([1.0, 0.7], [0.3, -0.4], [0.0])
    sigma = equation_error_sigma(spectra, theta, cfg)

    n_draws = 100_000
    omega = 2 * np.pi * np.arange(1, 4) / period_s
    q = np.sqrt(omega) * Q45
    pol_a = 1.0 * q + 0.7 * q**2
    pol_b = 0.3 + (-0.4) * q
    for j, k in enumerate(range(1, 4)):
        cov = np.array([[var_v[k], covar[k]], [np.conj(covar[k]), var_i[k]]])
        chol = np.linalg.cholesky(cov)
        z = (rng.normal(size=(2, n_draws)) + 1j * rng.normal(size=(2, n_draws))) / np.sqrt(2)
        nv, ni = chol @ z
        err = pol_a[j] * nv - pol_b[j] * ni
        assert np.mean(np.abs(err) ** 2) == pytest.approx(sigma[j] ** 2, rel=0.03)


def test_sigma_e_requires_covariances():
    spectra = _spectral_set(1.0, np.ones(8), np.ones(8), periods=1)
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    with pytest.raises(ValueError, match="unweighted"):
        equation_error_sigma(spectra, _theta_result([1.0], [0.5, 0.5], [0.0]), cfg)


# ---------------------------------------------------------------- WTLS


def test_wtls_with_uniform_weights_equals_unweighted_tls():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    zeroed = dataclasses.replace(
        spectra,
        var_current=np.zeros(spectra.n_bins),
        var_voltage=np.zeros(spectra.n_bins),
        covar_vi=np.zeros(spectra.n_bins, dtype=complex),
    )
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=7)
    weighted = wtls_estimate(zeroed, cfg)
    plain = tls_solve(build_regressor(zeroed, cfg), cfg)
    assert weighted.theta == pytest.approx(plain.theta, rel=1e-13)
    assert weighted.iterations_run == 7


@pytest.mark.parametrize("periods", [2, 5, 6])
@pytest.mark.parametrize("seed", [0, 3])
def test_noiseless_tiled_record_is_solved_with_unit_weights(seed, periods):
    # bitwise identical periods leave only rounding debris in the sample
    # covariances (exact zeros at P = 2, not at P = 6); weighting rows by
    # that debris degrades recovery to about 1e-6
    spec, one_period = make_multisine_current(periods=1, seed=seed)
    current = TimeRecord(samples=np.tile(one_period.samples, periods),
                         sample_rate_hz=one_period.sample_rate_hz, periods=periods,
                         period_s=one_period.period_s, kind="current")
    spectra = per_period_spectra(current, simulate_response(SIM_PARAMS, current))
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="two smallest singular values")
        result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    truth = randles_to_rational(SIM_PARAMS)
    assert result.iterations_run == 10
    assert result.rational.a == pytest.approx(truth.a, rel=1e-10)
    assert result.rational.b == pytest.approx(truth.b, rel=1e-10)


def test_wtls_single_period_falls_back_with_warning():
    spec, current, voltage = simulate_pair(make_multisine_current(
        period_s=20.0, f_min_hz=0.05, f_max_hz=1.0, points_per_decade=6,
        sample_rate_hz=20.0, periods=1))
    spectra = per_period_spectra(current, voltage)
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=10)
    with pytest.warns(UserWarning, match="unweighted"):
        result = wtls_estimate(spectra, cfg)
    assert result.iterations_run == 0
    assert result.sigma_e is None


def _noisy_spectra(seed, snr=20.0, **kwargs):
    spec, current, voltage = simulate_pair(make_multisine_current(**kwargs))
    rng = np.random.default_rng(seed)
    i = current.with_samples(
        current.samples + rng.normal(0, current.rms() / snr, current.n_samples))
    ac = voltage.samples - voltage.samples.mean()
    v = voltage.with_samples(
        voltage.samples + rng.normal(0, np.sqrt(np.mean(ac**2)) / snr, voltage.n_samples))
    return spec, per_period_spectra(i, v)


def test_scaling_both_channels_leaves_impedance_coefficients_unchanged():
    spec, current, voltage = simulate_pair(make_multisine_current(
        period_s=50.0, f_min_hz=0.02, f_max_hz=2.0, points_per_decade=8,
        sample_rate_hz=20.0, periods=4))
    rng = np.random.default_rng(31)
    i = current.with_samples(current.samples + rng.normal(0, 0.01, current.n_samples))
    v = voltage.with_samples(voltage.samples + rng.normal(0, 0.01, voltage.n_samples))
    gamma = 12.5
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    base = wtls_estimate(per_period_spectra(i, v), cfg)
    scaled = wtls_estimate(per_period_spectra(
        i.with_samples(gamma * i.samples), v.with_samples(gamma * v.samples)), cfg)
    assert scaled.rational.a == pytest.approx(base.rational.a, rel=1e-9)
    assert scaled.rational.b == pytest.approx(base.rational.b, rel=1e-9)
    assert scaled.transient == pytest.approx(gamma * base.transient, rel=1e-6)


def test_scaling_all_sigma_e_leaves_estimate_unchanged():
    spec, spectra = _noisy_spectra(32, period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                   points_per_decade=8, sample_rate_hz=20.0, periods=4)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    base = wtls_estimate(spectra, cfg)
    c = 37.0
    inflated = dataclasses.replace(
        spectra,
        var_current=spectra.var_current * c**2,
        var_voltage=spectra.var_voltage * c**2,
        covar_vi=spectra.covar_vi * c**2,
    )
    scaled = wtls_estimate(inflated, cfg)
    assert scaled.theta == pytest.approx(base.theta, rel=1e-12)


def test_returned_coefficients_are_real_arrays():
    spec, spectra = _noisy_spectra(33, period_s=20.0, f_min_hz=0.05, f_max_hz=1.0,
                                   points_per_decade=6, sample_rate_hz=20.0, periods=3)
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    assert np.isrealobj(result.rational.a)
    assert np.isrealobj(result.rational.b)
    assert np.isrealobj(result.transient)


def test_final_iteration_does_not_increase_weighted_cost():
    spec, spectra = _noisy_spectra(34, period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                   points_per_decade=8, sample_rate_hz=20.0, periods=4)
    prev = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics, iterations=3))
    last = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics, iterations=4))
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=4)
    w2 = 1.0 / equation_error_sigma(spectra, prev, cfg) ** 2
    weighted = build_regressor(spectra, cfg) * np.sqrt(w2)[:, None]

    # weighted noise Gram of the a/b columns [q^n V]_{n=1..3} | [-q^n I]_{n=0..3}
    bins = prev.bins
    q = np.sqrt(2 * np.pi * spectra.freq_hz[bins]) * Q45
    qv = q[None, :] ** np.arange(1, 4)[:, None]
    qi = q[None, :] ** np.arange(0, 4)[:, None]
    cross = -(qv * w2 * spectra.covar_vi[bins]) @ qi.conj().T
    gram = np.block([
        [(qv * w2 * spectra.var_voltage[bins]) @ qv.conj().T, cross],
        [cross.conj().T, (qi * w2 * spectra.var_current[bins]) @ qi.conj().T],
    ]).real
    ridged = gram + 1e-10 * np.diag(np.diag(gram))

    def quotient(theta):
        theta_ab = theta[:7]
        return np.sum(np.abs(weighted @ theta) ** 2) / (theta_ab @ ridged @ theta_ab)

    assert quotient(last.theta) <= quotient(prev.theta) * (1 + 1e-10)
    assert len(last.cost_history) == 5


def test_mask_bins_outside_window_warn_with_count():
    spectra = _spectral_set(1.0, np.ones(10), np.ones(10))
    cfg = EstimationConfig(bin_window=(1, 6), bin_mask=[2, 3, 7, 9, 2])
    with pytest.warns(UserWarning, match="2 of 4 mask bins outside the window"):
        assert list(cfg.selected_bins(spectra)) == [2, 3]


def test_dropped_mask_bins_warn_once_per_estimate():
    spec, spectra = _noisy_spectra(35, period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                   points_per_decade=8, sample_rate_hz=20.0, periods=4)
    cfg = EstimationConfig(bin_window=(1, int(spec.harmonics[-2])), bin_mask=spec.harmonics)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wtls_estimate(spectra, cfg)
    dropped = [w for w in caught if "outside the window" in str(w.message)]
    assert len(dropped) == 1
    assert str(dropped[0].message) == f"1 of {spec.harmonics.size} mask bins outside the window"


def test_wtls_requires_some_data():
    spectra = _spectral_set(1.0, np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        wtls_estimate(spectra, EstimationConfig(bin_window=(1, 2), bin_mask=[3]))


def test_window_beyond_available_bins_errors():
    spectra = _spectral_set(1.0, np.ones(8), np.ones(8))
    with pytest.raises(ValueError, match="exceeds"):
        EstimationConfig(bin_window=(1, 7)).selected_bins(spectra)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig(n_a=0)
    with pytest.raises(ValueError):
        EstimationConfig(iterations=-1)
    with pytest.raises(ValueError):
        EstimationConfig(bin_window=(3, 2))


# ---------------------------------------------------------------- evaluation helpers


def test_parametric_impedance_with_true_coefficients():
    truth = randles_to_rational(SIM_PARAMS)
    result = _theta_result(truth.a, truth.b, [0.0, 0.0])
    omega = np.logspace(-3, 3, 60)
    curve = parametric_impedance(result, omega)
    assert curve.z_ohm == pytest.approx(randles_impedance(SIM_PARAMS, omega), rel=1e-12)


def test_parametric_impedance_defined_off_grid():
    result = _theta_result([1.0], [0.0, 1.0], [0.0])
    curve = parametric_impedance(result, [0.12345, 7.6543])
    assert curve.z_ohm == pytest.approx([1.0, 1.0], rel=1e-13)


def test_relative_error_identity_and_scale():
    freq = np.logspace(-2, 1, 20)
    z = randles_impedance(SIM_PARAMS, 2 * np.pi * freq)
    ref = ImpedanceCurve(freq_hz=freq, z_ohm=z)
    assert relative_error_curve(ref, ref) == pytest.approx(np.zeros(20), abs=1e-15)
    shifted = ImpedanceCurve(freq_hz=freq, z_ohm=1.01 * z)
    assert relative_error_curve(ref, shifted) == pytest.approx(np.full(20, 0.01), rel=1e-10)


def test_relative_error_zero_reference_skipped():
    ref = ImpedanceCurve(freq_hz=[1.0, 2.0], z_ohm=[1.0, 0.0])
    est = ImpedanceCurve(freq_hz=[1.0, 2.0], z_ohm=[1.0, 1.0])
    with pytest.warns(UserWarning, match="zero reference"):
        err = relative_error_curve(ref, est)
    assert err[0] == 0.0
    assert np.isnan(err[1])


def test_relative_error_grid_mismatch():
    a = ImpedanceCurve(freq_hz=[1.0, 2.0], z_ohm=[1.0, 1.0])
    b = ImpedanceCurve(freq_hz=[1.0, 2.5], z_ohm=[1.0, 1.0])
    with pytest.raises(ValueError, match="grid"):
        relative_error_curve(a, b)
