import dataclasses
import re
import time
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
    equation_error_sigma,
    fit_randles,
    generate_periodic_noise,
    parametric_impedance,
    per_period_spectra,
    randles_impedance,
    randles_to_rational,
    relative_error_curve,
    scale_to_rms,
    simulate_response,
    wtls_estimate,
)
from fracimp import estimator
from fracimp.estimator import _column_gram, _columns, _noise_table, _solve
from fracimp.model import ImpedanceCurve

from conftest import SIM_PARAMS, make_multisine_current, simulate_pair, spectral_set

Q45 = np.exp(1j * np.pi / 4)


def _noiseless_spectra(**kwargs):
    spec, current, voltage = simulate_pair(make_multisine_current(**kwargs))
    return spec, per_period_spectra(current, voltage)


_PIPE_KW = dict(period_s=200.0, f_min_hz=0.005, f_max_hz=5.0, points_per_decade=8,
                sample_rate_hz=50.0, periods=5)


def _build_regressor(spectra, cfg):
    return _columns(spectra, cfg.selected_bins(spectra), cfg)[0]


def _theta(result):
    """theta = [a | b | c] of an estimate, in the layout of `_columns`."""
    return np.concatenate([result.rational.a, result.rational.b, result.transient])


def _tls(regressor):
    """Plain TLS estimate of a complex regressor, a_1-normalized."""
    stacked = np.vstack([regressor.real, regressor.imag])
    return _solve(stacked, _column_gram(stacked), np.arange(stacked.shape[1]))


# ---------------------------------------------------------------- regressor


def test_regressor_smallest_row():
    i_val, v_val = 0.3 - 0.1j, 0.2 + 0.5j
    spectra = spectral_set(2.0, [0, i_val, 0], [0, v_val, 0])
    cfg = EstimationConfig(n_a=1, n_b=0, n_r=0, bin_window=(1, 1), iterations=0)
    # two bins: one gives two stacked rows for the three columns, which _columns refuses
    row, mix, channel = _columns(spectra, np.array([1, 2]), cfg)
    assert row.shape == (2, 3)
    q = np.sqrt(2 * np.pi * 0.5) * Q45
    assert row[0] == pytest.approx([q * v_val, -i_val, 1.0], rel=1e-14)
    assert mix[:, 0] == pytest.approx([q, -1.0], rel=1e-14)  # (jw)^{1/2} on a_1, -1 on b_0
    assert channel.tolist() == [0, 1, 2]


def test_regressor_column_count():
    spectra = spectral_set(1.0, np.ones(12), np.ones(12))
    cfg = EstimationConfig(n_a=3, n_b=2, n_r=1, bin_window=(1, 10), iterations=0)
    regressor, mix, channel = _columns(spectra, cfg.selected_bins(spectra), cfg)
    assert regressor.shape == (10, 3 + 3 + 2)
    assert mix.shape == (3 + 3, 10)
    assert channel.tolist() == [0, 0, 0, 1, 1, 1, 2, 2]


def test_regressor_annihilates_true_parameters():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    regressor = _build_regressor(spectra, cfg)
    truth = randles_to_rational(SIM_PARAMS)
    theta = np.concatenate([truth.a, truth.b, [0.0, 0.0]])
    residual = np.abs(regressor @ theta)
    row_norms = np.linalg.norm(regressor, axis=1)
    assert np.all(residual < 1e-9 * row_norms)


def test_empty_bin_selection_errors():
    spectra = spectral_set(1.0, np.ones(8), np.ones(8))
    cfg = EstimationConfig(bin_window=(1, 6), bin_mask=[7], iterations=0)
    with pytest.raises(ValueError, match="^bin_mask leaves no bin in the window$"):
        _build_regressor(spectra, cfg)


# ---------------------------------------------------------------- TLS solve


N_COLUMNS = 2 + 3 + 2  # n_a = 2, n_b = 2, n_r = 1


def _null_space_matrix(rng, n_rows, null_vector):
    v = np.asarray(null_vector, dtype=float)
    basis = rng.normal(size=(n_rows, v.size))
    return basis - np.outer(basis @ v, v) / (v @ v)


def test_tls_recovers_exact_null_space():
    rng = np.random.default_rng(21)
    v = rng.normal(size=N_COLUMNS)
    v[0] = 1.3
    regressor = _null_space_matrix(rng, 12, v).astype(complex)
    theta = _tls(regressor)
    assert theta == pytest.approx(v / v[0], rel=1e-10)
    assert np.sum(np.abs(regressor @ theta) ** 2) < 1e-20


def test_tls_invariant_under_row_duplication():
    rng = np.random.default_rng(22)
    regressor = (rng.normal(size=(20, N_COLUMNS))
                 + 1j * rng.normal(size=(20, N_COLUMNS)))
    single = _tls(regressor)
    doubled = _tls(np.vstack([regressor, regressor]))
    assert doubled == pytest.approx(single, rel=1e-12)


def test_tls_normalization_error_when_a1_vanishes():
    rng = np.random.default_rng(23)
    v = rng.normal(size=N_COLUMNS)
    v[0] = 0.0
    regressor = _null_space_matrix(rng, 12, v).astype(complex)
    with pytest.raises(NumericsError, match="a_1"):
        _tls(regressor)


def test_tls_ambiguity_warning_on_two_dim_null_space():
    rng = np.random.default_rng(24)
    null_basis, _ = np.linalg.qr(rng.normal(size=(N_COLUMNS, 2)))
    basis = rng.normal(size=(12, N_COLUMNS))
    basis = basis - (basis @ null_basis) @ null_basis.T
    with pytest.warns(UserWarning, match="ambiguous"):
        _tls(basis.astype(complex))


def test_tls_requires_enough_rows():
    # n_a = 1, n_b = 0, n_r = 0: three columns, one bin gives two stacked rows
    spectra = spectral_set(2.0, [0, 1, 0], [0, 1, 0])
    cfg = EstimationConfig(n_a=1, n_b=0, n_r=0, iterations=0)
    with pytest.raises(ValueError, match=r"^2 stacked rows < 3 columns; select more bins "
                                         r"or reduce model orders$"):
        _columns(spectra, np.array([1]), cfg)


@pytest.mark.parametrize("order", ["n_a", "n_b", "n_r"])
def test_huge_model_orders_are_refused_before_any_array_is_built(order):
    # 10**30 columns would start a basis of 10**30 powers; the rule comes first
    spectra = spectral_set(1.0, np.ones(101), np.ones(101), var_current=np.ones(101),
                           var_voltage=np.ones(101), covar_vi=np.zeros(101))
    cfg = EstimationConfig(**{order: 10**30}, bin_window=(1, 50))
    rational = HalfOrderRational(a=[1.0, 0.1, 0.01], b=[0.1, 0.2, 0.03, 0.004])
    message = r"^100 stacked rows < 1\d{30} columns; select more bins or reduce model orders$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        wtls_estimate(spectra, cfg)
    with pytest.raises(ValueError, match=message):
        equation_error_sigma(spectra, rational, cfg)
    assert time.perf_counter() - start < 1.0


def _full_row_solve(stacked, gram, ridge=0.0):
    """Reference solve on all rows of K: projection, whitening and SVD, no QR reduction."""
    noisy = np.diag(gram) > 0
    k_n, k_f = stacked[:, noisy], stacked[:, ~noisy]
    q_f, _ = np.linalg.qr(k_f)
    k_proj = k_n - q_f @ (q_f.T @ k_n)
    diag = np.sqrt(np.diag(gram)[noisy])
    chol = np.linalg.cholesky(gram[np.ix_(noisy, noisy)] / np.outer(diag, diag)
                              + ridge * np.eye(diag.size))
    whitened = np.linalg.solve(chol, (k_proj / diag).T).T
    vt = np.linalg.svd(whitened, full_matrices=False)[2]
    theta = np.empty(noisy.size)
    theta[noisy] = np.linalg.solve(chol.T, vt[-1]) / diag
    theta[~noisy] = -np.linalg.lstsq(k_f, k_n @ theta[noisy], rcond=None)[0]
    return theta / theta[0]


def _noise_excited_spectra(seed, noisy=("current", "voltage")):
    """Protocol-point record (200 s, 200 Hz, 5 periods, SNR 50) on periodic-noise excitation.

    Only the channels named in `noisy` get measurement noise; the other stays exact.
    """
    current = scale_to_rms(generate_periodic_noise(200.0, 200.0, 5, seed=seed), 0.5)
    voltage = simulate_response(SIM_PARAMS, current)
    rng = np.random.default_rng(seed)
    snr = 50.0
    ac = voltage.samples - voltage.samples.mean()
    i_std = current.rms() / snr * ("current" in noisy)
    v_std = np.sqrt(np.mean(ac**2)) / snr * ("voltage" in noisy)
    return per_period_spectra(
        current.with_samples(current.samples + rng.normal(0, i_std, current.n_samples)),
        voltage.with_samples(voltage.samples + rng.normal(0, v_std, voltage.n_samples)))


def _ab_table(spectra, cfg):
    """Selected bins, complex regressor and noise table of all a/b columns."""
    bins = cfg.selected_bins(spectra)
    regressor, mix, channel = _columns(spectra, bins, cfg)
    return bins, regressor, _noise_table(spectra, bins, mix, channel[channel < 2])


def _weighted_pass(spectra, cfg):
    """Stacked regressor and noise Gram of the first weighted pass, in model column order.

    The Gram has zero rows and columns for the noise-free columns.
    """
    _, regressor, table = _ab_table(spectra, cfg)
    n_ab = cfg.n_a + cfg.n_b + 1
    weights = 1.0 / estimator._sigma_e(table, _tls(regressor)[:n_ab])
    gram = np.zeros((regressor.shape[1],) * 2)
    gram[:n_ab, :n_ab] = (table @ weights**2).reshape(n_ab, n_ab)
    weighted = regressor * weights[:, None]
    return np.vstack([weighted.real, weighted.imag]), gram


@pytest.fixture(scope="module")
def noise_spectra():
    return _noise_excited_spectra(34)


@pytest.fixture(scope="module")
def solve_cases(noise_spectra):
    window = EstimationConfig(bin_window=(1, 2000), n_r=1)
    spec, masked = _noisy_spectra(34)
    mask = EstimationConfig(bin_mask=spec.harmonics, n_r=1)
    plain = _build_regressor(noise_spectra, window)
    stacked = np.vstack([plain.real, plain.imag])
    # exact voltage: the leading a columns carry no noise, like the transient
    exact_voltage = _noise_excited_spectra(34, noisy=("current",))
    return {
        "noise_window": (*_weighted_pass(noise_spectra, window), estimator._GRAM_RIDGE),
        "protocol_mask": (*_weighted_pass(masked, mask), estimator._GRAM_RIDGE),
        "plain_tls": (stacked, _column_gram(stacked), 0.0),
        "exact_voltage": (*_weighted_pass(exact_voltage, window), estimator._GRAM_RIDGE),
    }


@pytest.mark.parametrize("case", ["noise_window", "protocol_mask", "plain_tls",
                                  "exact_voltage"])
def test_solve_on_qr_factor_matches_full_row_solve(solve_cases, case):
    # _solve takes the noise-free columns first; they come from the leading
    # (exact voltage) and trailing (transient) model columns, and each group
    # is shuffled so that any column order maps back
    stacked, gram, ridge = solve_cases[case]
    noisy = np.diag(gram) > 0
    rng = np.random.default_rng(38)
    order = np.concatenate([rng.permutation(np.flatnonzero(~noisy)),
                            rng.permutation(np.flatnonzero(noisy))])
    cols = order[np.count_nonzero(~noisy):]
    theta = _solve(stacked[:, order], gram[np.ix_(cols, cols)], order, ridge)
    reference = _full_row_solve(stacked, gram, ridge)
    assert theta[:7] == pytest.approx(reference[:7], rel=1e-10)


def test_noise_gram_matches_per_bin_sum(noise_spectra):
    spectra = noise_spectra
    bins, _, table = _ab_table(spectra, EstimationConfig(bin_window=(1, 2000), n_r=1))
    weights = np.random.default_rng(36).uniform(0.5, 2.0, bins.size)
    gram = (table @ weights**2).reshape(7, 7)

    reference = np.zeros((7, 7))  # the transient columns carry no noise and are not in it
    for k, w in zip(bins, weights):
        q = np.sqrt(2 * np.pi * spectra.freq_hz[k]) * Q45
        mixing = np.zeros((7, 2), dtype=complex)
        mixing[:3, 0] = q ** np.arange(1, 4)       # (jw)^{n/2} V, n = 1..3
        mixing[3:7, 1] = -(q ** np.arange(0, 4))   # -(jw)^{n/2} I, n = 0..3
        cov = np.array([[spectra.var_voltage[k], spectra.covar_vi[k]],
                        [np.conj(spectra.covar_vi[k]), spectra.var_current[k]]])
        reference += w**2 * (mixing @ cov @ mixing.conj().T).real
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    assert np.all(np.abs(gram - reference) <= 1e-13 * scale)


def test_noise_table_quadratic_form_is_the_closed_form_variance(noise_spectra):
    spectra = noise_spectra
    bins, _, table = _ab_table(spectra, EstimationConfig(bin_window=(1, 2000), n_r=1))
    var_v, var_i = spectra.var_voltage[bins], spectra.var_current[bins]
    basis = (np.sqrt(2 * np.pi * spectra.freq_hz[bins]) * Q45) ** np.arange(4)[:, None]
    for theta in np.random.default_rng(37).normal(size=(20, 7)):
        pol_a, pol_b = theta[:3] @ basis[1:4], theta[3:] @ basis[:4]
        closed = (np.abs(pol_a) ** 2 * var_v + np.abs(pol_b) ** 2 * var_i
                  - 2 * np.real(pol_a * spectra.covar_vi[bins] * np.conj(pol_b)))
        quadratic = np.outer(theta, theta).ravel() @ table
        assert np.all(np.abs(quadratic - closed) <= 1e-12 * closed)


def test_noise_table_is_exactly_zero_where_a_channel_has_no_noise():
    # exact voltage everywhere, and no current noise at every third bin
    spectra = _noise_excited_spectra(34, noisy=("current",))
    silent = np.arange(spectra.mean_current.size) % 3 == 0
    spectra = dataclasses.replace(spectra, var_current=np.where(silent, 0.0, spectra.var_current),
                                  covar_vi=np.where(silent, 0.0, spectra.covar_vi))
    cfg = EstimationConfig(bin_window=(1, 2000), n_r=1)
    bins, _, table = _ab_table(spectra, cfg)
    per_bin = table.reshape(7, 7, bins.size)
    assert not per_bin[:3].any() and not per_bin[:, :3].any()  # the a columns
    assert not per_bin[..., silent[bins]].any()
    assert all(per_bin[i, i, ~silent[bins]].all() for i in range(3, 7))


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
    regressor = _build_regressor(spectra, cfg)
    stacked = np.vstack([regressor.real, regressor.imag])
    stacked /= np.linalg.norm(stacked, axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[-1] < 1e-8 * s[0]


def _leaky_window(seed, start=281_234, window_s=200.0, long_period_s=4000.0, fs=200.0):
    """A noiseless window of the steady state on a long period of periodic noise,
    read as a one-period record: it starts `start` samples in and is not periodic
    in its own length, so its DFT leaks."""
    current = scale_to_rms(generate_periodic_noise(long_period_s, fs, 1, seed=seed), 0.5)
    voltage = simulate_response(SIM_PARAMS, current)
    cut = slice(start, start + int(window_s * fs))
    return per_period_spectra(*(TimeRecord(x.samples[cut], fs, window_s)
                                for x in (current, voltage)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transient_columns_absorb_leakage(seed):
    # n_r = 2 gives 36x, 65x and 411x less band-max error than n_r = 0 on seeds 1-3
    spectra = _leaky_window(seed)
    bins = np.arange(1, 2001)
    omega = 2 * np.pi * spectra.freq_hz[bins]
    reference = ImpedanceCurve(freq_hz=spectra.freq_hz[bins],
                               z_ohm=randles_impedance(SIM_PARAMS, omega))

    def band_max_error(n_r):
        cfg = EstimationConfig(bin_window=(1, 2000), n_r=n_r, iterations=0)
        estimate = parametric_impedance(wtls_estimate(spectra, cfg), omega)
        return relative_error_curve(reference, estimate).max()

    assert band_max_error(2) * 5 <= band_max_error(0)


# ---------------------------------------------------------------- sigma_E


def test_sigma_e_zero_noise_is_floored_to_uniform():
    spectra = spectral_set(1.0, np.ones(8), np.ones(8),
                           var_current=np.zeros(8), var_voltage=np.zeros(8),
                           covar_vi=np.zeros(8))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    sigma = equation_error_sigma(spectra, HalfOrderRational(a=[1.0], b=[0.5, 0.5]), cfg)
    assert np.all(sigma == sigma[0])


def test_sigma_e_zero_on_most_bins_is_floored_at_1e_8_of_the_largest():
    var_voltage = np.zeros(8)
    var_voltage[5:7] = 1.0  # noise at bins 5 and 6 only: the median sigma_E is 0
    spectra = spectral_set(1.0, np.ones(8), np.ones(8), var_current=np.zeros(8),
                           var_voltage=var_voltage, covar_vi=np.zeros(8))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    sigma = equation_error_sigma(spectra, HalfOrderRational(a=[1.0], b=[0.0, 0.0]), cfg)
    assert sigma[4:] == pytest.approx(np.sqrt(2 * np.pi * np.array([5, 6])), rel=1e-12)  # |A|
    assert np.all(sigma[:4] == 1e-8 * sigma[5])


def test_sigma_e_voltage_only_equals_abs_a():
    n = 8
    spectra = spectral_set(1.0, np.ones(n), np.ones(n),
                           var_current=np.zeros(n), var_voltage=np.ones(n),
                           covar_vi=np.zeros(n))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    sigma = equation_error_sigma(spectra, HalfOrderRational(a=[1.0], b=[0.0, 0.0]), cfg)
    omega = 2 * np.pi * np.arange(1, 7) / 1.0
    assert sigma == pytest.approx(np.sqrt(omega), rel=1e-12)  # |A| = |q| = sqrt(w)


def test_sigma_e_matches_monte_carlo_variance():
    rng = np.random.default_rng(30)
    period_s = 2.0
    var_v = np.array([0.0, 2.0, 0.5, 1.3, 0.0])
    var_i = np.array([0.0, 1.0, 2.5, 0.8, 0.0])
    rho = np.array([0.0, 0.4 + 0.3j, -0.5j, 0.2 - 0.6j, 0.0])
    covar = rho * np.sqrt(var_v * var_i)

    spectra = spectral_set(period_s, np.ones(5), np.ones(5),
                           var_current=var_i, var_voltage=var_v, covar_vi=covar)
    cfg = EstimationConfig(n_a=2, n_b=1, n_r=0, bin_window=(1, 3))
    rational = HalfOrderRational(a=[1.0, 0.7], b=[0.3, -0.4])
    sigma = equation_error_sigma(spectra, rational, cfg)

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


def test_sigma_e_rejects_a_rational_of_other_orders_than_the_config():
    spectra = spectral_set(1.0, np.ones(8), np.ones(8), var_current=np.ones(8),
                           var_voltage=np.ones(8), covar_vi=np.zeros(8))
    cfg = EstimationConfig(n_a=2, n_b=1, n_r=0, bin_window=(1, 6))
    # a (1, 2) rational has as many numbers as the (2, 1) one, but not its orders
    with pytest.raises(ValueError, match=re.escape(
            "rational has orders (n_a, n_b) = (1, 2) but the config has (2, 1)")):
        equation_error_sigma(spectra, HalfOrderRational(a=[1.0], b=[0.5, 0.5, 0.5]), cfg)


def test_sigma_e_requires_covariances():
    spectra = spectral_set(1.0, np.ones(8), np.ones(8))
    cfg = EstimationConfig(n_a=1, n_b=1, n_r=0, bin_window=(1, 6))
    with pytest.raises(ValueError, match="unweighted"):
        equation_error_sigma(spectra, HalfOrderRational(a=[1.0], b=[0.5, 0.5]), cfg)


# ---------------------------------------------------------------- WTLS


def test_wtls_with_uniform_weights_equals_unweighted_tls():
    spec, spectra = _noiseless_spectra(**_PIPE_KW)
    zeroed = dataclasses.replace(
        spectra,
        var_current=np.zeros(spectra.mean_current.size),
        var_voltage=np.zeros(spectra.mean_current.size),
        covar_vi=np.zeros(spectra.mean_current.size, dtype=complex),
    )
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=7)
    weighted = wtls_estimate(zeroed, cfg)
    plain = _tls(_build_regressor(zeroed, cfg))
    assert _theta(weighted) == pytest.approx(plain, rel=1e-13)
    assert weighted.iterations_run == 0
    assert weighted.sigma_e is None


def _tiled_noiseless_spectra(seed, periods):
    spec, one_period = make_multisine_current(periods=1, seed=seed)
    current = one_period.with_samples(np.tile(one_period.samples, periods))
    return spec, per_period_spectra(current, simulate_response(SIM_PARAMS, current))


@pytest.mark.parametrize("periods", [2, 5, 6])
@pytest.mark.parametrize("seed", [0, 3])
def test_noiseless_tiled_record_is_solved_with_unit_weights(seed, periods):
    # bitwise identical periods give exactly zero sample covariances, so no
    # weighted pass runs
    spec, spectra = _tiled_noiseless_spectra(seed, periods)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="two smallest singular values")
        result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    truth = randles_to_rational(SIM_PARAMS)
    assert result.iterations_run == 0
    assert result.sigma_e is None
    assert result.rational.a == pytest.approx(truth.a, rel=1e-10)
    assert result.rational.b == pytest.approx(truth.b, rel=1e-10)


def _count_solves(monkeypatch):
    calls = []
    solve = estimator._solve

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimator, "_solve", counting)
    return calls


def test_noiseless_record_is_solved_once(monkeypatch):
    spec, spectra = _tiled_noiseless_spectra(3, 6)
    unweighted = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics, iterations=0))
    calls = _count_solves(monkeypatch)
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics, iterations=10))
    assert len(calls) == 1
    assert np.array_equal(_theta(result), _theta(unweighted))
    assert result.weighted_cost == unweighted.weighted_cost


def _count_qrs(monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return shapes


@pytest.mark.parametrize("iterations", [0, 4, 10])
@pytest.mark.parametrize("noisy", [True, False])
def test_one_qr_per_solve(monkeypatch, noisy, iterations):
    # one QR of the whole stacked regressor per pass; no second QR to project
    # the noise-free columns out
    if noisy:
        spec, spectra = _noisy_spectra(34, period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                       points_per_decade=8, sample_rate_hz=20.0, periods=4)
    else:
        spec, spectra = _tiled_noiseless_spectra(3, 6)
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=iterations)
    shapes = _count_qrs(monkeypatch)
    result = wtls_estimate(spectra, cfg)
    rows = 2 * cfg.selected_bins(spectra).size
    assert shapes == [(rows, 3 + 4 + 2)] * (result.iterations_run + 1)
    # this record settles after 7 weighted passes, so a maximum of 4 stops it first
    want = {0: (0, None), 4: (4, False), 10: (7, True)}[iterations] if noisy else (0, None)
    assert (result.iterations_run, result.converged) == want


def test_noisy_record_is_solved_once_per_pass(monkeypatch):
    spec, spectra = _noisy_spectra(34, period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                   points_per_decade=8, sample_rate_hz=20.0, periods=4)
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=10)
    calls = _count_solves(monkeypatch)
    result = wtls_estimate(spectra, cfg)
    assert result.converged is True
    assert 1 <= result.iterations_run < 10
    assert len(calls) == result.iterations_run + 1
    assert result.sigma_e.shape == result.bins.shape
    # sigma_e weighted the final pass, so it gives weighted_cost at the returned theta
    errors = _build_regressor(spectra, cfg) @ _theta(result)
    assert np.sum(np.abs(errors / result.sigma_e) ** 2) == pytest.approx(
        result.weighted_cost, rel=1e-12, abs=0)


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


def _noisy_records(seed, snr=20.0, noisy=("current", "voltage"), **kwargs):
    spec, current, voltage = simulate_pair(make_multisine_current(**kwargs))
    rng = np.random.default_rng(seed)
    i = current.with_samples(current.samples + rng.normal(
        0, current.rms() / snr * ("current" in noisy), current.n_samples))
    ac = voltage.samples - voltage.samples.mean()
    v = voltage.with_samples(voltage.samples + rng.normal(
        0, np.sqrt(np.mean(ac**2)) / snr * ("voltage" in noisy), voltage.n_samples))
    return spec, i, v


def _noisy_spectra(seed, snr=20.0, noisy=("current", "voltage"), **kwargs):
    spec, i, v = _noisy_records(seed, snr, noisy, **kwargs)
    return spec, per_period_spectra(i, v)


# ---------------------------------------------------------------- stop rule


@pytest.fixture(scope="module")
def protocol_multisine():
    """The protocol multisine (200 s, 200 Hz, 5 periods) with SNR 50 on both channels."""
    return _noisy_spectra(57, snr=50.0)


def test_reweighting_stops_once_theta_settles(monkeypatch, protocol_multisine):
    spec, spectra = protocol_multisine
    cfg = EstimationConfig(bin_mask=spec.harmonics, iterations=10)
    stopped = wtls_estimate(spectra, cfg)
    assert stopped.converged is True
    assert stopped.iterations_run < 10
    # a zero tolerance never stops: the passes after the stop change nothing
    monkeypatch.setattr(estimator, "_THETA_TOL", 0.0)
    full = wtls_estimate(spectra, cfg)
    assert (full.iterations_run, full.converged) == (10, False)
    assert full.rational.a == pytest.approx(stopped.rational.a, rel=1e-9)
    assert full.rational.b == pytest.approx(stopped.rational.b, rel=1e-9)


def test_maximum_before_the_stop_is_not_converged(protocol_multisine):
    spec, spectra = protocol_multisine
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics, iterations=2))
    assert (result.iterations_run, result.converged) == (2, False)


@pytest.mark.parametrize("case", ["noiseless", "iterations 0", "single period"])
def test_converged_is_null_when_no_weighted_pass_runs(protocol_multisine, case):
    spec, spectra = protocol_multisine
    iterations = 0 if case == "iterations 0" else 10
    if case == "noiseless":
        spec, spectra = _noiseless_spectra()
    elif case == "single period":
        spec, spectra = _noiseless_spectra(periods=1)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="noise covariances unavailable")
        result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics,
                                                         iterations=iterations))
    assert (result.iterations_run, result.converged, result.sigma_e) == (0, None, None)


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_frequency_relabelling_scales_coefficients_by_half_powers(seed):
    # the same samples at sample rate lam*fs and period period_s/lam multiply
    # every (jw)^{n/2} by lam^{n/2}, so after a_1 = 1 normalization a_n and b_n
    # come back as a_n lam^{-(n-1)/2} and b_n lam^{-(n-1)/2}; the stop rule is
    # relative per entry, so it fires after the same pass
    spec, current, voltage = _noisy_records(seed, snr=50.0)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    base = wtls_estimate(per_period_spectra(current, voltage), cfg)
    for lam in (0.25, 4.0, 10.0):
        i, v = (TimeRecord(r.samples, lam * r.sample_rate_hz, r.period_s / lam)
                for r in (current, voltage))
        got = wtls_estimate(per_period_spectra(i, v), cfg)
        assert got.rational.a * lam ** (np.arange(3) / 2) == pytest.approx(
            base.rational.a, rel=1e-12, abs=0)
        assert got.rational.b * lam ** ((np.arange(4) - 1) / 2) == pytest.approx(
            base.rational.b, rel=1e-12, abs=0)
        assert (got.iterations_run, got.converged) == (base.iterations_run, base.converged)


@pytest.mark.parametrize("noisy", [(), ("current", "voltage")], ids=["noiseless", "snr 100"])
def test_frequency_relabelling_scales_the_circuit(noisy):
    # relabelling by lam moves every corner by lam: R_s and R_ct stay, C_dl
    # becomes C_dl/lam and sigma_w becomes sigma_w*sqrt(lam).  At a power of 4
    # every half power scales by a power of 2, which is exact in floating point
    spec, current, voltage = _noisy_records(64, snr=100.0, noisy=noisy)
    cfg = EstimationConfig(bin_mask=spec.harmonics)
    base = fit_randles(wtls_estimate(per_period_spectra(current, voltage), cfg).rational).params
    for lam in (0.25, 4.0):
        i, v = (TimeRecord(r.samples, lam * r.sample_rate_hz, r.period_s / lam)
                for r in (current, voltage))
        got = fit_randles(wtls_estimate(per_period_spectra(i, v), cfg).rational).params
        assert (got.r_s, got.r_ct, got.c_dl, got.sigma_w) == (
            base.r_s, base.r_ct, base.c_dl / lam, base.sigma_w * np.sqrt(lam))


# ---------------------------------------------------------------- one noisy channel

BAND_HZ = np.logspace(np.log10(0.005), np.log10(10.0), 200)  # the protocol band


def _band_max_error(result):
    omega = 2 * np.pi * BAND_HZ
    reference = ImpedanceCurve(freq_hz=BAND_HZ, z_ohm=randles_impedance(SIM_PARAMS, omega))
    return float(relative_error_curve(reference, parametric_impedance(result, omega)).max())


@pytest.mark.parametrize("seed", [51, 52])
def test_exact_current_noise_excitation_is_weighted(seed):
    # output-error data: exact current, noisy voltage.  Unweighted TLS is
    # biased by tens of percent here; the weighted passes solve the b and c
    # columns exactly and stay within criterion 3's limit
    spectra = _noise_excited_spectra(seed, noisy=("voltage",))
    assert not spectra.var_current.any()
    result = wtls_estimate(spectra, EstimationConfig(bin_window=(1, 2000), n_r=1))
    assert result.converged is True
    assert 1 <= result.iterations_run <= 10
    assert _band_max_error(result) < 0.045


@pytest.mark.parametrize("seed", [53, 54])
def test_exact_current_multisine_is_weighted(seed):
    spec, spectra = _noisy_spectra(seed, snr=50.0, noisy=("voltage",))
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    assert result.converged is True
    assert 1 <= result.iterations_run <= 10
    assert _band_max_error(result) < 0.005


def test_exact_voltage_solves_without_ambiguity_warning():
    spec, spectra = _noisy_spectra(55, snr=50.0, noisy=("current",))
    assert not spectra.var_voltage.any()
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="two smallest singular values")
        result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    assert result.converged is True
    assert 1 <= result.iterations_run <= 10
    assert _band_max_error(result) < 0.005


def test_single_noisy_column_is_weighted_least_squares():
    # n_a = 1 with an exact current: a_1 V q is the only noisy column, so the
    # weighted pass is the least-squares fit of the others to it
    spec, spectra = _noisy_spectra(56, snr=50.0, noisy=("voltage",))
    cfg = EstimationConfig(n_a=1, bin_mask=spec.harmonics)
    result = wtls_estimate(spectra, cfg)
    assert result.converged is True
    assert 1 <= result.iterations_run <= 10
    assert result.rational.a[0] == 1.0
    weighted = _build_regressor(spectra, cfg) / result.sigma_e[:, None]
    stacked = np.vstack([weighted.real, weighted.imag])
    rest = -np.linalg.lstsq(stacked[:, 1:], stacked[:, 0], rcond=None)[0]
    assert _theta(result)[1:] == pytest.approx(rest, rel=1e-10)


def test_noiseless_direct_sum_record_recovers_coefficients():
    # a sum of sines evaluated over the whole record is periodic only up to
    # rounding, so its covariances are debris, not zero; the weighted passes
    # still recover the generating coefficients
    spec = make_multisine_current(period_s=50.0, f_min_hz=0.02, f_max_hz=2.0,
                                  points_per_decade=8, sample_rate_hz=20.0, periods=1)[0]
    periods, fs = 5, 20.0
    t = np.arange(int(periods * spec.period_s * fs)) / fs
    omega = 2 * np.pi * spec.freqs_hz
    z = randles_impedance(SIM_PARAMS, omega)
    arg = np.outer(t, omega) + spec.phases
    i = np.sin(arg) @ spec.amplitudes
    v = SIM_PARAMS.ocv + np.sin(arg + np.angle(z)) @ (spec.amplitudes * np.abs(z))
    spectra = per_period_spectra(TimeRecord(i, fs, spec.period_s),
                                 TimeRecord(v, fs, spec.period_s))
    assert spectra.var_current[spec.harmonics].any()
    result = wtls_estimate(spectra, EstimationConfig(bin_mask=spec.harmonics))
    truth = randles_to_rational(SIM_PARAMS)
    assert result.rational.a == pytest.approx(truth.a, rel=1e-9)
    assert result.rational.b == pytest.approx(truth.b, rel=1e-9)


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
    assert _theta(scaled) == pytest.approx(_theta(base), rel=1e-12)


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
    w2 = 1.0 / equation_error_sigma(spectra, prev.rational, cfg) ** 2
    weighted = _build_regressor(spectra, cfg) * np.sqrt(w2)[:, None]

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

    assert quotient(_theta(last)) <= quotient(_theta(prev)) * (1 + 1e-10)
    assert last.iterations_run == 4


def test_mask_bins_outside_window_warn_with_count():
    spectra = spectral_set(1.0, np.ones(10), np.ones(10))
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


def test_window_beyond_available_bins_errors():
    spectra = spectral_set(1.0, np.ones(8), np.ones(8))  # M = 14
    with pytest.raises(ValueError, match=r"^bin_window must lie within the usable bins 1\.\.6$"):
        EstimationConfig(bin_window=(1, 7)).selected_bins(spectra)


@pytest.mark.parametrize("m", [4000, 4001])
def test_usable_bins_end_below_the_nyquist_bin_only_when_m_is_even(m):
    # M = 4000 has its Nyquist bin at 2000; M = 4001 has none, and bin 2000 is usable
    ones = np.ones(m // 2 + 1)
    spectra = SpectralSet(1.0, m, ones, ones, None, None, None)
    top = 2000 if m % 2 else 1999
    assert EstimationConfig().selected_bins(spectra)[-1] == top
    assert EstimationConfig(bin_window=(1, top)).selected_bins(spectra)[-1] == top
    with pytest.raises(ValueError, match=f"^bin_window must lie within the usable bins 1..{top}$"):
        EstimationConfig(bin_window=(1, top + 1)).selected_bins(spectra)
    with warnings.catch_warnings(record=True) as dropped:
        warnings.simplefilter("always")
        kept = EstimationConfig(bin_mask=[5, 2000]).selected_bins(spectra)
    assert kept.tolist() == ([5, 2000] if m % 2 else [5])
    assert [str(w.message) for w in dropped] == ([] if m % 2 else
                                                 ["1 of 2 mask bins outside the window"])
    with pytest.raises(ValueError, match=r"^bin_mask must lie within the spectrum \(max bin "
                                         r"2000\), got 2001$"):
        EstimationConfig(bin_mask=[5, 2001]).selected_bins(spectra)


def test_config_takes_integral_float_bins_as_ints():
    cfg = EstimationConfig(bin_window=(1.0, 10.0), bin_mask=[7.0, 2, 3.0])
    assert cfg.bin_window == (1, 10)
    assert cfg.bin_mask.dtype.kind == "i" and cfg.bin_mask.tolist() == [2, 3, 7]
    spectra = spectral_set(1.0, np.ones(12), np.ones(12))
    assert cfg.selected_bins(spectra).tolist() == [2, 3, 7]


@pytest.mark.parametrize("field, value", [
    ("bin_window", (1.0, 10.5)),
    ("bin_window", (1, np.inf)),
    ("bin_mask", [2.5, 3.9, 7]),
    ("bin_mask", [2, np.nan]),
    ("bin_mask", [1e300]),
])
def test_config_rejects_fractional_bins_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must hold whole bin numbers$"):
        EstimationConfig(**{field: value})


def test_config_counts_take_a_float_beyond_int64():
    # the counts take the whole-number rule of bins without its int64 bound
    assert EstimationConfig(iterations=1e30).iterations == 1e30


def test_config_counts_take_integral_floats_as_ints():
    cfg = EstimationConfig(n_a=3.0, n_b=2.0, n_r=1.0, iterations=10.0)
    counts = (cfg.n_a, cfg.n_b, cfg.n_r, cfg.iterations)
    assert counts == (3, 2, 1, 10) and all(type(n) is int for n in counts)


# ---------------------------------------------------------------- evaluation helpers


def _theta_result(a, b, c):
    """An estimate at given parameters, fitted on no bins."""
    return EstimateResult(rational=HalfOrderRational(a=a, b=b), transient=np.asarray(c),
                          weighted_cost=0.0, iterations_run=0, converged=None, sigma_e=None,
                          bins=np.empty(0, dtype=int))


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
