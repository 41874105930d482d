import numpy as np
import pytest

from fracimp import (
    HalfOrderRational,
    NumericsError,
    RandlesParams,
    fit_randles,
    init_from_coefficients,
    randles_to_rational,
)
from fracimp import ecmfit
from fracimp.model import randles_coefficients

from conftest import SIM_PARAMS


def _params_close(p, q, rel):
    assert p.r_s == pytest.approx(q.r_s, rel=rel)
    assert p.r_ct == pytest.approx(q.r_ct, rel=rel)
    assert p.c_dl == pytest.approx(q.c_dl, rel=rel)
    assert p.sigma_w == pytest.approx(q.sigma_w, rel=rel)


def test_initializer_inverts_consistent_coefficients():
    recovered = init_from_coefficients(randles_to_rational(SIM_PARAMS))
    _params_close(recovered, SIM_PARAMS, rel=1e-14)


def test_initializer_linear_sensitivity_to_a2():
    rational = randles_to_rational(SIM_PARAMS)
    bumped = HalfOrderRational(a=rational.a * [1.0, 1.01, 1.0], b=rational.b)
    p = init_from_coefficients(bumped)
    assert p.c_dl == pytest.approx(SIM_PARAMS.c_dl * 1.01, rel=1e-12)
    assert p.r_ct == pytest.approx(SIM_PARAMS.r_ct / 1.01, rel=1e-12)
    assert p.sigma_w == pytest.approx(SIM_PARAMS.sigma_w, rel=1e-12)
    assert p.r_s == pytest.approx(SIM_PARAMS.r_s + SIM_PARAMS.r_ct * (1 - 1 / 1.01), rel=1e-9)


def test_initializer_rejects_negative_series_resistance():
    rational = randles_to_rational(SIM_PARAMS)
    # a_3 inflated so the implied r_ct exceeds b_1
    broken = HalfOrderRational(a=rational.a * [1.0, 1.0, 10.0], b=rational.b)
    with pytest.raises(NumericsError, match="inconsistent"):
        init_from_coefficients(broken)


def test_fit_consistent_coefficients_is_a_round_trip():
    result = fit_randles(randles_to_rational(SIM_PARAMS))
    assert result.residual_norm < 1e-10
    assert result.converged
    _params_close(result.params, SIM_PARAMS, rel=1e-8)


def test_fit_perturbed_coefficients_validated_against_grid_oracle():
    rng = np.random.default_rng(40)
    rational = randles_to_rational(SIM_PARAMS)
    noisy = HalfOrderRational(
        a=rational.a * (1 + 1e-3 * np.array([0.0, *rng.normal(size=2)])),
        b=rational.b * (1 + 1e-3 * rng.normal(size=4)),
    )
    result = fit_randles(noisy)
    _params_close(result.params, SIM_PARAMS, rel=0.01)

    # brute-force oracle: best point of a 13^4 grid over a +/-5% box
    targets = np.array([noisy.a[1], noisy.a[2], *noisy.b])
    denom = np.abs(targets)
    axis = SIM_PARAMS
    grids = [np.linspace(0.95 * v, 1.05 * v, 13)
             for v in (axis.r_s, axis.r_ct, axis.c_dl, axis.sigma_w)]
    rs, rct, cdl, sw = np.meshgrid(*grids, indexing="ij")
    sw2 = sw * np.sqrt(2)
    coeffs = np.stack([sw2 * cdl, rct * cdl, sw2, rs + rct, rs * sw2 * cdl, rs * rct * cdl])
    cost = np.sum(((coeffs - targets.reshape(-1, 1, 1, 1, 1))
                   / denom.reshape(-1, 1, 1, 1, 1)) ** 2, axis=0)
    assert result.residual_norm**2 <= cost.min() * (1 + 1e-9)


def test_round_trip_over_random_parameter_draws():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = RandlesParams(
            r_s=10 ** rng.uniform(-2, 2),
            r_ct=10 ** rng.uniform(-2, 2),
            c_dl=10 ** rng.uniform(-2, 2),
            sigma_w=10 ** rng.uniform(-2, 2),
        )
        result = fit_randles(randles_to_rational(p))
        _params_close(result.params, p, rel=1e-8)


def test_scale_equivariance_of_numerator():
    gamma = 4.2
    rational = randles_to_rational(SIM_PARAMS)
    scaled = HalfOrderRational(a=rational.a, b=gamma * rational.b)
    result = fit_randles(scaled)
    assert result.params.r_s == pytest.approx(gamma * SIM_PARAMS.r_s, rel=1e-8)
    assert result.params.r_ct == pytest.approx(gamma * SIM_PARAMS.r_ct, rel=1e-8)
    assert result.params.sigma_w == pytest.approx(gamma * SIM_PARAMS.sigma_w, rel=1e-8)
    assert result.params.c_dl == pytest.approx(SIM_PARAMS.c_dl / gamma, rel=1e-8)


def test_accepted_steps_never_increase_cost(monkeypatch):
    rng = np.random.default_rng(42)
    rational = randles_to_rational(SIM_PARAMS)
    noisy = HalfOrderRational(a=rational.a * (1 + 0.02 * np.array([0.0, *rng.normal(size=2)])),
                              b=rational.b * (1 + 0.02 * rng.normal(size=4)))
    start = RandlesParams(r_s=10 * SIM_PARAMS.r_s, r_ct=0.1 * SIM_PARAMS.r_ct,
                          c_dl=10 * SIM_PARAMS.c_dl, sigma_w=0.1 * SIM_PARAMS.sigma_w)
    # a far start in place of the closed-form one, from which a full
    # Gauss-Newton step raises the cost, so the step halving runs; and every
    # iterate the Jacobian is taken at: the start, then each accepted step
    monkeypatch.setattr(ecmfit, "init_from_coefficients", lambda r: start)
    iterates, jacobian_log = [], ecmfit.randles_log_jacobian

    def recording_jacobian(*x):
        iterates.append(np.array(x))
        return jacobian_log(*x)

    monkeypatch.setattr(ecmfit, "randles_log_jacobian", recording_jacobian)
    result = fit_randles(noisy)

    targets = np.array([noisy.a[1], noisy.a[2], *noisy.b])
    costs = [np.sum(((randles_coefficients(*x) - targets) / np.abs(targets)) ** 2)
             for x in iterates]
    history = np.array([*costs, result.residual_norm**2])
    assert len(iterates) >= result.iterations > 1
    assert iterates[0].tolist() == [start.r_s, start.r_ct, start.c_dl, start.sigma_w]
    assert np.all(np.diff(history) <= 1e-15)
    assert result.params.r_s > 0 and result.params.c_dl > 0


def test_exhausted_step_halving_stops_unconverged_at_the_start(monkeypatch):
    rational = randles_to_rational(SIM_PARAMS)
    noisy = HalfOrderRational(a=rational.a * [1.0, 1.01, 0.99], b=rational.b * 1.01)
    start = init_from_coefficients(noisy)
    x0 = np.array([start.r_s, start.r_ct, start.c_dl, start.sigma_w])
    coefficients = ecmfit.randles_coefficients

    def finite_only_at_the_start(*x):  # every trial step then costs nan
        return coefficients(*x) if np.array_equal(x, x0) else np.full(6, np.nan)

    monkeypatch.setattr(ecmfit, "randles_coefficients", finite_only_at_the_start)
    result = fit_randles(noisy)
    assert result.converged is False
    assert result.iterations == 0
    assert [result.params.r_s, result.params.r_ct, result.params.c_dl,
            result.params.sigma_w] == x0.tolist()
    assert np.isfinite(result.residual_norm) and result.residual_norm > 0


def test_fit_reads_the_rational_at_a1_equal_1():
    rational = randles_to_rational(SIM_PARAMS)
    scaled = HalfOrderRational(a=2.5 * rational.a, b=2.5 * rational.b)
    _params_close(fit_randles(scaled).params, SIM_PARAMS, rel=1e-8)


def test_fit_requires_randles_structure():
    with pytest.raises(ValueError, match="3, 3"):
        fit_randles(HalfOrderRational(a=[1.0], b=[0.1, 0.2]))
