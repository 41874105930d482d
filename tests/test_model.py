from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracimp import (
    HalfOrderRational,
    NumericsError,
    RandlesParams,
    eval_rational,
    randles_impedance,
    randles_to_rational,
    resonance_frequency,
    warburg_impedance,
)
from fracimp.cli import RANDLES_SCHEMA
from fracimp.model import _sqrt_j_omega, randles_coefficients, randles_log_jacobian
from fracimp.schema import check

# frozen 50-digit `decimal` evaluation of the circuit formula at omega = 2*pi
# for (0.551, 0.119, 1.464, 0.0346)
Z_AT_2PI = 0.59907572506000450982 - 0.064360850753062685844j

# frozen coefficient map for the same parameter set
COEFF_A = [1.0, 0.07163613947387171, 0.174216]
COEFF_B = [0.04893178925810909, 0.67, 0.03947151285010331, 0.095993016]


def test_high_frequency_limit_is_series_resistance(sim_params):
    assert abs(randles_impedance(sim_params, 1e6) - 0.551) < 1e-3


def test_impedance_matches_high_precision_oracle(sim_params):
    z = randles_impedance(sim_params, 2 * np.pi)
    assert abs(z - Z_AT_2PI) < 1e-12 * abs(Z_AT_2PI)


def test_impedance_oracle_recomputed_with_decimal():
    # at omega = 2*pi, sqrt(j*omega) = sqrt(pi)*(1 + j), so the Warburg term
    # sigma*sqrt(2)/sqrt(j*omega) is w*(1 - j) with w = sigma/sqrt(2*pi)
    with localcontext() as ctx:
        ctx.prec = 50
        pi = Decimal("3.1415926535897932384626433832795028841971693993751")
        w = Decimal("0.0346") / (2 * pi).sqrt()
        re, im = Decimal("0.119") + w, -w  # r_ct plus the Warburg term
        mag2 = re * re + im * im
        y_re, y_im = re / mag2, -im / mag2 + 2 * pi * Decimal("1.464")  # plus j*omega*c_dl
        mag2 = y_re * y_re + y_im * y_im
        z = complex(float(Decimal("0.551") + y_re / mag2), float(-y_im / mag2))
    assert z == Z_AT_2PI


def test_vanishing_warburg_reduces_to_rc():
    p = RandlesParams(r_s=0.5, r_ct=0.2, c_dl=1.5, sigma_w=1e-300)
    omega = np.logspace(-2, 3, 40)
    expected = 0.5 + 0.2 / (1 + 1j * omega * 0.2 * 1.5)
    assert randles_impedance(p, omega) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------- Warburg


def test_warburg_magnitude_and_phase():
    z = warburg_impedance(0.0346, 1.0)
    assert abs(z) == pytest.approx(0.04893178925810909, rel=1e-12)
    assert np.angle(z) == pytest.approx(-np.pi / 4, abs=1e-15)


def test_warburg_real_equals_negative_imag():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = warburg_impedance(float(rng.uniform(0.01, 10)), float(rng.uniform(1e-3, 1e3)))
        assert z.real == pytest.approx(-z.imag, rel=1e-12)


def test_warburg_inverse_sqrt_omega_law():
    z1 = warburg_impedance(0.2, 3.0)
    z4 = warburg_impedance(0.2, 12.0)
    assert abs(z4) == pytest.approx(abs(z1) / 2, rel=1e-12)


# ---------------------------------------------------------------- resonance


def test_resonance_frequency_values(sim_params):
    assert resonance_frequency(sim_params) == pytest.approx(5.740000918400147, rel=1e-12)
    assert resonance_frequency(RandlesParams(1.0, 1.0, 1.0, 1.0)) == 1.0
    doubled = RandlesParams(r_s=sim_params.r_s, r_ct=sim_params.r_ct,
                            c_dl=2 * sim_params.c_dl, sigma_w=sim_params.sigma_w)
    assert resonance_frequency(doubled) == pytest.approx(
        resonance_frequency(sim_params) / 2, rel=1e-12)


# ---------------------------------------------------------------- coefficient map


def test_coefficient_map_frozen_values(sim_params):
    rational = randles_to_rational(sim_params)
    assert rational.a == pytest.approx(COEFF_A, rel=1e-12)
    assert rational.b == pytest.approx(COEFF_B, rel=1e-12)


def test_coefficient_map_vanishing_series_resistance():
    p = RandlesParams(r_s=1e-300, r_ct=0.1, c_dl=1.0, sigma_w=0.05)
    rational = randles_to_rational(p)
    assert abs(rational.b[2]) < 1e-290
    assert abs(rational.b[3]) < 1e-290


def test_log_jacobian_is_the_central_difference_of_the_coefficient_map(sim_params):
    # in log x the map is smooth, so a step of 1e-5 leaves an error below 1e-10
    # of each coefficient; a coefficient that does not read x moves by exactly 0
    rng = np.random.default_rng(43)
    protocol = np.array([sim_params.r_s, sim_params.r_ct, sim_params.c_dl, sim_params.sigma_w])
    points = [protocol, *(protocol * 10 ** rng.uniform(-2, 2, size=4) for _ in range(100))]
    h = 1e-5
    for x in points:
        jac = randles_log_jacobian(*x)
        central = np.column_stack([
            (randles_coefficients(*(x * np.exp(h * e))) -
             randles_coefficients(*(x * np.exp(-h * e)))) / (2 * h) for e in np.eye(4)])
        scale = np.abs(randles_coefficients(*x))[:, None]
        assert np.all(np.abs(jac - central) <= 1e-8 * scale)
        assert np.array_equal(jac == 0, central == 0)


def test_a_circuit_round_trips_through_its_dict_as_a_valid_randles_block(sim_params):
    # fit.json's params is this dict, and a simulate config's randles block takes it
    rng = np.random.default_rng(44)
    protocol = np.array([sim_params.r_s, sim_params.r_ct, sim_params.c_dl, sim_params.sigma_w])
    for _ in range(100):
        values = protocol * 10 ** rng.uniform(-2, 2, size=4)
        p = RandlesParams(*values.tolist(), ocv=float(rng.uniform(-5.0, 5.0)))
        d = p.to_dict()
        assert RandlesParams.from_dict(d) == p
        assert check(d, RANDLES_SCHEMA, "randles") == d
    # a randles block may leave the OCV out; the circuit's default is 0 V
    del d["ocv_v"]
    assert RandlesParams.from_dict(d).ocv == 0.0
    assert check(d, RANDLES_SCHEMA, "randles") == d


def test_rational_evaluation_equals_circuit_formula(sim_params):
    rational = randles_to_rational(sim_params)
    omega = np.logspace(-4, 4, 50)
    direct = randles_impedance(sim_params, omega)
    via_coeffs = eval_rational(rational, omega)
    assert np.abs(via_coeffs - direct).max() < 1e-12 * np.abs(direct).max()


# ---------------------------------------------------------------- rational evaluation


def test_eval_rational_identity():
    r = HalfOrderRational(a=[1.0], b=[0.0, 1.0])  # q / q
    assert eval_rational(r, np.array([0.1, 2.0, 30.0])) == pytest.approx([1, 1, 1], rel=1e-14)


def test_eval_rational_pure_warburg_shape():
    c = 0.07
    r = HalfOrderRational(a=[1.0], b=[c, 0.0])
    omega = np.array([0.5, 5.0])
    expected = c / (np.sqrt(omega) * np.exp(1j * np.pi / 4))
    assert eval_rational(r, omega) == pytest.approx(expected, rel=1e-14)


def test_eval_rational_pole_error():
    # denominator magnitude underflows below the 1e-30 pole guard
    r = HalfOrderRational(a=[1e-300], b=[1.0, 0.0])
    with pytest.raises(NumericsError, match="pole"):
        eval_rational(r, 1e-30)


def test_eval_rational_is_the_horner_loop_bitwise():
    rng = np.random.default_rng(20)
    omega = 10 ** rng.uniform(-4, 5, size=50)
    q = _sqrt_j_omega(omega)
    for _ in range(200):
        a, b = rng.normal(size=rng.integers(1, 6)), rng.normal(size=rng.integers(1, 6))
        num, den = np.zeros_like(q), np.zeros_like(q)
        for coef in b[::-1]:
            num = num * q + coef
        for coef in a[::-1]:
            den = den * q + coef
        assert np.array_equal(eval_rational(HalfOrderRational(a=a, b=b), omega), num / (den * q))


def test_common_scale_of_a_and_b_leaves_the_rational_unchanged():
    r = HalfOrderRational(a=[2.0, 4.0], b=[1.0, 3.0])
    n = HalfOrderRational(a=[1.0, 2.0], b=[0.5, 1.5])  # a and b of r over a_1 = 2
    omega = np.array([0.3, 7.0])
    assert eval_rational(n, omega) == pytest.approx(eval_rational(r, omega), rel=1e-14)


# ---------------------------------------------------------------- plane geometry


def test_nyquist_plane_geometry(sim_params):
    omega = np.logspace(-4, 6, 300)
    z = randles_impedance(sim_params, omega)
    assert np.all(z.imag < 0)
    # diffusion asymptote: phase of Z - R_S tends to -45 degrees at low omega
    phase_deg = np.degrees(np.angle(randles_impedance(sim_params, 1e-4) - sim_params.r_s))
    assert abs(phase_deg + 45.0) < 1.0
    assert abs(randles_impedance(sim_params, 1e6) - sim_params.r_s) < 1e-3
