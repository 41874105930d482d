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
from fracimp.model import _sqrt_j_omega

# frozen 50-digit mpmath evaluation of the circuit formula at omega = 2*pi
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


def test_impedance_oracle_recomputed_with_mpmath(sim_params):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    s = mp.mpc(0, 1) * 2 * mp.pi
    q = mp.sqrt(s)
    z = mp.mpf("0.551") + 1 / (1 / (mp.mpf("0.119") + mp.mpf("0.0346") * mp.sqrt(2) / q)
                               + s * mp.mpf("1.464"))
    assert complex(z) == pytest.approx(Z_AT_2PI, rel=1e-18)


def test_vanishing_warburg_reduces_to_rc():
    p = RandlesParams(r_s=0.5, r_ct=0.2, c_dl=1.5, sigma_w=1e-300)
    omega = np.logspace(-2, 3, 40)
    expected = 0.5 + 0.2 / (1 + 1j * omega * 0.2 * 1.5)
    assert randles_impedance(p, omega) == pytest.approx(expected, rel=1e-9)


def test_impedance_rejects_nonpositive_omega(sim_params):
    with pytest.raises(ValueError):
        randles_impedance(sim_params, 0.0)
    with pytest.raises(ValueError):
        warburg_impedance(0.03, -1.0)


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


def test_params_require_positive_values():
    with pytest.raises(ValueError):
        RandlesParams(r_s=0.0, r_ct=0.1, c_dl=1.0, sigma_w=0.1)


# ---------------------------------------------------------------- plane geometry


def test_nyquist_plane_geometry(sim_params):
    omega = np.logspace(-4, 6, 300)
    z = randles_impedance(sim_params, omega)
    assert np.all(z.imag < 0)
    # diffusion asymptote: phase of Z - R_S tends to -45 degrees at low omega
    phase_deg = np.degrees(np.angle(randles_impedance(sim_params, 1e-4) - sim_params.r_s))
    assert abs(phase_deg + 45.0) < 1.0
    assert abs(randles_impedance(sim_params, 1e6) - sim_params.r_s) < 1e-3
