"""Randles equivalent circuit, Warburg element, and the half-power rational impedance.

The Randles cell (series resistance, double-layer capacitance in parallel with
charge-transfer resistance plus a Warburg diffusion element) has an impedance
that is rational in q = sqrt(s).  This module holds the circuit, the rational
form, the exact coefficient map between them and that map's log-Jacobian, and
`RANDLES_KEYS`, the one spelling of the circuit's keys in files and configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

SQRT2 = float(np.sqrt(2.0))
# principal branch of sqrt(j): exp(j*pi/4)
_ROOT_J = np.exp(1j * np.pi / 4)
# RandlesParams field -> its key in fit.json's params and a simulate config's
# randles block; the four circuit values come first, then the optional OCV
RANDLES_KEYS = {"r_s": "r_s_ohm", "r_ct": "r_ct_ohm", "c_dl": "c_dl_f",
                "sigma_w": "sigma_w_ohm_per_sqrt_s", "ocv": "ocv_v"}


@dataclass(frozen=True)
class RandlesParams:
    """Physical circuit values: ohms, farads, ohm/sqrt(second), volts."""

    r_s: float
    r_ct: float
    c_dl: float
    sigma_w: float
    ocv: float = 0.0

    def __post_init__(self):
        for name in ("r_s", "r_ct", "c_dl", "sigma_w"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    def to_dict(self) -> dict:
        return {key: getattr(self, field) for field, key in RANDLES_KEYS.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "RandlesParams":
        """The circuit of `d`, keyed as `to_dict` writes it; the OCV may be left out."""
        return cls(**{field: float(d[key]) for field, key in RANDLES_KEYS.items()
                      if key in d or field != "ocv"})


@dataclass(frozen=True, eq=False)
class HalfOrderRational:
    """Rational function in q = sqrt(s): numerator b_0..b_Nb over denominator a_1..a_Na.

    The denominator has no constant term (a_0 = 0), so `a[0]` stores a_1, and
    N_a = a.size, N_b = b.size - 1.  The estimator returns a_1 = 1.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("need at least denominator coefficient a_1")
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError("need numerator coefficient b_0")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise ValueError("coefficients must be finite")
        if self.a[0] == 0.0:
            raise ValueError("a_1 must be nonzero")


@dataclass(frozen=True, eq=False)
class ImpedanceCurve:
    """Complex impedance sampled on a frequency grid."""

    freq_hz: np.ndarray
    z_ohm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freq_hz", np.asarray(self.freq_hz, dtype=float))
        object.__setattr__(self, "z_ohm", np.asarray(self.z_ohm, dtype=complex))
        if self.freq_hz.shape != self.z_ohm.shape:
            raise ValueError("freq_hz and z_ohm must have the same shape")


def _sqrt_j_omega(omega) -> np.ndarray:
    """Principal branch of sqrt(j*omega) for omega > 0."""
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0):
        raise ValueError("omega must be strictly positive (Warburg diverges at DC)")
    return np.sqrt(om) * _ROOT_J


def warburg_impedance(sigma_w: float, omega):
    """Warburg diffusion impedance sigma_w*sqrt(2)/sqrt(j*omega); phase is -45 deg."""
    if not sigma_w >= 0:
        raise ValueError("sigma_w must be nonnegative")
    return sigma_w * SQRT2 / _sqrt_j_omega(omega)


def randles_impedance(p: RandlesParams, omega):
    """Randles-cell impedance at angular frequency omega (rad/s), s = j*omega."""
    q = _sqrt_j_omega(omega)
    z_branch = p.r_ct + warburg_impedance(p.sigma_w, omega)
    return p.r_s + 1.0 / (1.0 / z_branch + q * q * p.c_dl)


def resonance_frequency(p: RandlesParams) -> float:
    """Angular frequency of the semicircle apex, 1/(r_ct*c_dl)."""
    return 1.0 / (p.r_ct * p.c_dl)


def randles_coefficients(r_s: float, r_ct: float, c_dl: float, sigma_w: float) -> np.ndarray:
    """The six free coefficients [a_2, a_3, b_0, b_1, b_2, b_3] of the Randles rational.

    Plain arithmetic on the circuit values, with no positivity check, so a
    fitter can evaluate trial points that `RandlesParams` would reject.
    """
    sw2 = sigma_w * SQRT2
    return np.array([
        sw2 * c_dl,
        r_ct * c_dl,
        sw2,
        r_s + r_ct,
        r_s * sw2 * c_dl,
        r_s * r_ct * c_dl,
    ])


def randles_log_jacobian(r_s: float, r_ct: float, c_dl: float, sigma_w: float) -> np.ndarray:
    """d(randles_coefficients)/d(log [r_s, r_ct, c_dl, sigma_w]), six rows by four: a
    monomial's entry is the monomial itself where its variable appears, and 0
    elsewhere; b_1 = r_s + r_ct has the row (r_s, r_ct, 0, 0)."""
    a2, a3, b0, _, b2, b3 = randles_coefficients(r_s, r_ct, c_dl, sigma_w)
    return np.array([[0.0, 0.0, a2, a2], [0.0, a3, a3, 0.0],  # a_2, a_3
                     [0.0, 0.0, 0.0, b0], [r_s, r_ct, 0.0, 0.0],  # b_0, b_1
                     [b2, 0.0, b2, b2], [b3, b3, b3, 0.0]])  # b_2, b_3


def randles_to_rational(p: RandlesParams) -> HalfOrderRational:
    """Exact coefficient map from circuit values to the (3, 3) rational in sqrt(s)."""
    coef = randles_coefficients(p.r_s, p.r_ct, p.c_dl, p.sigma_w)
    return HalfOrderRational(a=np.concatenate(([1.0], coef[:2])), b=coef[2:])


def eval_rational(r: HalfOrderRational, omega):
    """Evaluate at s = j*omega: polynomials in q = sqrt(j*omega), the denominator from q^1."""
    q = _sqrt_j_omega(omega)
    num = np.polyval(r.b[::-1], q)
    den = np.polyval(r.a[::-1], q) * q
    if np.any(np.abs(den) < 1e-30):
        raise NumericsError("denominator vanishes at an evaluation frequency (pole)")
    return num / den
