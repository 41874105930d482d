"""Recover Randles circuit values from estimated half-order rational coefficients.

Six coefficient equations constrain the four unknowns (r_s, r_ct, c_dl,
sigma_w); the overdetermined system is solved by damped Gauss-Newton on
relative residuals over log-parameters, started from a closed-form inversion
of four of the equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .model import SQRT2, HalfOrderRational, RandlesParams, randles_coefficients

_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class EcmFitResult:
    params: RandlesParams
    residual_norm: float
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _randles_targets(r: HalfOrderRational) -> np.ndarray:
    if r.n_a != 3 or r.n_b != 3:
        raise ValueError("Randles recovery needs the (N_a, N_b) = (3, 3) structure")
    r = r.normalized()
    # targets: [a_2, a_3, b_0, b_1, b_2, b_3], the order of `randles_coefficients`
    return np.array([r.a[1], r.a[2], r.b[0], r.b[1], r.b[2], r.b[3]])


def _jacobian_log(x: np.ndarray) -> np.ndarray:
    """d(coefficients)/d(log params); params ordered [r_s, r_ct, c_dl, sigma_w]."""
    r_s, r_ct, c_dl, sig = x
    m = randles_coefficients(*x)
    jac = np.zeros((6, 4))
    jac[0, [2, 3]] = m[0]
    jac[1, [1, 2]] = m[1]
    jac[2, 3] = m[2]
    jac[3, 0] = r_s
    jac[3, 1] = r_ct
    jac[4, [0, 2, 3]] = m[4]
    jac[5, [0, 1, 2]] = m[5]
    return jac


def init_from_coefficients(r: HalfOrderRational) -> RandlesParams:
    """Closed-form start from four of the six equations; exact on consistent input."""
    a2, a3, b0, b1, _, _ = _randles_targets(r)
    if min(b0, a2, a3, b1) <= 0:
        raise NumericsError("coefficients inconsistent with Randles structure")
    sigma_w = b0 / SQRT2
    c_dl = a2 / b0
    r_ct = a3 * b0 / a2
    r_s = b1 - r_ct
    if r_s <= 0 or c_dl <= 0 or r_ct <= 0 or sigma_w <= 0:
        raise NumericsError("coefficients inconsistent with Randles structure")
    return RandlesParams(r_s=r_s, r_ct=r_ct, c_dl=c_dl, sigma_w=sigma_w)


def fit_randles(
    r: HalfOrderRational,
    max_iter: int = 50,
    tol: float = 1e-12,
    start: RandlesParams | None = None,
) -> EcmFitResult:
    """Damped Gauss-Newton fit of the six coefficient equations in four unknowns.

    Residuals are relative (each divided by the target coefficient magnitude,
    floored), the unknowns are log-parameterized so positivity holds by
    construction, and steps are halved (up to 30 times) until the cost does
    not increase.  Stops when the accepted step norm drops below `tol`.
    """
    targets = _randles_targets(r)
    denom = np.maximum(np.abs(targets), _RESIDUAL_FLOOR)
    if start is None:
        start = init_from_coefficients(r)

    x = np.array([start.r_s, start.r_ct, start.c_dl, start.sigma_w])

    def residual(vals: np.ndarray) -> np.ndarray:
        return (randles_coefficients(*vals) - targets) / denom

    res = residual(x)
    cost = float(res @ res)
    history = [cost]
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = _jacobian_log(x) / denom[:, None]
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        alpha = 1.0
        accepted = False
        for _ in range(31):
            x_new = x * np.exp(alpha * step)
            res_new = residual(x_new)
            cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            iterations -= 1
            break
        x, res, cost = x_new, res_new, cost_new
        history.append(cost)
        if np.linalg.norm(alpha * step) < tol:
            converged = True
            break
    else:
        iterations = max_iter

    if max_iter == 0:
        iterations = 0

    params = RandlesParams(r_s=x[0], r_ct=x[1], c_dl=x[2], sigma_w=x[3])
    return EcmFitResult(
        params=params,
        residual_norm=float(np.sqrt(cost)),
        iterations=iterations,
        converged=converged,
        cost_history=history,
    )
