"""Recover Randles circuit values from estimated half-order rational coefficients.

Six coefficient equations constrain the four unknowns (r_s, r_ct, c_dl,
sigma_w); the overdetermined system is solved by damped Gauss-Newton on
relative residuals over log-parameters, started from a closed-form inversion
of four of the equations; its Jacobian is `model.randles_log_jacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .model import SQRT2, HalfOrderRational, RandlesParams, randles_coefficients, \
    randles_log_jacobian

_RESIDUAL_FLOOR = 1e-12
_MAX_ITER = 50
_STEP_TOL = 1e-12  # stop once the accepted log-step norm is below this


@dataclass(frozen=True, eq=False)
class EcmFitResult:
    params: RandlesParams
    residual_norm: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _randles_targets(r: HalfOrderRational) -> np.ndarray:
    if r.a.size != 3 or r.b.size != 4:
        raise ValueError("Randles recovery needs the (N_a, N_b) = (3, 3) structure")
    # [a_2, a_3, b_0, b_1, b_2, b_3] at a_1 = 1, the order of `randles_coefficients`
    return np.concatenate([r.a[1:], r.b]) / r.a[0]


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


def fit_randles(r: HalfOrderRational) -> EcmFitResult:
    """Damped Gauss-Newton fit of the six coefficient equations in four unknowns.

    Starts from `init_from_coefficients`.  Residuals are relative (each
    divided by the target coefficient magnitude, floored), the unknowns are
    log-parameterized so positivity holds by construction, and steps are
    halved (up to 30 times) until the cost does not increase.  Stops when the
    accepted step norm drops below 1e-12 or after 50 iterations; the result
    holds the circuit values, the final residual norm, the number of accepted
    steps and whether the step-norm stop was reached.
    """
    targets = _randles_targets(r)
    denom = np.maximum(np.abs(targets), _RESIDUAL_FLOOR)
    start = init_from_coefficients(r)
    x = np.array([start.r_s, start.r_ct, start.c_dl, start.sigma_w])

    def residual(vals: np.ndarray) -> np.ndarray:
        return (randles_coefficients(*vals) - targets) / denom

    res = residual(x)
    cost = float(res @ res)
    converged = False

    for iterations in range(1, _MAX_ITER + 1):
        jac = randles_log_jacobian(*x) / denom[:, None]
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        for alpha in 0.5 ** np.arange(31):
            # a trial that overflows costs inf or nan, and is halved like any other
            with np.errstate(over="ignore", invalid="ignore"):
                x_new = x * np.exp(alpha * step)
                res_new = residual(x_new)
                cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                break
        else:
            iterations -= 1
            break
        x, res, cost = x_new, res_new, cost_new
        if np.linalg.norm(alpha * step) < _STEP_TOL:
            converged = True
            break

    params = RandlesParams(r_s=x[0], r_ct=x[1], c_dl=x[2], sigma_w=x[3])
    return EcmFitResult(params=params, residual_norm=float(np.sqrt(cost)),
                        iterations=iterations, converged=converged)
