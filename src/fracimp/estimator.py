"""Frequency-domain equation-error regression and (weighted) total least squares.

The equation error at segment bin k,

    E(k) = sum_{n=1..Na} a_n (j*w_k)^{n/2} V(k)
         - sum_{n=0..Nb} b_n (j*w_k)^{n/2} I(k)
         + sum_{r=0..Nr} c_r (j*w_k)^{r/2},

is linear in theta = [a_1..a_Na, b_0..b_Nb, c_0..c_Nr].  Every estimate is
one generalized total-least-squares problem, min ||K theta|| subject to
theta_n^T G theta_n = 1.  Each solve first reduces the real/imaginary-stacked
regressor K (two rows per bin) to its square triangular QR factor R, which has
the same Gram K^T K and so the same solution, and then solves on R via the SVD:
plain TLS takes G as the squared column norms, and the weighted passes scale
rows by the inverse equation-error standard deviation and take G as the noise
Gram of the columns, which yields the consistent estimate; columns without
noise (the transient, a noise-free channel) are solved exactly outside the
constraint.  All half powers use the principal branch of sqrt(j*w).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .model import HalfOrderRational, ImpedanceCurve, _sqrt_j_omega, eval_rational
from .spectra import SpectralSet

# relative diagonal load that keeps a near-singular noise Gram factorizable
_GRAM_RIDGE = 1e-10


@dataclass(frozen=True, eq=False)
class EstimationConfig:
    """Model orders, bin selection, and iteration policy for the estimator.

    ``bin_window`` is an inclusive (k_min, k_max) interval of segment bins;
    None means all bins except DC and Nyquist.  ``bin_mask`` restricts the
    window to an explicit bin set (use the excited harmonics for multisine
    data; leave None for noise excitation).  Mask bins outside the window are
    dropped with a warning.
    """

    n_a: int = 3
    n_b: int = 3
    n_r: int = 1
    bin_window: tuple[int, int] | None = None
    bin_mask: np.ndarray | None = None
    iterations: int = 10

    def __post_init__(self):
        if self.n_a < 1:
            raise ValueError("n_a must be >= 1")
        if self.n_b < 0:
            raise ValueError("n_b must be >= 0")
        if self.n_r < 0:
            raise ValueError("n_r must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.bin_window is not None:
            k_min, k_max = self.bin_window
            if not (1 <= k_min <= k_max):
                raise ValueError("bin_window must satisfy 1 <= k_min <= k_max")
        if self.bin_mask is not None:
            object.__setattr__(self, "bin_mask", np.unique(np.asarray(self.bin_mask, dtype=int)))

    def selected_bins(self, spectra: SpectralSet) -> np.ndarray:
        """Bins entering the regression: window intersected with the mask."""
        top = spectra.n_bins - 2  # exclude DC and the segment Nyquist bin
        if self.bin_window is None:
            k_min, k_max = 1, top
        else:
            k_min, k_max = self.bin_window
            if k_max > top:
                raise ValueError(f"bin_window exceeds available bins (max {top})")
        bins = np.arange(k_min, k_max + 1)
        if self.bin_mask is None:
            return bins
        bins = bins[np.isin(bins, self.bin_mask)]
        if bins.size == 0:
            raise ValueError("bin selection is empty")
        dropped = self.bin_mask.size - bins.size
        if dropped:
            warnings.warn(f"{dropped} of {self.bin_mask.size} mask bins outside the window",
                          stacklevel=3)
        return bins


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Estimated half-order rational plus transient coefficients and diagnostics.

    ``weighted_cost`` is sum_k |E(k)|^2 / sigma_E(k)^2 at the returned
    (a_1 = 1 normalized) parameters under the final weights; ``cost_history``
    records the same quantity after every solve so weight stabilization can
    be checked.  ``sigma_e`` is None when no weighted pass ran.
    """

    rational: HalfOrderRational
    transient: np.ndarray
    weighted_cost: float
    iterations_run: int
    sigma_e: np.ndarray | None
    bins: np.ndarray | None = None
    cost_history: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "transient", np.asarray(self.transient, dtype=float))

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.rational.a, self.rational.b, self.transient])

    def to_dict(self) -> dict:
        return {
            "a": self.rational.a.tolist(),
            "b": self.rational.b.tolist(),
            "c": self.transient.tolist(),
            "weighted_cost": self.weighted_cost,
            "iterations_run": self.iterations_run,
            "sigma_e": None if self.sigma_e is None else self.sigma_e.tolist(),
        }


def _half_powers(omega: np.ndarray, orders) -> np.ndarray:
    """(j*omega)^{n/2} for each n in orders, shape (len(orders), len(omega))."""
    q = _sqrt_j_omega(omega)
    return np.stack([q**n for n in orders])


def _basis(spectra: SpectralSet, bins: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    """Every half power the model needs at the selected bins; row n is (jw)^{n/2}."""
    omega = 2.0 * np.pi * spectra.freq_hz[bins]
    return _half_powers(omega, range(max(cfg.n_a, cfg.n_b, cfg.n_r) + 1))


def _regressor(spectra: SpectralSet, bins: np.ndarray, basis: np.ndarray,
               cfg: EstimationConfig) -> np.ndarray:
    """Complex regressor, one row per selected bin.

    Columns: [(jw)^{n/2} V(k)]_{n=1..Na} | [-(jw)^{n/2} I(k)]_{n=0..Nb} |
    [(jw)^{r/2}]_{r=0..Nr}.
    """
    cols = np.concatenate([
        basis[1: cfg.n_a + 1] * spectra.mean_voltage[bins],
        -basis[: cfg.n_b + 1] * spectra.mean_current[bins],
        basis[: cfg.n_r + 1],
    ])
    return cols.T.copy()


def _stacked_real(regressor: np.ndarray, row_weights: np.ndarray | None) -> np.ndarray:
    k = regressor if row_weights is None else regressor * row_weights[:, None]
    return np.vstack([k.real, k.imag])


def _normalize_a1(theta: np.ndarray) -> np.ndarray:
    if abs(theta[0]) < 1e-10 * np.linalg.norm(theta):
        raise NumericsError("estimated a_1 is numerically zero; cannot normalize")
    return theta / theta[0]


def _column_gram(stacked: np.ndarray) -> np.ndarray:
    """Constraint matrix of plain TLS: squared column norms (a zero column counts as 1)."""
    scale = np.linalg.norm(stacked, axis=0)
    scale[scale == 0] = 1.0
    return np.diag(scale**2)


def _solve(stacked: np.ndarray, gram: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """min ||K theta|| subject to theta^T (G + ridge diag G) theta = 1, a_1-normalized.

    K is first reduced to its triangular QR factor R (columns x columns):
    every later step sees K only through K^T K = R^T R, so it gives the same
    solution on R at a cost independent of the number of bins.  Columns with
    a zero diagonal in G carry no noise: they are projected out first and
    back-substituted afterwards, an exact least-squares fit (Golub, Hoffman &
    Stewart 1987).  The projected noisy columns are scaled by sqrt(diag G)
    and whitened by the Cholesky factor of the ridged correlation before the
    SVD.
    Plain TLS is the case G = _column_gram(K), where every column is noisy
    and a ridge would only rescale G; the weighted passes give the noise Gram
    and _GRAM_RIDGE.
    """
    if stacked.shape[0] < stacked.shape[1]:
        raise ValueError(
            f"{stacked.shape[0]} stacked rows < {stacked.shape[1]} columns; "
            "select more bins or reduce model orders"
        )
    r = np.linalg.qr(stacked, mode="r")
    noisy = np.diag(gram) > 0
    k_n, k_f = r[:, noisy], r[:, ~noisy]  # k_f and q_f are empty for plain TLS
    q_f, _ = np.linalg.qr(k_f)
    k_proj = k_n - q_f @ (q_f.T @ k_n)

    diag = np.sqrt(np.diag(gram)[noisy])
    chol = np.linalg.cholesky(gram[np.ix_(noisy, noisy)] / np.outer(diag, diag)
                              + ridge * np.eye(diag.size))
    whitened = np.linalg.solve(chol, (k_proj / diag).T).T

    _, s, vt = np.linalg.svd(whitened, full_matrices=False)
    if s.size > 1 and s[-2] - s[-1] <= 1e-8 * max(s[0], np.finfo(float).tiny):
        warnings.warn(
            "two smallest singular values nearly coincide; the solution "
            "direction is ambiguous",
            stacklevel=3,
        )
    theta = np.empty(gram.shape[0])
    theta[noisy] = np.linalg.solve(chol.T, vt[-1]) / diag
    theta[~noisy] = -np.linalg.lstsq(k_f, k_n @ theta[noisy], rcond=None)[0]
    return _normalize_a1(theta)


def _theta_cost(regressor: np.ndarray, theta: np.ndarray,
                row_weights: np.ndarray | None) -> float:
    resid = regressor @ theta
    if row_weights is not None:
        resid = resid * row_weights
    return float(np.sum(np.abs(resid) ** 2))


def _split_theta(theta: np.ndarray, cfg: EstimationConfig):
    a = theta[: cfg.n_a]
    b = theta[cfg.n_a: cfg.n_a + cfg.n_b + 1]
    c = theta[cfg.n_a + cfg.n_b + 1:]
    return a, b, c


def _floor_sigma(sigma: np.ndarray) -> np.ndarray:
    med = float(np.median(sigma))
    if med > 0.0:
        return np.maximum(sigma, 1e-8 * med)
    return np.ones_like(sigma)


def _sigma_e(theta: np.ndarray, basis: np.ndarray, spectra: SpectralSet,
             bins: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    a, b, _ = _split_theta(theta, cfg)
    pol_a = a @ basis[1: cfg.n_a + 1]
    pol_b = b @ basis[: cfg.n_b + 1]
    var = (
        np.abs(pol_a) ** 2 * spectra.var_voltage[bins]
        + np.abs(pol_b) ** 2 * spectra.var_current[bins]
        - 2.0 * np.real(pol_a * spectra.covar_vi[bins] * np.conj(pol_b))
    )
    return _floor_sigma(np.sqrt(np.maximum(var, 0.0)))


def equation_error_sigma(spectra: SpectralSet, theta: EstimateResult,
                         cfg: EstimationConfig) -> np.ndarray:
    """Per-bin standard deviation of the equation error at the given parameters.

    With A(k) and B(k) the denominator/numerator polynomials evaluated at
    sqrt(j*w_k), sigma_E^2 = |A|^2 var_V + |B|^2 var_I - 2 Re{A covar_VI B*};
    round-off negatives are clamped to zero and the result floored so weights
    stay finite on noiseless bins.
    """
    if not spectra.has_covariances:
        raise ValueError(
            "noise covariances unavailable (single period); only the unweighted "
            "estimate (iterations=0) applies"
        )
    bins = cfg.selected_bins(spectra)
    return _sigma_e(theta.theta, _basis(spectra, bins, cfg), spectra, bins, cfg)


def _noise_gram(basis: np.ndarray, spectra: SpectralSet, bins: np.ndarray,
                weights: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    """Column-space covariance of the row-weighted regressor noise (zero c block)."""
    qv = basis[1: cfg.n_a + 1]
    qi = basis[: cfg.n_b + 1]
    w2 = weights**2
    sv = spectra.var_voltage[bins] * w2
    si = spectra.var_current[bins] * w2
    svi = spectra.covar_vi[bins] * w2
    n_ab = cfg.n_a + cfg.n_b + 1
    gram = np.zeros((n_ab + cfg.n_r + 1,) * 2)
    gram[: cfg.n_a, : cfg.n_a] = ((qv * sv) @ qv.conj().T).real
    gram[cfg.n_a: n_ab, cfg.n_a: n_ab] = ((qi * si) @ qi.conj().T).real
    cross = -((qv * svi) @ qi.conj().T).real
    gram[: cfg.n_a, cfg.n_a: n_ab] = cross
    gram[cfg.n_a: n_ab, : cfg.n_a] = cross.T
    return gram


def wtls_estimate(spectra: SpectralSet, cfg: EstimationConfig) -> EstimateResult:
    """Iteratively reweighted total least squares over the selected bins.

    Iteration 0 is the unweighted TLS; each of the cfg.iterations weighted
    passes recomputes sigma_E from the previous parameters, scales rows by
    1/sigma_E, and re-solves under the weighted noise Gram, so a channel
    without measured noise enters exactly.  The unweighted estimate is
    returned as it is (iterations_run 0, sigma_e None) when no selected bin
    has measured noise (unit weights would repeat the same solve), and with
    a warning when only one period is available.
    """
    bins = cfg.selected_bins(spectra)
    basis = _basis(spectra, bins, cfg)
    regressor = _regressor(spectra, bins, basis, cfg)

    stacked = _stacked_real(regressor, None)
    theta = _solve(stacked, _column_gram(stacked))
    history = [_theta_cost(regressor, theta, None)]
    sigma = None

    if cfg.iterations > 0 and not spectra.has_covariances:
        warnings.warn(
            "noise covariances unavailable (single period); falling back to "
            "unweighted total least squares",
            stacklevel=2,
        )
    elif cfg.iterations > 0 and (spectra.var_current[bins].any()
                                 or spectra.var_voltage[bins].any()):
        for _ in range(cfg.iterations):
            sigma = _sigma_e(theta, basis, spectra, bins, cfg)
            weights = 1.0 / sigma
            theta = _solve(_stacked_real(regressor, weights),
                           _noise_gram(basis, spectra, bins, weights, cfg), _GRAM_RIDGE)
            history.append(_theta_cost(regressor, theta, weights))

    a, b, c = _split_theta(theta, cfg)
    return EstimateResult(
        rational=HalfOrderRational(a=a, b=b),
        transient=c,
        weighted_cost=history[-1],
        iterations_run=len(history) - 1,
        sigma_e=sigma,
        bins=bins,
        cost_history=history,
    )


def parametric_impedance(result: EstimateResult, omegas) -> ImpedanceCurve:
    """Evaluate the estimated rational (transient excluded) on an angular-frequency grid."""
    omega = np.asarray(omegas, dtype=float)
    return ImpedanceCurve(
        freq_hz=omega / (2.0 * np.pi),
        z_ohm=eval_rational(result.rational, omega),
    )


def relative_error_curve(reference: ImpedanceCurve, estimate: ImpedanceCurve) -> np.ndarray:
    """Pointwise |Z_ref - Z_est| / |Z_ref| on a shared frequency grid.

    Points where the reference magnitude vanishes are returned as NaN with a
    warning.
    """
    if reference.freq_hz.shape != estimate.freq_hz.shape or not np.allclose(
        reference.freq_hz, estimate.freq_hz, rtol=1e-9, atol=0.0
    ):
        raise ValueError("reference and estimate are on different frequency grids")
    ref_mag = np.abs(reference.z_ohm)
    out = np.full(ref_mag.shape, np.nan)
    ok = ref_mag > 0.0
    if not np.all(ok):
        warnings.warn(
            f"skipping {int((~ok).sum())} point(s) with zero reference impedance",
            stacklevel=2,
        )
    out[ok] = np.abs(reference.z_ohm[ok] - estimate.z_ohm[ok]) / ref_mag[ok]
    return out
