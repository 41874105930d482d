"""Frequency-domain equation-error regression and (weighted) total least squares.

The equation error at segment bin k,

    E(k) = sum_{n=1..Na} a_n (j*w_k)^{n/2} V(k)
         - sum_{n=0..Nb} b_n (j*w_k)^{n/2} I(k)
         + sum_{r=0..Nr} c_r (j*w_k)^{r/2},

is linear in theta = [a_1..a_Na, b_0..b_Nb, c_0..c_Nr].  Every estimate is
one generalized total-least-squares problem, min ||K theta|| subject to
theta_n^T G theta_n = 1.  The real/imaginary-stacked regressor K (two rows
per bin) is built once, column-major, with the columns that carry no noise
(the transient, a noise-free channel) first.  Each solve reduces K to its
square triangular QR factor R, which has the same Gram K^T K and so the same
solution, solves the noisy columns on the trailing block of R via the SVD and
back-substitutes the noise-free ones exactly.  Plain TLS takes G as the
squared column norms; the weighted passes scale rows by the inverse
equation-error standard deviation and take G as the noise Gram of the noisy
columns, which yields the consistent estimate.  Both the equation-error
variance and the noise Gram come from one per-bin table of regressor noise
covariances, built once per estimate.  All half powers use the principal
branch of sqrt(j*w).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    data; leave None for noise excitation).  A mask bin beyond the spectrum
    is an error; mask bins inside it but outside the window are dropped with
    a warning.
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
        if self.bin_mask.size and self.bin_mask[-1] >= spectra.n_bins:
            raise ValueError(f"excited bin {self.bin_mask[-1]} outside spectrum "
                             f"(max {spectra.n_bins - 1})")
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
    (a_1 = 1 normalized) parameters under the final weights (unit weights
    when no weighted pass ran, and then ``sigma_e`` is None).  ``bins`` are
    the selected segment bins the estimate was fitted on.
    """

    rational: HalfOrderRational
    transient: np.ndarray
    weighted_cost: float
    iterations_run: int
    sigma_e: np.ndarray | None
    bins: np.ndarray

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


def _basis(spectra: SpectralSet, bins: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    """Every half power the model needs at the selected bins; row n is (jw)^{n/2}."""
    q = _sqrt_j_omega(2.0 * np.pi * spectra.freq_hz[bins])
    return np.stack([q**n for n in range(max(cfg.n_a, cfg.n_b, cfg.n_r) + 1)])


def _regressor(spectra: SpectralSet, bins: np.ndarray, basis: np.ndarray,
               cfg: EstimationConfig) -> np.ndarray:
    """Complex regressor, one row per selected bin, column-major.

    Columns: [(jw)^{n/2} V(k)]_{n=1..Na} | [-(jw)^{n/2} I(k)]_{n=0..Nb} |
    [(jw)^{r/2}]_{r=0..Nr}.
    """
    return np.concatenate([
        basis[1: cfg.n_a + 1] * spectra.mean_voltage[bins],
        -basis[: cfg.n_b + 1] * spectra.mean_current[bins],
        basis[: cfg.n_r + 1],
    ]).T


def _normalize_a1(theta: np.ndarray) -> np.ndarray:
    if abs(theta[0]) < 1e-10 * np.linalg.norm(theta):
        raise NumericsError("estimated a_1 is numerically zero; cannot normalize")
    return theta / theta[0]


def _column_gram(stacked: np.ndarray) -> np.ndarray:
    """Constraint matrix of plain TLS: squared column norms (a zero column counts as 1)."""
    scale = np.linalg.norm(stacked, axis=0)
    scale[scale == 0] = 1.0
    return np.diag(scale**2)


def _solve(stacked: np.ndarray, gram: np.ndarray, order: np.ndarray,
           ridge: float = 0.0) -> np.ndarray:
    """min ||K theta|| subject to theta_n^T (G + ridge diag G) theta_n = 1, a_1-normalized.

    Column j of K is model column order[j]; G is the Gram of the trailing
    noisy columns theta_n, and the leading columns carry no noise.  K is first
    reduced to its triangular QR factor R = [[R11, R12], [0, R22]]: every
    later step sees K only through K^T K = R^T R, so it gives the same
    solution on R at a cost independent of the number of bins.  theta_n
    minimizes ||R22 theta_n|| under the constraint, and the noise-free part
    is back-substituted, theta_f = -R11^{-1} R12 theta_n, an exact
    least-squares fit (Golub, Hoffman & Stewart 1987).  R22 is scaled by
    sqrt(diag G) and whitened by the Cholesky factor of the ridged
    correlation before the SVD.
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
    f = order.size - gram.shape[0]  # the number of noise-free columns
    diag = np.sqrt(np.diag(gram))
    chol = np.linalg.cholesky(gram / np.outer(diag, diag) + ridge * np.eye(diag.size))
    whitened = np.linalg.solve(chol, (r[f:, f:] / diag).T).T

    _, s, vt = np.linalg.svd(whitened, full_matrices=False)
    if s.size > 1 and s[-2] - s[-1] <= 1e-8 * max(s[0], np.finfo(float).tiny):
        warnings.warn(
            "two smallest singular values nearly coincide; the solution "
            "direction is ambiguous",
            stacklevel=3,
        )
    theta_n = np.linalg.solve(chol.T, vt[-1]) / diag
    theta = np.empty(order.size)
    theta[order] = np.concatenate([-np.linalg.solve(r[:f, :f], r[:f, f:] @ theta_n), theta_n])
    return _normalize_a1(theta)


def _split_theta(theta: np.ndarray, cfg: EstimationConfig):
    a = theta[: cfg.n_a]
    b = theta[cfg.n_a: cfg.n_a + cfg.n_b + 1]
    c = theta[cfg.n_a + cfg.n_b + 1:]
    return a, b, c


def _floor_sigma(sigma: np.ndarray) -> np.ndarray:
    top = float(sigma.max())
    if top > 0.0:
        return np.maximum(sigma, 1e-8 * top)
    return np.ones_like(sigma)


def _noise_table(basis: np.ndarray, spectra: SpectralSet, bins: np.ndarray,
                 cfg: EstimationConfig, cols: np.ndarray) -> np.ndarray:
    """Per-bin covariance C_k of the regressor noise in the model columns `cols`.

    The regressor noise at bin k is (jw)^{n/2} N_V(k) in column a_n and
    -(jw)^{n/2} N_I(k) in column b_n; entry (i*m + j, k) of the returned
    (m*m, bins) table is Re E[e_i e_j*] at bin k, so sigma_E(k)^2 =
    theta^T C_k theta over those columns and the noise Gram of rows weighted
    by w_k is sum_k w_k^2 C_k.  A channel without noise at bin k gives exact
    zeros there.
    """
    mix = np.concatenate([basis[1: cfg.n_a + 1], -basis[: cfg.n_b + 1]])[cols]
    side = np.where(cols < cfg.n_a, 0, 1)  # the channel each column's noise comes from
    covar = spectra.covar_vi[bins]
    cov = np.array([[spectra.var_voltage[bins], covar], [covar.conj(), spectra.var_current[bins]]])
    table = np.empty((cols.size, cols.size, bins.size))
    for i, row in enumerate(mix):  # a row at a time keeps the complex temporaries small
        table[i] = (row * mix.conj() * cov[side[i], side]).real
    return table.reshape(cols.size**2, bins.size)


def _sigma_e(table: np.ndarray, theta: np.ndarray) -> np.ndarray:
    var = np.outer(theta, theta).ravel() @ table
    return _floor_sigma(np.sqrt(np.maximum(var, 0.0)))


def equation_error_sigma(spectra: SpectralSet, theta: EstimateResult,
                         cfg: EstimationConfig) -> np.ndarray:
    """Per-bin standard deviation of the equation error at the given parameters.

    With A(k) and B(k) the denominator/numerator polynomials evaluated at
    sqrt(j*w_k), sigma_E^2 = |A|^2 var_V + |B|^2 var_I - 2 Re{A covar_VI B*},
    evaluated as the quadratic form of the a/b parameters in the per-bin
    noise table; round-off negatives are clamped to zero and the result
    floored so weights stay finite on noiseless bins.
    """
    if not spectra.has_covariances:
        raise ValueError(
            "noise covariances unavailable (single period); only the unweighted "
            "estimate (iterations=0) applies"
        )
    bins = cfg.selected_bins(spectra)
    cols = np.arange(cfg.n_a + cfg.n_b + 1)
    return _sigma_e(_noise_table(_basis(spectra, bins, cfg), spectra, bins, cfg, cols),
                    theta.theta[cols])


def wtls_estimate(spectra: SpectralSet, cfg: EstimationConfig) -> EstimateResult:
    """Iteratively reweighted total least squares over the selected bins.

    Iteration 0 is plain TLS on unit row weights; each of the cfg.iterations
    weighted passes recomputes sigma_E from the previous parameters, scales rows by
    1/sigma_E, and re-solves under the weighted noise Gram, so a channel
    without measured noise enters exactly.  The unweighted estimate is
    returned as it is (iterations_run 0, sigma_e None) when no selected bin
    has measured noise (unit weights would repeat the same solve), and with
    a warning when only one period is available.
    """
    bins = cfg.selected_bins(spectra)
    basis = _basis(spectra, bins, cfg)
    noisy = np.repeat([spectra.has_covariances and spectra.var_voltage[bins].any(),
                       spectra.has_covariances and spectra.var_current[bins].any(), False],
                      [cfg.n_a, cfg.n_b + 1, cfg.n_r + 1])
    order = np.argsort(noisy, kind="stable")  # the noise-free columns first
    # column-major, a real and an imaginary row per bin
    weighted = stacked = _regressor(spectra, bins, basis, cfg).T[order].view(float).T
    theta = _solve(stacked, _column_gram(stacked), order)
    sigma = None
    iterations_run = 0

    if cfg.iterations > 0 and not spectra.has_covariances:
        warnings.warn(
            "noise covariances unavailable (single period); falling back to "
            "unweighted total least squares",
            stacklevel=2,
        )
    elif cfg.iterations > 0 and noisy.any():
        cols = order[-np.count_nonzero(noisy):]
        table = _noise_table(basis, spectra, bins, cfg, cols)
        weighted = np.empty_like(stacked)
        for iterations_run in range(1, cfg.iterations + 1):
            sigma = _sigma_e(table, theta[cols])
            weights = 1.0 / sigma
            np.multiply(stacked, np.repeat(weights, 2)[:, None], out=weighted)
            theta = _solve(weighted, (table @ weights**2).reshape(cols.size, -1), order,
                           _GRAM_RIDGE)

    a, b, c = _split_theta(theta, cfg)
    return EstimateResult(
        rational=HalfOrderRational(a=a, b=b),
        transient=c,
        weighted_cost=float(np.sum((weighted @ theta[order]) ** 2)),
        iterations_run=iterations_run,
        sigma_e=sigma,
        bins=bins,
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
