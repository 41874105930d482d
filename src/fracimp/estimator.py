"""Frequency-domain equation-error regression and (weighted) total least squares.

The equation error at segment bin k,

    E(k) = sum_{n=1..Na} a_n (j*w_k)^{n/2} V(k)
         - sum_{n=0..Nb} b_n (j*w_k)^{n/2} I(k)
         + sum_{r=0..Nr} c_r (j*w_k)^{r/2},

is linear in theta = [a_1..a_Na, b_0..b_Nb, c_0..c_Nr]; _columns alone
spells out that layout, and every other step reads it from there.  Every
estimate is one generalized total-least-squares problem, min ||K theta||
subject to theta_n^T G theta_n = 1.  The real/imaginary-stacked regressor K
(two rows per bin) is built once, column-major, with the columns that carry
no noise (the transient, a noise-free channel) first.  Each solve reduces K
to its square triangular QR factor R, which has the same Gram K^T K and so
the same solution, solves the noisy columns on the trailing block of R via
the SVD and back-substitutes the noise-free ones exactly.  Plain TLS takes G
as the squared column norms; the weighted passes scale rows by the inverse
equation-error standard deviation and take G as the noise Gram of the noisy
columns, which yields the consistent estimate.  Both the equation-error
variance and the noise Gram come from one per-bin table of regressor noise
covariances, built once per estimate.  All half powers use the principal
branch of sqrt(j*w).  The nonparametric estimate V(k)/I(k) takes the same
EstimationConfig as the regression and so the same bins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .excitation import _whole_bins, _whole_count
from .model import HalfOrderRational, ImpedanceCurve, _sqrt_j_omega, eval_rational
from .spectra import SpectralSet

# relative diagonal load that keeps a near-singular noise Gram factorizable
_GRAM_RIDGE = 1e-10
# the reweighting stops once every a/b entry of theta moves by at most this
# fraction of its own magnitude in one pass
_THETA_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EstimationConfig:
    """Model orders, bin selection, and iteration policy for the estimator.

    ``bin_window`` is an inclusive (k_min, k_max) interval of segment bins;
    None means every usable bin (no DC or Nyquist).  ``bin_mask`` restricts
    the window to an explicit bin set (use the excited harmonics for multisine
    data; leave None for noise excitation).  A mask bin beyond the spectrum
    is an error; mask bins inside it but outside the window are dropped with
    a warning.  Bins, orders and ``iterations`` are whole numbers (3.0 counts
    as 3).  ``iterations`` is the maximum number of weighted passes; the
    reweighting stops earlier once theta has settled.
    """

    n_a: int = 3
    n_b: int = 3
    n_r: int = 1
    bin_window: tuple[int, int] | None = None
    bin_mask: np.ndarray | None = None
    iterations: int = 10

    def __post_init__(self):
        for name, least in (("n_a", 1), ("n_b", 0), ("n_r", 0), ("iterations", 0)):
            if not getattr(self, name) >= least:  # also NaN
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, _whole_count(getattr(self, name), name))
        if self.bin_window is not None:
            k_min, k_max = _whole_bins(self.bin_window, "bin_window").tolist()
            if not (1 <= k_min <= k_max):
                raise ValueError("bin_window must satisfy 1 <= k_min <= k_max")
            object.__setattr__(self, "bin_window", (k_min, k_max))
        if self.bin_mask is not None:
            object.__setattr__(self, "bin_mask", np.unique(_whole_bins(self.bin_mask, "bin_mask")))

    def selected_bins(self, spectra: SpectralSet) -> np.ndarray:
        """Window intersected with mask; of M samples per period, bins 1..(M-1)//2 are
        usable (no DC, and no Nyquist bin M/2, which exists only for even M)."""
        m = spectra.samples_per_period
        top = (m - 1) // 2
        if self.bin_window is None:
            k_min, k_max = 1, top
        else:
            k_min, k_max = self.bin_window
            if k_max > top:
                raise ValueError(f"bin_window must lie within the usable bins 1..{top}")
        bins = np.arange(k_min, k_max + 1)
        if self.bin_mask is None:
            return bins
        if self.bin_mask.size and self.bin_mask[-1] > m // 2:
            raise ValueError(f"bin_mask must lie within the spectrum (max bin {m // 2}), "
                             f"got {self.bin_mask[-1]}")
        bins = bins[np.isin(bins, self.bin_mask)]
        if bins.size == 0:
            raise ValueError("bin_mask leaves no bin in the window")
        dropped = self.bin_mask.size - bins.size
        if dropped:
            warnings.warn(f"{dropped} of {self.bin_mask.size} mask bins outside the window",
                          stacklevel=3)
        return bins


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Estimated half-order rational plus transient coefficients and diagnostics.

    ``sigma_e`` is the sigma_E(k) that weighted the final pass, taken at the
    parameters of the pass before it, and ``weighted_cost`` is
    sum_k |E(k)|^2 / sigma_e(k)^2 at the returned (a_1 = 1 normalized)
    parameters, so the two check each other (unit weights when no weighted
    pass ran, and then ``sigma_e`` is None).
    ``iterations_run`` is the number of weighted passes, at most the
    configured ``iterations``.  ``converged`` is True when the reweighting
    stopped because theta had settled, False when the maximum came first,
    and None when no weighted pass ran.  ``bins`` are the selected segment
    bins the estimate was fitted on.
    """

    rational: HalfOrderRational
    transient: np.ndarray
    weighted_cost: float
    iterations_run: int
    converged: bool | None
    sigma_e: np.ndarray | None
    bins: np.ndarray

    def to_dict(self) -> dict:
        return {
            "a": self.rational.a.tolist(),
            "b": self.rational.b.tolist(),
            "c": self.transient.tolist(),
            "weighted_cost": self.weighted_cost,
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "sigma_e": None if self.sigma_e is None else self.sigma_e.tolist(),
        }


def _columns(spectra: SpectralSet, bins: np.ndarray, cfg: EstimationConfig):
    """The theta layout at the selected bins: regressor, noise multipliers, channels.

    The complex regressor has one row per bin and the columns
    [(jw)^{n/2} V(k)]_{n=1..Na} | [-(jw)^{n/2} I(k)]_{n=0..Nb} | [(jw)^{r/2}]_{r=0..Nr}.
    The (a/b columns, bins) multipliers carry a column's channel noise into
    the regressor: (jw)^{n/2} on a_n and -(jw)^{n/2} on b_n.  Each column's
    channel is 0 for V, 1 for I and 2 for none (the transient c).  Fewer than
    n_a + n_b + n_r + 2 stacked rows (two per bin) raise before any array exists.
    """
    if 2 * bins.size < (cols := cfg.n_a + cfg.n_b + cfg.n_r + 2):
        raise ValueError(f"{2 * bins.size} stacked rows < {cols} columns; "
                         "select more bins or reduce model orders")
    q = _sqrt_j_omega(2.0 * np.pi * spectra.freq_hz[bins])
    basis = np.stack([q**n for n in range(max(cfg.n_a, cfg.n_b, cfg.n_r) + 1)])
    a, b = basis[1: cfg.n_a + 1], -basis[: cfg.n_b + 1]
    regressor = np.concatenate([a * spectra.mean_voltage[bins], b * spectra.mean_current[bins],
                                basis[: cfg.n_r + 1]]).T
    channel = np.repeat([0, 1, 2], [cfg.n_a, cfg.n_b + 1, cfg.n_r + 1])
    return regressor, np.concatenate([a, b]), channel


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
    and _GRAM_RIDGE.  _columns has checked that K has no fewer rows than columns.
    """
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


def _noise_table(spectra: SpectralSet, bins: np.ndarray, mix: np.ndarray,
                 channel: np.ndarray) -> np.ndarray:
    """Per-bin covariance C_k of the regressor noise in m a/b columns.

    Row i of `mix` carries the noise of channel[i] into column i (see
    _columns); entry (i*m + j, k) of the returned (m*m, bins) table is
    Re E[e_i e_j*] at bin k, so sigma_E(k)^2 = theta^T C_k theta over those
    columns and the noise Gram of rows weighted by w_k is sum_k w_k^2 C_k.
    A channel without noise at bin k gives exact zeros there.
    """
    covar = spectra.covar_vi[bins]
    cov = np.array([[spectra.var_voltage[bins], covar], [covar.conj(), spectra.var_current[bins]]])
    table = np.empty((channel.size, channel.size, bins.size))
    for i, row in enumerate(mix):  # a row at a time keeps the complex temporaries small
        table[i] = (row * mix.conj() * cov[channel[i], channel]).real
    return table.reshape(channel.size**2, bins.size)


def _sigma_e(table: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sigma_E(k) from the noise table, floored at 1e-8 of its largest; all 1 if all are 0."""
    sigma = np.sqrt(np.maximum(np.outer(theta, theta).ravel() @ table, 0.0))
    top = float(sigma.max())
    return np.maximum(sigma, 1e-8 * top) if top > 0.0 else np.ones_like(sigma)


def equation_error_sigma(spectra: SpectralSet, rational: HalfOrderRational,
                         cfg: EstimationConfig) -> np.ndarray:
    """Per-bin standard deviation of a rational's equation error at cfg's bins and orders.

    With A(k) and B(k) its denominator/numerator polynomials at sqrt(j*w_k),
    sigma_E^2 = |A|^2 var_V + |B|^2 var_I - 2 Re{A covar_VI B*}, evaluated as
    the quadratic form of [a | b] in the per-bin noise table; round-off
    negatives are clamped to zero and the result floored so weights stay
    finite on noiseless bins.  _columns checks the config's orders first.
    """
    bins = cfg.selected_bins(spectra)
    _, mix, channel = _columns(spectra, bins, cfg)
    if (rational.a.size, rational.b.size - 1) != (cfg.n_a, cfg.n_b):
        raise ValueError(f"rational has orders (n_a, n_b) = ({rational.a.size}, "
                         f"{rational.b.size - 1}) but the config has ({cfg.n_a}, {cfg.n_b})")
    if not spectra.has_covariances:
        raise ValueError(
            "noise covariances unavailable (single period); only the unweighted "
            "estimate (iterations=0) applies"
        )
    table = _noise_table(spectra, bins, mix, channel[channel < 2])
    return _sigma_e(table, np.concatenate([rational.a, rational.b]))


def wtls_estimate(spectra: SpectralSet, cfg: EstimationConfig) -> EstimateResult:
    """Iteratively reweighted total least squares over the selected bins.

    Iteration 0 is plain TLS on unit row weights; each weighted pass
    recomputes sigma_E from the previous parameters, scales rows by
    1/sigma_E, and re-solves under the weighted noise Gram, so a channel
    without measured noise enters exactly.  The passes stop (converged True)
    once every a/b entry of theta has moved by at most _THETA_TOL of its own
    magnitude since the previous solve, or (converged False) after
    cfg.iterations passes.  The test is elementwise and relative, so gain
    scaling and frequency relabelling leave it unchanged; the transient c,
    which can be near zero, is left out.  The unweighted estimate is
    returned as it is (iterations_run 0, converged and sigma_e None) when
    cfg.iterations is 0, when no selected bin has measured noise (unit
    weights would repeat the same solve), and with a warning when only one
    period is available.  Weak-current bins stay in the fit, but a selection
    of weak bins only raises as `nonparametric_impedance` does (`_current_bins`).
    """
    bins = _current_bins(spectra, cfg.selected_bins(spectra), skip=False)
    regressor, mix, channel = _columns(spectra, bins, cfg)
    noisy = np.array([spectra.has_covariances and spectra.var_voltage[bins].any(),
                      spectra.has_covariances and spectra.var_current[bins].any(), False])[channel]
    order = np.argsort(noisy, kind="stable")  # the noise-free columns first
    # column-major, a real and an imaginary row per bin
    weighted = stacked = regressor.T[order].view(float).T
    theta = _solve(stacked, _column_gram(stacked), order)
    sigma = converged = None
    iterations_run = 0

    if cfg.iterations > 0 and not spectra.has_covariances:
        warnings.warn(
            "noise covariances unavailable (single period); falling back to "
            "unweighted total least squares",
            stacklevel=2,
        )
    elif cfg.iterations > 0 and noisy.any():
        cols = np.flatnonzero(noisy)  # in model order, as they trail in `order`
        table = _noise_table(spectra, bins, mix[cols], channel[cols])
        weighted = np.empty_like(stacked)
        ab = channel < 2  # the transient c can be near zero
        for iterations_run in range(1, cfg.iterations + 1):
            sigma = _sigma_e(table, theta[cols])
            weights = 1.0 / sigma
            np.multiply(stacked, np.repeat(weights, 2)[:, None], out=weighted)
            previous = theta[ab]
            theta = _solve(weighted, (table @ weights**2).reshape(cols.size, -1), order,
                           _GRAM_RIDGE)
            converged = bool(np.all(np.abs(theta[ab] - previous)
                                    <= _THETA_TOL * np.abs(theta[ab])))
            if converged:
                break

    return EstimateResult(
        rational=HalfOrderRational(a=theta[channel == 0], b=theta[channel == 1]),
        transient=theta[channel == 2],
        weighted_cost=float(np.sum((weighted @ theta[order]) ** 2)),
        iterations_run=iterations_run,
        converged=converged,
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


def _current_bins(spectra: SpectralSet, bins: np.ndarray, skip: bool) -> np.ndarray:
    """`bins`, less (when `skip`) those whose current magnitude is at most 1e-12 of the
    strongest bin's, which a warning counts.  When every bin is that weak, neither
    estimator has data: the warning, then a ValueError, whether or not `skip`."""
    weak = np.abs(spectra.mean_current[bins]) <= 1e-12 * np.abs(spectra.mean_current).max()
    if weak.any() and (skip or weak.all()):
        warnings.warn(f"skipping {int(weak.sum())} excited bin(s) with vanishing current "
                      "spectrum", stacklevel=3)
        if weak.all():
            raise ValueError("all excited bins have vanishing current spectrum")
    return bins[~weak] if skip else bins


def nonparametric_impedance(spectra: SpectralSet, cfg: EstimationConfig) -> ImpedanceCurve:
    """Classical EIS estimate: averaged voltage over averaged current per selected bin.

    The bins are those `wtls_estimate` fits on under the same config,
    ``cfg.selected_bins(spectra)``, less those whose current is too weak to
    divide by (`_current_bins`), which are skipped with a warning.
    """
    bins = _current_bins(spectra, cfg.selected_bins(spectra), skip=True)
    z = spectra.mean_voltage[bins] / spectra.mean_current[bins]
    return ImpedanceCurve(freq_hz=spectra.freq_hz[bins], z_ohm=z)


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
