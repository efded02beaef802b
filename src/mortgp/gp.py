"""Universal-kriging posterior for the mortality surface.

The latent log-mortality surface f is a Gaussian process with a parametric
prior mean h(x) . beta.  Fitting solves the generalized-least-squares normal
equations for beta jointly with conditioning on the observed log rates; all
solves against (C + Sigma) go through one lower-triangular Cholesky factor and
no explicit matrix inverse is ever formed.

Basis coefficients are solved in internally rescaled input coordinates (the
raw design matrix for a quadratic-age trend over calendar years is too ill
conditioned for float64 normal equations) and mapped back to the raw scale
exactly; see ``means.basis_change_matrix``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.special import ndtri

from . import kernels, means
from .data import MortalityTable, _center_scale
from .kernels import ConstantNoise, KernelFamily, KernelHyperparams, NoiseModel
from .means import MeanBasis

LOG_2PI = math.log(2.0 * math.pi)

# Diagonal nugget (relative to eta^2) applied when the noise variance is zero,
# so that interpolation-mode covariance matrices stay positive definite.
JITTER_SCALE = 1e-10

# Negative variances inside this tolerance are treated as roundoff and clamped
# to zero; anything below it indicates a logic error and raises.
VARIANCE_TOL = 1e-10


class FactorizationError(RuntimeError):
    """Raised when (C + Sigma) or a posterior covariance cannot be factorized."""


def _clamp_variance(var: np.ndarray, tol: float = VARIANCE_TOL) -> np.ndarray:
    var = np.asarray(var, dtype=float)
    low = var.min(initial=0.0)
    if low < -tol:
        raise FloatingPointError(f"posterior variance {low:.3e} below -{tol:.0e}; not attributable to roundoff")
    return np.where(var < 0.0, 0.0, var)


def _quantile_z(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"credible level must be in (0, 1), got {level}")
    return float(ndtri(0.5 + level / 2.0))


@dataclass
class PosteriorSummary:
    """Predictive mean, variance and (optionally) full covariance at a set of inputs."""

    inputs: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    covariance: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=float).reshape(-1, 2)
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.variance = _clamp_variance(self.variance)
        if self.covariance is not None:
            c = np.asarray(self.covariance, dtype=float)
            if not np.allclose(c, c.T, atol=1e-10, rtol=0.0):
                raise ValueError("posterior covariance is not symmetric")
            if np.max(np.abs(np.diag(c) - self.variance)) > 1e-10:
                raise ValueError("posterior covariance diagonal disagrees with variance")
            self.covariance = c

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def band(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Central credible band (lo, hi) at the given probability level."""
        z = _quantile_z(level)
        return self.mean - z * self.sd, self.mean + z * self.sd

    def to_dict(self, level: float = 0.95) -> dict:
        """JSON-ready summary with bands at the given level."""
        lo, hi = self.band(level)
        return {
            "age": self.inputs[:, 0].tolist(),
            "year": self.inputs[:, 1].tolist(),
            "mean_log": self.mean.tolist(),
            "sd_log": self.sd.tolist(),
            "level": level,
            "lo": lo.tolist(),
            "hi": hi.tolist(),
        }


@dataclass
class FittedGP:
    """A fitted universal-kriging model with its cached factorization.

    Immutable by convention after construction; predictions and sampling may
    run concurrently against one instance.
    """

    x: np.ndarray
    y: np.ndarray
    family: KernelFamily
    hp: KernelHyperparams
    noise: NoiseModel
    noise_diag: np.ndarray
    basis: Optional[MeanBasis]
    beta: np.ndarray
    jitter: float
    # cached solves, all in the rescaled-basis representation
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta_scaled: np.ndarray = field(repr=False)
    H_white: np.ndarray = field(repr=False)
    G_cho: Optional[tuple] = field(repr=False)
    basis_center: np.ndarray = field(repr=False)
    basis_scale: np.ndarray = field(repr=False)
    log_likelihood: float = float("nan")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def scaled_basis_matrix(self, xs: np.ndarray) -> np.ndarray:
        z = (np.asarray(xs, dtype=float).reshape(-1, 2) - self.basis_center) / self.basis_scale
        return means.basis_matrix(self.basis, z)


def _design(basis: Optional[MeanBasis], z: np.ndarray) -> np.ndarray:
    """Design matrix over (scaled) inputs, checked for full column rank."""
    h = means.basis_matrix(basis, z)
    if h.shape[1] and np.linalg.matrix_rank(h) < h.shape[1]:
        raise ValueError("mean basis design matrix is rank deficient on these inputs")
    return h


def _whiten(chol: np.ndarray, y: np.ndarray, h: np.ndarray):
    """Whiten y and the design by the lower Cholesky factor of the kernel-plus-noise matrix.

    Returns ``(y_white, h_white, half_logdet)`` for ``_profiled_gls``.
    """
    y_white = solve_triangular(chol, y, lower=True)
    h_white = solve_triangular(chol, h, lower=True) if h.shape[1] else h
    return y_white, h_white, np.log(np.diag(chol)).sum()


def _profiled_gls(y_white: np.ndarray, h_white: np.ndarray, half_logdet: float):
    """Solve the GLS and evaluate the profiled log-likelihood from whitened data.

    ``y_white`` and ``h_white`` are the responses and the (scaled) design
    matrix whitened by any square root of the kernel-plus-noise matrix A, and
    ``half_logdet`` is ½ log|A|.  Returns ``(g_cho, beta_scaled, log_lik)``.
    Raises ``ValueError`` when the GLS normal equations are singular.
    """
    if h_white.shape[1]:
        try:
            g_cho = cho_factor(h_white.T @ h_white, lower=True)
        except np.linalg.LinAlgError:
            raise ValueError("GLS normal equations are singular; basis columns are collinear") from None
        beta_scaled = cho_solve(g_cho, h_white.T @ y_white)
        resid_white = y_white - h_white @ beta_scaled
    else:
        g_cho, beta_scaled, resid_white = None, np.empty(0), y_white
    log_lik = float(-0.5 * resid_white @ resid_white - half_logdet - 0.5 * y_white.size * LOG_2PI)
    return g_cho, beta_scaled, log_lik


def fit_gls_xy(
    x,
    y,
    family: KernelFamily,
    hp: KernelHyperparams,
    basis: Optional[MeanBasis] = MeanBasis.INTERCEPT,
    noise: Optional[NoiseModel] = None,
    noise_diag=None,
) -> FittedGP:
    """Fit from raw arrays; ``basis=None`` gives a zero-mean (simple kriging) model.

    ``noise_diag`` defaults to a constant diagonal from the noise model (or
    from ``hp.sigma_sq`` when no model is given).
    """
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[0]
    if y.size != n:
        raise ValueError(f"{n} inputs but {y.size} responses")
    if noise is None:
        noise = ConstantNoise(hp.sigma_sq)
    if noise_diag is None:
        if not isinstance(noise, ConstantNoise):
            raise ValueError("noise_diag must be supplied explicitly for non-constant noise models")
        noise_diag = np.full(n, noise.sigma_sq)
    noise_diag = np.asarray(noise_diag, dtype=float).ravel()
    if noise_diag.size != n:
        raise ValueError("noise diagonal length does not match inputs")

    p = means.basis_dim(basis)
    if n < p:
        raise ValueError(f"need at least {p} observations to fit a {p}-dimensional mean basis, got {n}")

    a = kernels.cov_matrix(family, hp, x)
    jitter = JITTER_SCALE * hp.eta_sq if noise_diag.min() <= 0.0 else 0.0
    a[np.diag_indices(n)] += noise_diag + jitter
    center, scale = _center_scale(x)
    h_scaled = _design(basis, (x - center) / scale)
    try:
        chol = cholesky(a, lower=True)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(a).min())
        raise FactorizationError(
            f"covariance-plus-noise matrix is not positive definite (smallest pivot {smallest:.6e})"
        ) from None
    y_white, h_white, half_logdet = _whiten(chol, y, h_scaled)
    g_cho, beta_scaled, log_lik = _profiled_gls(y_white, h_white, half_logdet)

    return FittedGP(
        x=x,
        y=y,
        family=family,
        hp=hp,
        noise=noise,
        noise_diag=noise_diag,
        basis=basis,
        beta=means.basis_change_matrix(basis, center, scale).T @ beta_scaled,
        jitter=jitter,
        chol=chol,
        alpha=cho_solve((chol, True), y - h_scaled @ beta_scaled),
        beta_scaled=beta_scaled,
        H_white=h_white,
        G_cho=g_cho,
        basis_center=center,
        basis_scale=scale,
        log_likelihood=log_lik,
    )


def fit_gls(
    table: MortalityTable,
    family: KernelFamily,
    hp: KernelHyperparams,
    noise: Optional[NoiseModel] = None,
    basis: Optional[MeanBasis] = MeanBasis.INTERCEPT,
) -> FittedGP:
    """Fit a universal-kriging model to a mortality table's trainable cells."""
    if noise is None:
        noise = ConstantNoise(hp.sigma_sq)
    noise_diag = kernels.noise_diagonal(noise, table)
    return fit_gls_xy(table.inputs(), table.responses(), family, hp, basis=basis, noise=noise, noise_diag=noise_diag)


def _condition(gp: FittedGP, c: np.ndarray, hs: np.ndarray, prior_var):
    """Posterior of M linear functionals of the latent surface (Rasmussen & Williams, *GPML*, §9.4).

    ``c`` is their (n, M) prior covariance with the training values, ``hs``
    their (M, p) values on the scaled basis and ``prior_var`` their prior
    variances.  Returns ``(mean, var, v, u, gu)``: ``v = L⁻¹c`` and, with a
    basis, ``u = hsᵀ - H_whiteᵀv`` and ``gu = G⁻¹u`` (else ``None``), so the
    posterior covariance is the prior one - ``vᵀv`` + ``uᵀgu``.
    """
    v = solve_triangular(gp.chol, c, lower=True)
    mean = c.T @ gp.alpha
    var = prior_var - np.einsum("ij,ij->j", v, v)
    u = gu = None
    if gp.basis is not None:
        mean = mean + hs @ gp.beta_scaled
        u = hs.T - gp.H_white.T @ v
        gu = cho_solve(gp.G_cho, u)
        var = var + np.einsum("ij,ij->j", u, gu)
    return mean, var, v, u, gu


def predict(gp: FittedGP, x_star, want_covariance: bool = False) -> PosteriorSummary:
    """Posterior of the latent surface at new inputs.

    Returns the predictive mean, pointwise variance, and, when requested, the
    full posterior covariance matrix including the trend-coefficient
    uncertainty term.
    """
    xs = np.asarray(x_star, dtype=float).reshape(-1, 2)
    c = kernels.cross_cov(gp.family, gp.hp, gp.x, xs)
    mean, var, v, u, gu = _condition(gp, c, gp.scaled_basis_matrix(xs), gp.hp.eta_sq)

    covariance = None
    if want_covariance:
        k_star = kernels.cov_matrix(gp.family, gp.hp, xs)
        covariance = k_star - v.T @ v
        if gp.basis is not None:
            covariance = covariance + u.T @ gu
        covariance = 0.5 * (covariance + covariance.T)
        var = _clamp_variance(np.diag(covariance).copy())
    return PosteriorSummary(inputs=xs, mean=mean, variance=_clamp_variance(var), covariance=covariance)


def predict_observation(gp: FittedGP, x_star) -> PosteriorSummary:
    """Posterior of a future *observed* log rate: latent variance plus noise."""
    sigma_sq = kernels.observation_variance(gp.noise)
    post = predict(gp, x_star, want_covariance=False)
    return PosteriorSummary(inputs=post.inputs, mean=post.mean, variance=post.variance + sigma_sq)


def sample_paths(gp: FittedGP, x_star, n_paths: int, seed: int) -> np.ndarray:
    """Draw joint posterior trajectories of the latent surface.

    Returns an (n_paths, M) array; deterministic for a given seed.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    post = predict(gp, x_star, want_covariance=True)
    m = post.mean.size
    cov = post.covariance + 1e-10 * np.eye(m)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov).min())
        raise FactorizationError(
            f"posterior covariance not positive definite after jitter (smallest pivot {smallest:.6e})"
        ) from None
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n_paths))
    return (post.mean[:, None] + factor @ z).T


@dataclass
class ResidualDiagnostics:
    """Training residuals plus normal Q-Q pairs for external plotting."""

    residuals: np.ndarray
    qq_theoretical: np.ndarray
    qq_empirical: np.ndarray


def residuals(gp: FittedGP) -> ResidualDiagnostics:
    """In-sample residuals y - m_*(x) and their normal quantile pairs."""
    post = predict(gp, gp.x)
    res = gp.y - post.mean
    n = res.size
    empirical = np.sort(res)
    theoretical = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return ResidualDiagnostics(residuals=res, qq_theoretical=theoretical, qq_empirical=empirical)


def predict_year_derivative(gp: FittedGP, x_star) -> PosteriorSummary:
    """Posterior of the year-derivative of the latent surface.

    The mean equals the analytic year-derivative of the predictive mean
    (including the trend contribution), and the variance carries the same
    trend-uncertainty correction as the surface posterior.
    """
    xs = np.asarray(x_star, dtype=float).reshape(-1, 2)
    d = kernels.dcross_cov_dyr(gp.hp, gp.x, xs, gp.family)
    # year-derivative of the rescaled basis is constant across inputs
    dh = means.dbasis_dyr(gp.basis) / gp.basis_scale[1]
    mean, var, *_ = _condition(gp, d, np.broadcast_to(dh, (xs.shape[0], dh.size)), gp.hp.eta_sq / gp.hp.theta_yr**2)
    return PosteriorSummary(inputs=xs, mean=mean, variance=_clamp_variance(var))


def _year_difference(gp: FittedGP, ages, year_lo: float, year_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of f(age, year_hi) - f(age, year_lo) for every age.

    One linear functional per age; its prior variance is 2(eta_sq - k), with k
    the (stationary) kernel between the two years at a common age.
    """
    ages = np.asarray(ages, dtype=float)
    lo = np.column_stack([ages, np.full(ages.size, float(year_lo))])
    hi = np.column_stack([ages, np.full(ages.size, float(year_hi))])
    c = kernels.cross_cov(gp.family, gp.hp, gp.x, hi) - kernels.cross_cov(gp.family, gp.hp, gp.x, lo)
    k = kernels.cross_cov(gp.family, gp.hp, [0.0, year_hi], [0.0, year_lo])[0, 0]
    hs = gp.scaled_basis_matrix(hi) - gp.scaled_basis_matrix(lo)
    mean, var, *_ = _condition(gp, c, hs, 2.0 * (gp.hp.eta_sq - k))
    return mean, _clamp_variance(var)


def log_marginal_likelihood(
    table: MortalityTable,
    family: KernelFamily,
    hp: KernelHyperparams,
    noise: Optional[NoiseModel] = None,
    basis: Optional[MeanBasis] = MeanBasis.INTERCEPT,
) -> float:
    """Profiled log marginal likelihood of the data under the given hyperparameters.

    The trend coefficients are profiled out by GLS before evaluating the
    Gaussian likelihood.  Returns -inf (with a warning) when the covariance
    matrix cannot be factorized.
    """
    if noise is None:
        noise = ConstantNoise(hp.sigma_sq)
    noise_diag = kernels.noise_diagonal(noise, table)
    return log_marginal_likelihood_xy(
        table.inputs(), table.responses(), family, hp, basis=basis, noise=noise, noise_diag=noise_diag
    )


def log_marginal_likelihood_xy(
    x,
    y,
    family: KernelFamily,
    hp: KernelHyperparams,
    basis: Optional[MeanBasis] = MeanBasis.INTERCEPT,
    noise: Optional[NoiseModel] = None,
    noise_diag=None,
) -> float:
    try:
        gp = fit_gls_xy(x, y, family, hp, basis=basis, noise=noise, noise_diag=noise_diag)
    except FactorizationError as exc:
        warnings.warn(f"likelihood evaluation failed: {exc}", stacklevel=2)
        return float("-inf")
    return gp.log_likelihood
