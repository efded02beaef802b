"""Universal-kriging posterior for the mortality surface.

The latent log-mortality surface f is a Gaussian process with a parametric
prior mean h(x) . beta.  Fitting solves the generalized-least-squares normal
equations for beta jointly with conditioning on the observed log rates.  All
solves against A = C + Sigma go through one whitening operator W with
W^T W = A^-1, and no explicit matrix inverse is ever formed.  It has two kinds:

* grid: when the inputs are every (age, year) pair of their distinct ages and
  years in (year, age) order, the noise diagonal is constant and positive (so
  no jitter is needed), both kernel families factor as
  A = eta^2 K_yr (x) K_ag + sigma^2 I, and W = D^-1/2 (Q_yr (x) Q_ag)^T from
  the eigendecompositions of the two 1-D factors, with
  D = eta^2 (lambda_yr (x) lambda_ag) + sigma^2 (Saatci 2011; Wilson et al.
  2014).  No n x n array is built.  When a query set is itself a full grid the
  cross-covariance factors as K_yr(., ys) (x) K_ag(., as) too and stays
  factored through conditioning; other queries are whitened with two reshaped
  matrix products.
* dense: otherwise (notched subsets, zero-death holes, delta-method noise,
  jittered fits), or when an eigenvalue of the grid covariance is not
  positive, W = L^-1 for the lower Cholesky factor L of A.

``_Covariance`` is the only place this rule lives: ``fit_gls_xy`` (and so
``load_model``, ``update`` and ``fit_mle``'s refit) and the MLE objective in
``hyperfit`` both factorize through it.  Both kinds, and the covariances of
point values, year-derivatives and year differences, come from two 1-D tables
over the distinct ages and years (``kernels._tables``): the Kronecker factors
on a grid, gathered into the full array otherwise (``kernels._gather``).

On the same model the two agree within 1e-10 absolute on posterior means and
variances and 1e-8 relative on the log-likelihood wherever the noise is at
least 1e-6 of eta^2.

Basis coefficients are solved in internally rescaled input coordinates (the
raw design matrix for a quadratic-age trend over calendar years is too ill
conditioned for float64 normal equations) and mapped back to the raw scale
exactly; see ``means.basis_change_matrix``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

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


class _CholeskyWhitener:
    """W = L^-1 for the lower Cholesky factor L of the kernel-plus-noise matrix A."""

    def __init__(self, chol: np.ndarray):
        self.chol = chol
        self.half_logdet = np.log(np.diag(chol)).sum()

    def whiten(self, m: np.ndarray) -> np.ndarray:
        return solve_triangular(self.chol, m, lower=True)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r."""
        return cho_solve((self.chol, True), r)


def _kron_matmul(a_yr: np.ndarray, a_ag: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(a_yr (x) a_ag) m for square factors and m with rows in (year, age) order."""
    n_yr, n_ag = a_yr.shape[0], a_ag.shape[0]
    rotated = (a_yr @ m.reshape(n_yr, -1)).reshape(n_yr, n_ag, -1)
    return a_ag @ rotated


class _GridWhitener:
    """W = D^-1/2 (Q_yr (x) Q_ag)^T for A = K_yr (x) K_ag + sigma^2 I on a full grid.

    ``k_yr`` and ``k_ag`` are the 1-D kernel tables over the grid's years and
    ages, eta^2 in ``k_ag``, and D = lambda_yr (x) lambda_ag + sigma^2 is kept
    as a (years, ages) array.  Raises ``LinAlgError`` when an entry of D is
    not positive, as a failed Cholesky factorization does.
    """

    def __init__(self, k_yr: np.ndarray, k_ag: np.ndarray, sigma_sq: float):
        lam_ag, self.q_ag = np.linalg.eigh(k_ag)
        lam_yr, self.q_yr = np.linalg.eigh(k_yr)
        d = (np.outer(lam_yr, lam_ag) + sigma_sq).ravel()
        if not d.min() > 0.0:
            raise np.linalg.LinAlgError("covariance has a non-positive eigenvalue")
        self.shape = (lam_yr.size, lam_ag.size)
        self.d = d.reshape(self.shape)
        self.sqrt_d = np.sqrt(d)[:, None]
        self.half_logdet = 0.5 * np.log(d).sum()

    def whiten(self, m: np.ndarray) -> np.ndarray:
        white = _kron_matmul(self.q_yr.T, self.q_ag.T, m).reshape(m.shape[0], -1) / self.sqrt_d
        return white.reshape(m.shape)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r = W^T W r."""
        return _kron_matmul(self.q_yr, self.q_ag, self.whiten(r) / self.sqrt_d[:, 0]).reshape(r.shape)


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
    whitener: Union[_CholeskyWhitener, _GridWhitener] = field(repr=False)
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


def _grid_shape(axes) -> Optional[tuple[int, int]]:
    """(years, ages) counts when the rows ``kernels._axes`` describes are every
    (age, year) pair of their distinct ages and years in (year, age) order, else None."""
    (ages, ia), (years, iy) = axes
    full = ia.size > 0 and np.array_equal(ia + ages.size * iy, np.arange(ages.size * years.size))
    return (years.size, ages.size) if full else None


def _jitter(hp: KernelHyperparams, noise_diag: np.ndarray) -> float:
    """Diagonal nugget for an interpolation-mode fit (some noise variance zero), else 0."""
    return JITTER_SCALE * hp.eta_sq if noise_diag.min() <= 0.0 else 0.0


class _Covariance:
    """The kernel-plus-noise matrix A over fixed inputs x, factorized at any hyperparameters.

    This is the one rule for which whitener represents A.  The grid kind is
    taken when x is a full grid (``_grid_shape``) and the noise diagonal is
    constant and positive; the dense Cholesky otherwise, and also when an
    eigenvalue of the grid covariance is not positive.  The distinct ages and
    years of x are found once; the 1-D tables over them are the grid's factors,
    or are gathered into an n x n buffer made on the first dense call, which
    the Cholesky factorizes in place: a dense whitener lasts until the next call.
    """

    def __init__(self, family: KernelFamily, x: np.ndarray):
        self.family = family
        self.axes = kernels._axes(x)
        self.shape = _grid_shape(self.axes)
        self.buffer = None

    def dense(self, hp: KernelHyperparams, noise_diag: np.ndarray) -> np.ndarray:
        """A, jitter included, gathered into the n x n buffer."""
        if self.buffer is None:
            self.buffer = np.empty((noise_diag.size,) * 2)
        a = kernels._gather(*kernels._tables(self.family, hp, self.axes, self.axes), self.axes, self.axes, out=self.buffer)
        a[np.diag_indices_from(a)] += noise_diag + _jitter(hp, noise_diag)
        return a

    def __call__(self, hp: KernelHyperparams, noise_diag: np.ndarray):
        """The whitener of A and the jitter added to its diagonal; ``LinAlgError`` when A is not positive definite."""
        lo = noise_diag.min()
        if self.shape is not None and lo > 0.0 and lo == noise_diag.max():
            k_ag, k_yr = kernels._tables(self.family, hp, self.axes, self.axes)
            try:
                return _GridWhitener(k_yr, k_ag, lo), 0.0
            except np.linalg.LinAlgError:
                pass  # roundoff eigenvalues at or below zero: the dense factorization decides
        a = self.dense(hp, noise_diag)
        # a is exactly symmetric, so its transpose is the same matrix in
        # Fortran order, which LAPACK factorizes in place
        return _CholeskyWhitener(cholesky(a.T, lower=True, overwrite_a=True)), _jitter(hp, noise_diag)


def _whiten(whitener, yh: np.ndarray):
    """Whiten the responses and the design, stacked as the columns of ``yh = [y, H]``, in one pass.

    Returns ``(y_white, h_white, half_logdet)`` for ``_profiled_gls``.
    """
    white = whitener.whiten(yh)
    return white[:, 0], white[:, 1:], whitener.half_logdet


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

    center, scale = _center_scale(x)
    h_scaled = _design(basis, (x - center) / scale)
    cov = _Covariance(family, x)
    try:
        whitener, jitter = cov(hp, noise_diag)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov.dense(hp, noise_diag)).min())
        raise FactorizationError(
            f"covariance-plus-noise matrix is not positive definite (smallest pivot {smallest:.6e})"
        ) from None
    y_white, h_white, half_logdet = _whiten(whitener, np.column_stack([y, h_scaled]))
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
        whitener=whitener,
        alpha=whitener.solve(y - h_scaled @ beta_scaled),
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


def _cross(gp: FittedGP, xs: np.ndarray, year_factor):
    """Prior covariance of the training values with M functionals at xs.

    The functionals map the surface in the year coordinate only, so the
    covariance is eta^2 k_ag(d_ag) ``year_factor(family, d_yr, theta_yr)``
    (``kernels._factor`` for point values): the (n, M) gather of the two
    tables, or, when the model has the grid whitener and xs is itself a full
    grid, the tables as the factors ``(c_yr, c_ag)`` of c = c_yr (x) c_ag.
    """
    axes, q_axes = kernels._axes(gp.x), kernels._axes(xs)
    c_ag, c_yr = kernels._tables(gp.family, gp.hp, axes, q_axes, year_factor)
    if isinstance(gp.whitener, _GridWhitener) and _grid_shape(q_axes) is not None:
        return c_yr, c_ag
    return kernels._gather(c_ag, c_yr, axes, q_axes)


def _whiten_kron(w: _GridWhitener, c_yr: np.ndarray, c_ag: np.ndarray, b: Optional[np.ndarray], want_gram: bool):
    """diag(v^T v), b^T v and (if wanted) v^T v for v = W (c_yr (x) c_ag), never forming v.

    v = diag(s) (p (x) r) with p = Q_yr^T c_yr, r = Q_ag^T c_ag and s = D^-1/2,
    so each product is a few matmuls over the (year, age) axes.
    """
    p, r, inv_d = w.q_yr.T @ c_yr, w.q_ag.T @ c_ag, 1.0 / w.d
    sq_norms = ((p * p).T @ inv_d @ (r * r)).ravel()
    bv = gram = None
    if b is not None:
        n_yr, n_ag = w.shape
        bs = b.reshape(n_yr, n_ag, -1) / w.sqrt_d.reshape(n_yr, n_ag, 1)
        t = (p.T @ bs.reshape(n_yr, -1)).reshape(p.shape[1], n_ag, -1)  # (Yq, A, k)
        bv = (t.transpose(0, 2, 1) @ r).transpose(1, 0, 2).reshape(bs.shape[2], -1)
    if want_gram:
        t = np.einsum("ik,im,ij->kmj", p, p, inv_d)  # (Yq, Yq, A)
        m = sq_norms.size
        gram = ((r.T * t[:, :, None, :]) @ r).transpose(0, 2, 1, 3).reshape(m, m)
    return sq_norms, bv, gram


def _condition(gp: FittedGP, c, hs: np.ndarray, prior_var, prior_cov: Optional[np.ndarray] = None):
    """Posterior of M linear functionals of the latent surface (Rasmussen & Williams, *GPML*, §9.4).

    ``c`` is their prior covariance with the training values, as ``_cross``
    returns it: (n, M), or its grid factors.  ``hs`` is their (M, p) values on
    the scaled basis and ``prior_var`` their prior variances.  Returns
    ``(mean, var, cov)``; with v = W c, u = hs^T - H_white^T v and G the GLS
    normal matrix, the posterior covariance is prior - v^T v + u^T G^-1 u,
    and ``cov`` is it when the (M, M) ``prior_cov`` is given, else None.
    """
    want_cov = prior_cov is not None
    h_white = gp.H_white if gp.basis is not None else None
    if isinstance(c, tuple):
        mean = (c[0].T @ gp.alpha.reshape(gp.whitener.shape) @ c[1]).ravel()
        sq_norms, hv, vtv = _whiten_kron(gp.whitener, *c, h_white, want_cov)
    else:
        v = gp.whitener.whiten(c)
        mean = c.T @ gp.alpha
        sq_norms = np.einsum("ij,ij->j", v, v)
        hv = h_white.T @ v if h_white is not None else None
        vtv = v.T @ v if want_cov else None
    var = prior_var - sq_norms
    cov = prior_cov - vtv if want_cov else None
    if gp.basis is not None:
        mean = mean + hs @ gp.beta_scaled
        u = hs.T - hv
        gu = cho_solve(gp.G_cho, u)
        var = var + np.einsum("ij,ij->j", u, gu)
        if want_cov:
            cov = cov + u.T @ gu
    if want_cov:
        cov = 0.5 * (cov + cov.T)
    return mean, var, cov


def predict(gp: FittedGP, x_star, want_covariance: bool = False) -> PosteriorSummary:
    """Posterior of the latent surface at new inputs.

    Returns the predictive mean, pointwise variance, and, when requested, the
    full posterior covariance matrix including the trend-coefficient
    uncertainty term.
    """
    xs = np.asarray(x_star, dtype=float).reshape(-1, 2)
    c = _cross(gp, xs, kernels._factor)
    k_star = kernels.cov_matrix(gp.family, gp.hp, xs) if want_covariance else None
    mean, var, covariance = _condition(gp, c, gp.scaled_basis_matrix(xs), gp.hp.eta_sq, k_star)
    if covariance is not None:
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
    d = _cross(gp, xs, kernels._dfactor)
    # year-derivative of the rescaled basis is constant across inputs
    dh = means.dbasis_dyr(gp.basis) / gp.basis_scale[1]
    mean, var, _ = _condition(gp, d, np.broadcast_to(dh, (xs.shape[0], dh.size)), gp.hp.eta_sq / gp.hp.theta_yr**2)
    return PosteriorSummary(inputs=xs, mean=mean, variance=_clamp_variance(var))


def _year_difference(gp: FittedGP, ages, year_lo: float, year_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of f(age, year_hi) - f(age, year_lo) for every age.

    One linear functional per age; its prior variance is 2(eta_sq - k), with k
    the (stationary) kernel between the two years at a common age.
    """
    ages = np.asarray(ages, dtype=float)
    lo = np.column_stack([ages, np.full(ages.size, float(year_lo))])
    hi = np.column_stack([ages, np.full(ages.size, float(year_hi))])
    gap = float(year_hi) - float(year_lo)

    def difference(family, d, theta):
        # d is the separation from year_hi; year_lo's is d + gap
        return kernels._factor(family, d, theta) - kernels._factor(family, d + gap, theta)

    c = _cross(gp, hi, difference)
    k = gp.hp.eta_sq * kernels._factor(gp.family, gap, gp.hp.theta_yr)
    hs = gp.scaled_basis_matrix(hi) - gp.scaled_basis_matrix(lo)
    mean, var, _ = _condition(gp, c, hs, 2.0 * (gp.hp.eta_sq - k))
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
