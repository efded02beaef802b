"""Universal-kriging posterior for the mortality surface.

The latent log-mortality surface f is a Gaussian process with a parametric
prior mean h(x) . beta.  Fitting solves the generalized-least-squares normal
equations for beta jointly with conditioning on the observed log rates.  All
solves against A = C + Sigma go through one whitening operator W with
W^T W = A^-1, and no explicit matrix inverse is ever formed.  It has two kinds:

* grid: when the inputs are distinct cells, in any order, of the grid of
  their distinct ages and years, and the noise diagonal is constant and
  positive (so no jitter is needed), both kernel families factor the full
  grid's A_f = eta^2 K_yr (x) K_ag + sigma^2 I, whitened by
  W_f = D^-1/2 (Q_yr (x) Q_ag)^T from the eigendecompositions of the two 1-D
  factors, with D = eta^2 (lambda_yr (x) lambda_ag) + sigma^2 (Saatci 2011;
  Wilson et al. 2014).  When the inputs miss m of the grid's N cells (a
  notched subset such as ``subset2``, zero-death holes, a partial-year
  update), at most m <= n / 4, the missing cells get the same noise and the
  partitioned inverse (Rasmussen & Williams, *GPML* §A.3) corrects W_f
  exactly: W = Pi W_f P, where P pads the n rows with zeros at the missing
  cells and Pi projects out the m columns of W_f at them, and
  log|A| = log|A_f| + log|M| for M, their m x m Gram matrix.  This is the
  exact small-m counterpart of Wilson et al.'s imaginary observations.  No
  n x n array is built.  A query set that is itself such a grid, with holes or
  none, gets the factored covariance K_yr(., ys) (x) K_ag(., as) with the whole
  grid, kept factored through conditioning; other queries are whitened with
  two reshaped matrix products.
* dense: otherwise (more than n / 4 cells missing, delta-method noise,
  jittered fits), or when an eigenvalue of the grid covariance is not
  positive or the Cholesky factorization of M fails, W = L^-1 for the lower
  Cholesky factor L of A.

``_Covariance`` is the only place this rule lives: ``fit_gls_xy`` (and so
``load_model``, ``update`` and ``fit_mle``'s refit) and the MLE objective in
``hyperfit`` both factorize through it.  Both kinds, and the covariances of
point values, year-derivatives and year differences, come from two 1-D tables
over the distinct ages and years (``kernels._tables``): the Kronecker factors
on a grid, gathered into the full array otherwise (``kernels._gather``).

On the same model the two agree within 1e-10 absolute on posterior means and
variances and 1e-8 relative on the log-likelihood, with or without missing
cells, at every point the tests check over the MLE search box with noise at
least 1e-6 of eta^2, on a smooth trend plus noise and, with holes, on GP draws.
That is no bound: near sigma^2 = 1e-6 eta^2, and at the box's corner
theta_ag = theta_yr = 100, eta^2 = 1e-6, sigma^2 = 1e-10, it is float64's
floor.  There each route's means are 0.2-3e-10 from a high-precision reference
and the two differ by up to 3.4e-10, so the 35 x 16 tests check that corner
on trend-plus-noise data, not GP draws.

Basis coefficients are solved in internally rescaled input coordinates (the
raw design matrix for a quadratic-age trend over calendar years is too ill
conditioned for float64 normal equations) and mapped back to the raw scale
exactly; see ``means.basis_change_matrix``.

scipy is imported only where it is used, so that loading a grid model, with
or without missing cells, and querying it loads no scipy: ``scipy.linalg`` at
the first dense factorization (``_Covariance``, ``_CholeskyWhitener``), which
keeps every n x n solve on LAPACK's triangular routines.  The m x m matrix M
of the missing cells and the p x p GLS normal matrix (p <= 4) are factorized
with ``numpy.linalg`` and credible quantiles come from ``statistics.NormalDist``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Union

import numpy as np

from . import kernels, means
from .data import MortalityTable
from .kernels import ConstantNoise, KernelFamily, KernelHyperparams, NoiseModel
from .means import MeanBasis

LOG_2PI = math.log(2.0 * math.pi)

# Diagonal nugget (relative to eta^2) applied when the noise variance is zero,
# so that interpolation-mode covariance matrices stay positive definite.
JITTER_SCALE = 1e-10

# Negative variances inside this tolerance are treated as roundoff and clamped
# to zero; anything below it indicates a logic error and raises.
VARIANCE_TOL = 1e-10

# A pivot of the GLS normal matrix's Cholesky factor at or below this share of
# its column's squared norm is roundoff: that whitened basis column lies in the
# span of the earlier ones.  LAPACK potrf passes such a matrix about one time in three.
GLS_PIVOT_TOL = 1e-12

# The grid route takes inputs missing at most this share of n cells of their grid.
MAX_MISSING_SHARE = 0.25


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
    return NormalDist().inv_cdf(0.5 + level / 2.0)


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

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def band(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Central credible band (lo, hi) at the given probability level."""
        z = _quantile_z(level)
        return self.mean - z * self.sd, self.mean + z * self.sd


class _CholeskyWhitener:
    """W = L^-1 for the lower Cholesky factor L of the kernel-plus-noise matrix A."""

    def __init__(self, chol: np.ndarray):
        self.chol = chol
        self.half_logdet = np.log(np.diag(chol)).sum()

    def whiten(self, m: np.ndarray) -> np.ndarray:
        from scipy.linalg import solve_triangular

        return solve_triangular(self.chol, m, lower=True)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r."""
        from scipy.linalg import cho_solve

        return cho_solve((self.chol, True), r)

    def log_lik_grad(self, alpha: np.ndarray, noise_diag: np.ndarray, parts) -> np.ndarray:
        """½ (alpha^T dA alpha - tr(A^-1 dA)) for each n x n dA in ``parts``, then for dA = diag(noise_diag).

        LAPACK potri overwrites the factor with A^-1, which spends the whitener;
        the zero triangle stays zero, so tr(A^-1 dA) = 2 <tri, dA> - <diag, diag>.
        """
        from scipy.linalg.lapack import dpotri

        inv = dpotri(self.chol, lower=1, overwrite_c=1)[0]  # cannot fail: the factor's diagonal is positive
        self.chol = None
        diag, tri = np.diagonal(inv), inv.T  # tri is C-ordered like dA
        terms = [alpha @ (da @ alpha) - 2.0 * np.einsum("ij,ij->", tri, da) + diag @ np.diagonal(da) for da in parts]
        return 0.5 * np.array([*terms, (alpha * alpha - diag) @ noise_diag])


def _kron_matmul(a_yr: np.ndarray, a_ag: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(a_yr (x) a_ag) m for square factors and m with rows in year-major order."""
    n_yr, n_ag = a_yr.shape[0], a_ag.shape[0]
    rotated = (a_yr @ m.reshape(n_yr, -1)).reshape(n_yr, n_ag, -1)
    return a_ag @ rotated


class _GridWhitener:
    """W = Pi D^-1/2 (Q_yr (x) Q_ag)^T P for A = K_yr (x) K_ag + sigma^2 I over observed cells of a grid.

    ``k_yr`` and ``k_ag`` are the 1-D kernel tables over the grid's years and
    ages, eta^2 in ``k_ag``, and D = lambda_yr (x) lambda_ag + sigma^2 is kept
    as a (years, ages) array.  ``cells`` are the positions of the n rows among
    the grid's N cells, year-major, None when they are all of them in that order.
    P pads n rows to the N cells with zeros at the m missing ones, so
    W_f = D^-1/2 (Q_yr (x) Q_ag)^T whitens the full-grid A_f, which gives the
    missing cells the same noise.  With W_m = W_f E its columns at the missing
    cells and M = W_m^T W_m = L L^T, U = W_m L^-T has orthonormal columns and
    Pi = I - U U^T; by the partitioned inverse (*GPML* §A.3), W^T W = A^-1
    and log|A| = log|A_f| + log|M|.  W has N rows; with m = 0, Pi = I and P only permutes.
    Raises ``LinAlgError`` when an entry of D is not positive, as a failed
    Cholesky factorization does, or when M's Cholesky fails.
    """

    def __init__(self, k_yr: np.ndarray, k_ag: np.ndarray, sigma_sq: float, cells: Optional[np.ndarray] = None):
        lam_ag, self.q_ag = np.linalg.eigh(k_ag)
        lam_yr, self.q_yr = np.linalg.eigh(k_yr)
        d = (np.outer(lam_yr, lam_ag) + sigma_sq).ravel()
        if not d.min() > 0.0:
            raise np.linalg.LinAlgError("covariance has a non-positive eigenvalue")
        self.shape = (lam_yr.size, lam_ag.size)
        self.d = d.reshape(self.shape)
        self.sqrt_d = np.sqrt(d)[:, None]
        self.half_logdet = 0.5 * np.log(d).sum()
        self.cells, self.u = cells, None
        if cells is not None and cells.size < d.size:
            observed = np.zeros(d.size, dtype=bool)
            observed[cells] = True
            self.missing = np.flatnonzero(~observed)
            iy, ia = np.divmod(self.missing, self.shape[1])
            w_m = (self.q_yr[iy][:, :, None] * self.q_ag[ia][:, None, :]).reshape(iy.size, -1).T / self.sqrt_d
            chol = np.linalg.cholesky(w_m.T @ w_m)
            self.chol_inv = np.linalg.inv(chol)  # m x m and triangular: numpy has no triangular solve
            self.u = w_m @ self.chol_inv.T
            self.half_logdet += np.log(np.diagonal(chol)).sum()

    def _pad(self, r: np.ndarray) -> np.ndarray:
        """P r as an (N, k) array: r's rows at their cells, zero rows at the missing ones."""
        r = r.reshape(r.shape[0], -1)
        if self.cells is None:
            return r
        full = np.zeros((self.d.size, r.shape[1]))
        full[self.cells] = r
        return full

    def _whiten_full(self, full: np.ndarray) -> np.ndarray:
        """W_f full for an (N, k) array over every cell of the grid."""
        return _kron_matmul(self.q_yr.T, self.q_ag.T, full).reshape(self.d.size, -1) / self.sqrt_d

    def whiten(self, r: np.ndarray) -> np.ndarray:
        full = self._pad(r)
        white = self._whiten_full(full)
        if self.u is not None:
            # Pi W_f maps the missing rows to zero, so any values padded in there give the same W r; zeros leave
            # jumps whose whitened size, near 1e2 times the result's at low noise, would cancel in the projection.
            # Refill with the values that minimize |W_f full|, -M^-1 W_m^T W_f P r, and whiten again.
            full[self.missing] = -self.chol_inv.T @ (self.u.T @ white)
            white = self._whiten_full(full)
            white -= self.u @ (self.u.T @ white)
        return white.reshape(-1, *r.shape[1:])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A^-1 r = W^T W r, for a vector or an (n, k) matrix r."""
        full = _kron_matmul(self.q_yr, self.q_ag, self.whiten(r).reshape(self.d.size, -1) / self.sqrt_d)
        full = full.reshape(self.d.size, -1)
        return (full if self.cells is None else full[self.cells]).reshape(r.shape)

    def log_lik_grad(self, alpha: np.ndarray, noise_diag: np.ndarray, parts) -> np.ndarray:
        """½ (alpha^T dA alpha - tr(A^-1 dA)) for dA = t_yr (x) t_ag for each ``(t_ag, t_yr)`` in ``parts``, then
        for dA = diag(noise_diag), with no n x n array: tr(A_f^-1 dA) = e_yr^T D^-1 e_ag for e = diag(Q^T t Q)
        (Saatci 2011), less tr(V^T dA V) for V = W_f^T U = A_f^-1 E L^-T when cells are missing (*GPML* §A.3).
        """
        m, inv_d = self._pad(alpha).reshape(self.shape), 1.0 / self.d
        v = None if self.u is None else _kron_matmul(self.q_yr, self.q_ag, self.u / self.sqrt_d)  # (years, ages, m)
        terms = []
        for t_ag, t_yr in parts:
            e_yr, e_ag = (np.einsum("ij,ij->j", q, t @ q) for q, t in ((self.q_yr, t_yr), (self.q_ag, t_ag)))
            trace = e_yr @ inv_d @ e_ag - (0.0 if v is None else np.vdot(v, _kron_matmul(t_yr, t_ag, v)))
            terms.append(np.vdot(m, t_yr @ m @ t_ag) - trace)
        noise_trace = inv_d.sum() - (0.0 if v is None else np.vdot(v, v))
        return 0.5 * np.array([*terms, alpha * alpha @ noise_diag - noise_diag[0] * noise_trace])  # constant noise on a grid


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
    G_cho: Optional[np.ndarray] = field(repr=False)  # lower Cholesky factor of the GLS normal matrix
    basis_center: np.ndarray = field(repr=False)
    basis_scale: np.ndarray = field(repr=False)
    log_likelihood: float = float("nan")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def scaled_basis_matrix(self, xs: np.ndarray) -> np.ndarray:
        z = (np.asarray(xs, dtype=float).reshape(-1, 2) - self.basis_center) / self.basis_scale
        return means.basis_matrix(self.basis, z)


def _grid_cells(axes):
    """``((years, ages), cells)`` when the n rows ``kernels._axes`` describes are a grid: distinct (age, year) cells
    that miss at most ``MAX_MISSING_SHARE`` * n cells of the grid of their distinct ages and years.  Gives the counts
    of that grid and the rows' positions among its cells, year-major, None when the rows are all of them in that
    order; None when rows repeat a cell or miss more cells."""
    (ages, ia), (years, iy) = axes
    cells, size = ia + ages.size * iy, ages.size * years.size
    if not cells.size or size - cells.size > MAX_MISSING_SHARE * cells.size or np.bincount(cells).max() > 1:
        return None
    return (years.size, ages.size), (None if np.array_equal(cells, np.arange(size)) else cells)


def _jitter(hp: KernelHyperparams, noise_diag: np.ndarray) -> float:
    """Diagonal nugget for an interpolation-mode fit (some noise variance zero), else 0."""
    return JITTER_SCALE * hp.eta_sq if noise_diag.min() <= 0.0 else 0.0


class _Covariance:
    """The kernel-plus-noise matrix A over fixed inputs x, factorized at any hyperparameters.

    This is the one rule for which whitener represents A.  The grid kind is
    taken when the rows of x are distinct cells of the grid of their ages and
    years, in any order, missing at most m <= n / 4 of its cells
    (``_grid_cells``; ``shape`` and ``cells``), and the noise diagonal is
    constant and positive.  The dense Cholesky is taken otherwise, and also
    when an eigenvalue of the grid covariance is not positive or the Cholesky
    of the missing cells' M fails (``_GridWhitener``); M grows as m^2.  The
    distinct ages and years of x are found once; the 1-D tables over them are
    the grid's factors, or are gathered into an n x n buffer made on the first
    dense call, which the Cholesky factorizes in place: a dense whitener lasts
    until the next call.
    """

    def __init__(self, family: KernelFamily, x: np.ndarray):
        self.family = family
        self.axes = kernels._axes(x)
        self.shape, self.cells = _grid_cells(self.axes) or (None, None)
        self.buffer = self.grad_buffer = None

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
                return _GridWhitener(k_yr, k_ag, lo, self.cells), 0.0
            except np.linalg.LinAlgError:
                pass  # roundoff eigenvalues at or below zero, or M not positive definite: the dense factorization decides
        from scipy.linalg import cholesky

        a = self.dense(hp, noise_diag)
        # a is exactly symmetric, so its transpose is the same matrix in
        # Fortran order, which LAPACK factorizes in place
        return _CholeskyWhitener(cholesky(a.T, lower=True, overwrite_a=True)), _jitter(hp, noise_diag)

    def log_lik_grad(self, hp: KernelHyperparams, noise_diag: np.ndarray, whitener, alpha: np.ndarray) -> np.ndarray:
        """Gradient of the profiled log-likelihood in log theta_ag, log theta_yr, log eta^2 and log scale of the noise.

        ``whitener`` is this call's at ``hp`` (spent on the dense route), alpha =
        A^-1 (y - H beta_hat); each entry is ½ (alpha^T dA alpha - tr(A^-1 dA))
        (*GPML* eq. 5.9).  beta_hat maximizes the likelihood at fixed
        hyperparameters, so its own change drops out (envelope theorem).  The
        jitter, zero for positive noise, is not differentiated.
        """
        (k_ag, k_yr), (d_ag, d_yr) = (kernels._tables(self.family, hp, self.axes, self.axes, f, f) for f in (kernels._factor, kernels._dlog_factor))
        parts = [(d_ag, k_yr), (k_ag, d_yr), (k_ag, k_yr)]
        if isinstance(whitener, _GridWhitener):
            return whitener.log_lik_grad(alpha, noise_diag, parts)
        if self.grad_buffer is None:
            self.grad_buffer = np.empty((alpha.size,) * 2)
        return whitener.log_lik_grad(alpha, noise_diag, (kernels._gather(*p, self.axes, self.axes, out=self.grad_buffer) for p in parts))


def _profiled_gls(white: np.ndarray, half_logdet: float, n: int):
    """Solve the GLS and evaluate the profiled log-likelihood from whitened data.

    ``white`` is ``[y, H]``, the n responses and the (scaled) design matrix,
    whitened in one pass by any W with W^T W = A^-1 for the kernel-plus-noise
    matrix A (N >= n rows), and ``half_logdet`` is ½ log|A|.  Returns
    ``(g_cho, beta_scaled, log_lik)`` with g_cho the lower Cholesky factor of
    G = h_white^T h_white.  Raises ``ValueError`` when the GLS normal
    equations are singular.
    """
    y_white, h_white = white[:, 0], white[:, 1:]
    if h_white.shape[1]:
        g = h_white.T @ h_white
        try:
            g_cho = np.linalg.cholesky(g)
            if np.any(np.diagonal(g_cho) ** 2 <= GLS_PIVOT_TOL * np.diagonal(g)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise ValueError("GLS normal equations are singular; basis columns are collinear") from None
        beta_scaled = np.linalg.solve(g_cho.T, np.linalg.solve(g_cho, h_white.T @ y_white))
        resid_white = y_white - h_white @ beta_scaled
    else:
        g_cho, beta_scaled, resid_white = None, np.empty(0), y_white
    log_lik = float(-0.5 * resid_white @ resid_white - half_logdet - 0.5 * n * LOG_2PI)
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
    for name, values in (("inputs", x), ("responses", y), ("noise variances", noise_diag)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")

    p = means.basis_dim(basis)
    if n < p:
        raise ValueError(f"need at least {p} observations to fit a {p}-dimensional mean basis, got {n}")

    h_scaled, center, scale = means.design(basis, x)
    cov = _Covariance(family, x)
    try:
        whitener, jitter = cov(hp, noise_diag)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov.dense(hp, noise_diag)).min())
        raise FactorizationError(
            f"covariance-plus-noise matrix is not positive definite (smallest pivot {smallest:.6e})"
        ) from None
    white = whitener.whiten(np.column_stack([y, h_scaled]))
    g_cho, beta_scaled, log_lik = _profiled_gls(white, whitener.half_logdet, n)

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
        H_white=white[:, 1:],
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
    """Fit a universal-kriging model to a mortality table's trainable cells; no noise model means ``ConstantNoise(hp.sigma_sq)``."""
    noise_diag = None if noise is None else kernels.noise_diagonal(noise, table)
    return fit_gls_xy(table.inputs(), table.responses(), family, hp, basis=basis, noise=noise, noise_diag=noise_diag)


def _cross(gp: FittedGP, xs: np.ndarray, year_factor):
    """Prior covariance of the training values with M functionals at xs.

    The functionals map the surface in the year coordinate only, so the
    covariance is eta^2 k_ag(d_ag) ``year_factor(family, d_yr, theta_yr)``
    (``kernels._factor`` for point values): the (n, M) gather of the two
    tables, or, when the model has the grid whitener (holes or none) and
    ``_grid_cells`` takes xs, ``(c_yr, c_ag, cells)``: the tables as the factors
    of c_full = c_yr (x) c_ag over the model's whole grid and xs's bounding
    grid, and xs's positions among its cells, None when xs is all of them.
    """
    axes, q_axes = kernels._axes(gp.x), kernels._axes(xs)
    c_ag, c_yr = kernels._tables(gp.family, gp.hp, axes, q_axes, year_factor)
    q_grid = isinstance(gp.whitener, _GridWhitener) and _grid_cells(q_axes)
    return (c_yr, c_ag, q_grid[1]) if q_grid else kernels._gather(c_ag, c_yr, axes, q_axes)


def _whiten_kron(w: _GridWhitener, c_yr: np.ndarray, c_ag: np.ndarray, b: np.ndarray, want_gram: bool):
    """diag(v^T v), b^T v and (if wanted) v^T v for v = W_f (c_yr (x) c_ag) and an (N, k) b, never forming v.

    v = diag(s) (p (x) r) with p = Q_yr^T c_yr, r = Q_ag^T c_ag and s = D^-1/2,
    so each product is a few matmuls over the (year, age) axes.  With missing cells b holds U too (``_condition``).
    """
    p, r, inv_d = w.q_yr.T @ c_yr, w.q_ag.T @ c_ag, 1.0 / w.d
    sq_norms = ((p * p).T @ inv_d @ (r * r)).ravel()
    n_yr, n_ag = w.shape
    bs = b.reshape(n_yr, n_ag, -1) / w.sqrt_d.reshape(n_yr, n_ag, 1)
    t = (p.T @ bs.reshape(n_yr, -1)).reshape(p.shape[1], n_ag, -1)  # (Yq, A, k)
    bv = (t.transpose(0, 2, 1) @ r).transpose(1, 0, 2).reshape(bs.shape[2], sq_norms.size)
    gram = None
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
    normal matrix, the posterior covariance is prior - v^T v + w^T w with
    w = L^-1 u for G = L L^T, and ``cov`` is it when the (M, M) ``prior_cov``
    is given, else None.  From grid factors, v = Pi W_f c_full as Pi W_m = 0
    (*GPML* §A.3): the mean is c_full^T P alpha, H_white^T v = H_white^T W_f c_full
    as Pi H_white = H_white, and v^T v = (W_f c_full)^T W_f c_full - t^T t for
    t = U^T W_f c_full, all over the bounding grid, whose cells are then selected.
    """
    want_cov = prior_cov is not None
    if isinstance(c, tuple):
        grid, (c_yr, c_ag, cells) = gp.whitener, c
        mean = (c_yr.T @ grid._pad(gp.alpha).reshape(grid.shape) @ c_ag).ravel()
        b = gp.H_white if grid.u is None else np.hstack([gp.H_white, grid.u])
        sq_norms, bv, vtv = _whiten_kron(grid, c_yr, c_ag, b, want_cov)
        hv, t = np.split(bv, [gp.H_white.shape[1]])
        sq_norms -= np.einsum("ij,ij->j", t, t)
        vtv = vtv - t.T @ t if want_cov else None
        if cells is not None:
            mean, sq_norms, hv = mean[cells], sq_norms[cells], hv[:, cells]
            vtv = vtv[np.ix_(cells, cells)] if want_cov else None
    else:
        v = gp.whitener.whiten(c)
        mean = c.T @ gp.alpha
        sq_norms = np.einsum("ij,ij->j", v, v)
        hv = gp.H_white.T @ v
        vtv = v.T @ v if want_cov else None
    var = prior_var - sq_norms
    cov = prior_cov - vtv if want_cov else None
    if gp.basis is not None:
        mean = mean + hs @ gp.beta_scaled
        w = np.linalg.solve(gp.G_cho, hs.T - hv)
        var = var + np.einsum("ij,ij->j", w, w)
        if want_cov:
            cov = cov + w.T @ w
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
        var = np.diag(covariance)
    return PosteriorSummary(inputs=xs, mean=mean, variance=var, covariance=covariance)


def predict_observation(gp: FittedGP, x_star) -> PosteriorSummary:
    """Posterior of a future *observed* log rate: latent variance plus noise."""
    sigma_sq = kernels.observation_variance(gp.noise)
    post = predict(gp, x_star, want_covariance=False)
    return PosteriorSummary(inputs=post.inputs, mean=post.mean, variance=post.variance + sigma_sq)


def sample_paths(gp: FittedGP, x_star, n_paths: int, seed: int) -> np.ndarray:
    """Draw joint posterior trajectories of the latent surface.

    Each path is mean + R z, z drawn as ``default_rng(seed).standard_normal((M, n_paths))``, through the symmetric
    square root R = V sqrt(max(w, 0)) V^T of the posterior covariance C = V diag(w) V^T.  An eigenvalue below
    -``VARIANCE_TOL``, the bound each posterior variance is held to, raises ``FactorizationError``.
    Returns an (n_paths, M) array; deterministic for a given seed.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    post = predict(gp, x_star, want_covariance=True)
    w, v = np.linalg.eigh(post.covariance)
    smallest = w.min(initial=0.0)
    if smallest < -VARIANCE_TOL:
        raise FactorizationError(f"posterior covariance has eigenvalue {smallest:.6e} below -{VARIANCE_TOL:.0e}; not attributable to roundoff")
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    z = np.random.default_rng(seed).standard_normal((w.size, n_paths))
    return (post.mean[:, None] + root @ z).T


def predict_year_derivative(gp: FittedGP, x_star) -> PosteriorSummary:
    """Posterior of the year-derivative of the latent surface.

    The mean equals the analytic year-derivative of the predictive mean
    (including the trend contribution), and the variance carries the same
    trend-uncertainty correction as the surface posterior.
    """
    xs = np.asarray(x_star, dtype=float).reshape(-1, 2)
    d = _cross(gp, xs, kernels._dfactor)
    # year enters every basis linearly, so the rescaled basis's year-derivative is one row for all inputs
    dh = (means.basis_matrix(gp.basis, [[0, 1]]) - means.basis_matrix(gp.basis, [[0, 0]])) / gp.basis_scale[1]
    prior_var = gp.hp.eta_sq * kernels._d2factor(gp.family, 0.0, gp.hp.theta_yr)
    mean, var, _ = _condition(gp, d, np.broadcast_to(dh, (xs.shape[0], dh.shape[1])), prior_var)
    return PosteriorSummary(inputs=xs, mean=mean, variance=var)


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
    try:
        return fit_gls(table, family, hp, noise, basis).log_likelihood
    except FactorizationError as exc:
        warnings.warn(f"likelihood evaluation failed: {exc}", stacklevel=2)
        return float("-inf")
