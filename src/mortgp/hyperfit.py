"""Maximum-likelihood estimation of kernel hyperparameters.

The profiled log marginal likelihood (trend coefficients solved by GLS at
every evaluation) of the chosen kernel family, squared-exponential or
Matern-5/2, is maximized over log-transformed hyperparameters with
multi-start Nelder-Mead.  Inputs are standardized internally so the optimizer
sees O(1) lengthscales; estimates are mapped back to raw age/year units.

When the trainable cells fill an age x year grid and the noise variance is
estimated, the objective whitens with ``gp``'s grid whitener (the Kronecker
structure of the kernel) and never builds an n x n matrix; otherwise it
factorizes the dense kernel.  The two agree within 1e-8 relative wherever the
noise is at least 1e-6 of eta^2.  The reported log-likelihood comes from
``gp.fit_gls`` at the best point, which picks its whitener by the same rule.

Restarts are independent and may run in threads; set MORTGP_THREADS (a
positive integer) to cap the pool.  Results are deterministic for a given
config and seed either way.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import cholesky
from scipy.optimize import minimize

from . import gp as gp_mod
from . import kernels, means
from .data import MortalityTable, make_standardizer
from .gp import FittedGP
from .kernels import ConstantNoise, DeltaMethodNoise, KernelFamily, KernelHyperparams, noise_diagonal
from .means import MeanBasis

# log-space proximity at which an estimate counts as pinned to its bound;
# Nelder-Mead with clipped bounds stalls slightly off the box edge
_BOUND_EPS = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Optimizer configuration; bounds are in raw input/output units."""

    n_restarts: int = 8
    theta_bounds: tuple[float, float] = (0.5, 100.0)
    eta_sq_bounds: tuple[float, float] = (1e-6, 1e2)
    sigma_sq_bounds: tuple[float, float] = (1e-10, 1.0)
    tol: float = 1e-7
    xatol: float = 1e-4
    max_iter: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        for name in ("theta_bounds", "eta_sq_bounds", "sigma_sq_bounds"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
                raise ValueError(f"{name} must be finite with 0 < lo < hi, got ({lo}, {hi})")


@dataclass
class RestartRecord:
    start: dict
    end: dict
    log_likelihood: float
    success: bool
    evaluations: int  # objective evaluations the optimizer made
    iterations: int  # optimizer iterations


@dataclass
class FitResult:
    hp: KernelHyperparams
    beta: np.ndarray
    log_likelihood: float
    restart_trace: list[RestartRecord]
    converged: bool  # the optimizer reported success for the best restart
    bound_hit: bool  # the best estimate lies on a bound of the search box
    family: KernelFamily
    basis: Optional[MeanBasis]
    noise: Union[ConstantNoise, DeltaMethodNoise]
    model: FittedGP = field(repr=False, default=None)


class _ProfiledLikelihood:
    """Profiled log marginal likelihood of either kernel family over standardized inputs.

    Each evaluation builds one of ``gp``'s two whiteners and feeds
    ``gp._whiten`` and the GLS and likelihood tail ``gp._profiled_gls``, both
    shared with ``gp.fit_gls_xy``.

    * Full grid with constant noise (the inputs are every pair of their
      distinct ages and years, in ``MortalityTable``'s (year, age) order, and
      sigma^2 is estimated): ``gp._GridWhitener`` over the 1-D kernels of
      the first year's ages and the first age's years, whose separations are
      computed once.  No n x n array is built.  The value agrees with the
      dense route within 1e-8 relative wherever the noise is at least 1e-6
      of eta^2; a non-positive eigenvalue of the covariance gives -inf, as a
      failed Cholesky does.
    * Anything else (a notched subset, zero-death holes, delta-method noise):
      the dense kernel, computed into an n x n workspace kept per thread
      between calls, and its Cholesky factor.
    """

    def __init__(self, family, x_std, y, basis, fixed_noise_diag):
        self.family = family
        self.y = y
        self.h = gp_mod._design(basis, x_std)
        self.yh = np.column_stack([y, self.h])
        self.fixed_noise_diag = fixed_noise_diag  # None => constant noise, last parameter
        self.estimate_sigma = fixed_noise_diag is None
        shape = gp_mod._grid_shape(x_std) if self.estimate_sigma else None
        if shape is not None:
            n_ag = shape[1]
            # separations over the ages of the first year and the years of the
            # first age; the other coordinate's separations are zero there
            self.grid = (
                kernels._separations(family, x_std[:n_ag], x_std[:n_ag]),
                kernels._separations(family, x_std[::n_ag], x_std[::n_ag]),
            )
        else:
            self.grid = None
            self.separations = kernels._separations(family, x_std, x_std)
            self.diag_idx = np.diag_indices(y.size)
            self._local = threading.local()

    def _grid_whitener(self, hp: KernelHyperparams, sigma_sq: float):
        unit = KernelHyperparams(hp.theta_ag, hp.theta_yr, 1.0)
        sep_ag, sep_yr = self.grid
        k_yr = kernels._cov_from_separations(self.family, unit, *sep_yr)
        k_ag = kernels._cov_from_separations(self.family, unit, *sep_ag)
        return gp_mod._GridWhitener(k_yr, k_ag, hp.eta_sq, sigma_sq)

    def _dense_whitener(self, hp: KernelHyperparams, noise):
        work = getattr(self._local, "work", None)
        if work is None:
            work = self._local.work = np.empty((4, self.y.size, self.y.size))
        a = kernels._cov_from_separations(self.family, hp, *self.separations, work=work)
        a[self.diag_idx] += noise
        # a is exactly symmetric, so its transpose is the same matrix in
        # Fortran order, which LAPACK factorizes in place
        return gp_mod._CholeskyWhitener(cholesky(a.T, lower=True, overwrite_a=True))

    def loglik(self, params: np.ndarray) -> float:
        theta_ag, theta_yr, eta_sq = np.exp(params[:3])
        hp = KernelHyperparams(theta_ag, theta_yr, eta_sq)
        noise = math.exp(params[3]) if self.estimate_sigma else self.fixed_noise_diag
        try:
            whitener = self._grid_whitener(hp, noise) if self.grid is not None else self._dense_whitener(hp, noise)
            return gp_mod._profiled_gls(*gp_mod._whiten(whitener, self.yh))[-1]
        except (np.linalg.LinAlgError, ValueError):
            return float("-inf")

    def __call__(self, params: np.ndarray) -> float:
        value = self.loglik(params)
        return 1e12 if not np.isfinite(value) else -value


def _heuristic_start(x_std, y, h, estimate_sigma, log_bounds):
    theta0 = [max(0.5 * np.ptp(x_std[:, 0]), 1e-3), max(0.5 * np.ptp(x_std[:, 1]), 1e-3)]
    if h.shape[1]:
        coef, *_ = np.linalg.lstsq(h, y, rcond=None)
        detrended = y - h @ coef
    else:
        detrended = y
    eta0 = max(float(np.var(detrended)), 1e-8)
    start = [math.log(theta0[0]), math.log(theta0[1]), math.log(eta0)]
    if estimate_sigma:
        start.append(math.log(1e-2 * eta0))
    return np.clip(start, log_bounds[:, 0], log_bounds[:, 1])


def _thread_cap() -> int:
    text = os.environ.get("MORTGP_THREADS", "1")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"MORTGP_THREADS must be a positive integer, got {text!r}")
    return value


def fit_mle(
    table: MortalityTable,
    family: KernelFamily = KernelFamily.SQUARED_EXPONENTIAL,
    basis: Optional[MeanBasis] = MeanBasis.INTERCEPT,
    noise: Union[str, DeltaMethodNoise] = "constant",
    config: FitConfig = FitConfig(),
) -> FitResult:
    """Best-of-restarts maximizer of the profiled log marginal likelihood.

    With ``noise="constant"`` the observation variance is estimated jointly;
    with a :class:`DeltaMethodNoise` the noise diagonal is fixed by the cell
    counts and only the three kernel parameters are optimized.
    """
    p = means.basis_dim(basis)
    x_raw = table.inputs()
    y = table.responses()
    if x_raw.shape[0] < p + 2:
        raise ValueError(f"need at least {p + 2} trainable cells, got {x_raw.shape[0]}")
    std = make_standardizer(table)
    x_std = std.apply(x_raw)
    sd = np.array([std.sd_ag, std.sd_yr])

    if isinstance(noise, str):
        if noise != "constant":
            raise ValueError(f"unknown noise mode {noise!r}; use 'constant' or a DeltaMethodNoise")
        fixed_diag = None
    elif isinstance(noise, DeltaMethodNoise):
        fixed_diag = noise_diagonal(noise, table)
    else:
        raise TypeError(f"noise must be 'constant' or DeltaMethodNoise, got {type(noise).__name__}")

    obj = _ProfiledLikelihood(family, x_std, y, basis, fixed_diag)
    estimate_sigma = obj.estimate_sigma

    # bounds in log space; theta bounds are per-coordinate images of the raw box
    rows = [
        (config.theta_bounds[0] / sd[0], config.theta_bounds[1] / sd[0]),
        (config.theta_bounds[0] / sd[1], config.theta_bounds[1] / sd[1]),
        config.eta_sq_bounds,
    ]
    if estimate_sigma:
        rows.append(config.sigma_sq_bounds)
    log_bounds = np.log(np.array(rows))

    rng = np.random.default_rng(config.seed)
    starts = [_heuristic_start(x_std, y, obj.h, estimate_sigma, log_bounds)]
    for _ in range(config.n_restarts - 1):
        starts.append(rng.uniform(log_bounds[:, 0], log_bounds[:, 1]))

    options = {"fatol": config.tol, "xatol": config.xatol, "adaptive": True}
    if config.max_iter is not None:
        options["maxiter"] = config.max_iter

    def run(start: np.ndarray):
        return minimize(obj, start, method="Nelder-Mead", bounds=log_bounds, options=options)

    n_workers = min(config.n_restarts, _thread_cap())
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(s) for s in starts]

    def raw_params(v: np.ndarray) -> dict:
        out = {
            "theta_ag": math.exp(v[0]) * sd[0],
            "theta_yr": math.exp(v[1]) * sd[1],
            "eta_sq": math.exp(v[2]),
        }
        if estimate_sigma:
            out["sigma_sq"] = math.exp(v[3])
        return out

    trace = []
    for start, res in zip(starts, results):
        value = float(-res.fun) if np.isfinite(res.fun) and res.fun < 1e12 else float("-inf")
        trace.append(
            RestartRecord(
                start=raw_params(start),
                end=raw_params(res.x),
                log_likelihood=value,
                success=bool(res.success),
                evaluations=int(res.nfev),
                iterations=int(res.nit),
            )
        )

    values = np.array([rec.log_likelihood for rec in trace])
    if not np.isfinite(values).any():
        raise gp_mod.FactorizationError("every restart failed covariance factorization")
    best_idx = int(np.argmax(values))
    best = results[best_idx]

    bound_hit = bool(np.any(np.abs(best.x - log_bounds[:, 0]) < _BOUND_EPS) or np.any(np.abs(best.x - log_bounds[:, 1]) < _BOUND_EPS))
    if bound_hit:
        warnings.warn("optimizer stopped at a hyperparameter bound; estimates may be degenerate", stacklevel=2)

    est = raw_params(best.x)
    if estimate_sigma:
        hp = KernelHyperparams(est["theta_ag"], est["theta_yr"], est["eta_sq"], est["sigma_sq"])
        noise_model = ConstantNoise(est["sigma_sq"])
    else:
        hp = KernelHyperparams(est["theta_ag"], est["theta_yr"], est["eta_sq"], 0.0)
        noise_model = noise

    model = gp_mod.fit_gls(table, family, hp, noise=noise_model, basis=basis)
    return FitResult(
        hp=hp,
        beta=model.beta,
        log_likelihood=model.log_likelihood,
        restart_trace=trace,
        converged=bool(best.success),
        bound_hit=bound_hit,
        family=family,
        basis=basis,
        noise=noise_model,
        model=model,
    )


@dataclass
class GridPoint:
    hp: KernelHyperparams
    log_likelihood: float
    ok: bool


def evaluate_grid(
    table: MortalityTable,
    family: KernelFamily,
    basis: Optional[MeanBasis],
    grid: Sequence[KernelHyperparams],
    noise: Optional[Union[ConstantNoise, DeltaMethodNoise]] = None,
) -> list[GridPoint]:
    """Log marginal likelihood at each grid point; failed factorizations are marked."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    out = []
    for hp in grid:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = gp_mod.log_marginal_likelihood(table, family, hp, noise=noise, basis=basis)
        out.append(GridPoint(hp=hp, log_likelihood=value, ok=math.isfinite(value)))
    return out
