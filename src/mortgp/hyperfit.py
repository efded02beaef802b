"""Maximum-likelihood estimation of kernel hyperparameters.

The profiled log marginal likelihood (trend coefficients solved by GLS at
every evaluation) of the chosen kernel family, squared-exponential or
Matern-5/2, is maximized over log hyperparameters in a box by multi-start
L-BFGS-B with the analytic gradient.  Inputs are standardized internally so
the optimizer sees O(1) lengthscales; estimates map back to raw units.

Each evaluation factorizes through ``gp._Covariance``, the same rule
``gp.fit_gls`` follows: the grid (Kronecker) whitener when the trainable cells
fill an age x year grid and the noise is constant and positive, the dense
Cholesky otherwise.  The reported log-likelihood comes from ``gp.fit_gls`` at
the best point.  Restarts run one after another; results are deterministic
for a given config and seed.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.optimize import minimize

from . import gp as gp_mod
from . import means
from .data import MortalityTable, make_standardizer
from .gp import FittedGP
from .kernels import ConstantNoise, DeltaMethodNoise, KernelFamily, KernelHyperparams, noise_diagonal
from .means import MeanBasis

# log-space proximity at which an estimate counts as pinned to its bound; L-BFGS-B
# projects onto the box exactly, so the margin only adds optima within 0.1 % of one
_BOUND_EPS = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Optimizer configuration; bounds are in raw input/output units.

    L-BFGS-B ends a restart at ``ftol = 1e-2 * tol`` (relative decrease of -log L)
    or ``gtol = 0.1 * xatol`` (largest projected-gradient entry, nat per log
    unit), 1e-9 and 1e-5 at the defaults, or after ``max_iter`` iterations.
    """

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
    message: str  # the optimizer's exit message
    seconds: float  # wall time of the restart
    bound_hit: bool  # the end point lies on a bound of the search box


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

    A thin user of ``gp``: one ``gp._Covariance`` per fit (``cov``) factorizes
    A at each evaluation, keeping the distinct inputs and, from the first
    dense evaluation on, its n x n buffers; ``gp._whiten`` and
    ``gp._profiled_gls`` give the value, as in ``gp.fit_gls_xy``, and
    ``cov.log_lik_grad`` the gradient.  A singular A or GLS gives -inf.
    """

    def __init__(self, family, x_std, y, basis, fixed_noise_diag):
        self.h = gp_mod._design(basis, x_std)
        self.yh = np.column_stack([y, self.h])
        self.estimate_sigma = fixed_noise_diag is None  # constant noise, the last parameter
        self.noise_diag = np.empty(y.size) if self.estimate_sigma else fixed_noise_diag
        self.cov = gp_mod._Covariance(family, x_std)

    def loglik(self, params: np.ndarray, grad: bool = False):
        """The log-likelihood at params, -inf where A or the GLS is singular; with ``grad``, and its gradient (0 there)."""
        theta_ag, theta_yr, eta_sq = np.exp(params[:3])
        hp = KernelHyperparams(theta_ag, theta_yr, eta_sq)
        if self.estimate_sigma:
            self.noise_diag.fill(math.exp(params[3]))
        try:
            whitener, _ = self.cov(hp, self.noise_diag)
            _, beta, value = gp_mod._profiled_gls(*gp_mod._whiten(whitener, self.yh))
        except (np.linalg.LinAlgError, ValueError):
            return (float("-inf"), np.zeros(params.size)) if grad else float("-inf")
        if not grad:
            return value
        alpha = whitener.solve(self.yh[:, 0] - self.h @ beta)
        return value, self.cov.log_lik_grad(hp, self.noise_diag, whitener, alpha)[: params.size]

    def __call__(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """The negated log-likelihood and its gradient, for ``minimize(jac=True)``."""
        value, grad = self.loglik(params, grad=True)
        return -value, -grad


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

    options = {"ftol": 1e-2 * config.tol, "gtol": 0.1 * config.xatol}
    if config.max_iter is not None:
        options["maxiter"] = config.max_iter

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
    for start in starts:
        t0 = time.perf_counter()
        res = minimize(obj, start, jac=True, method="L-BFGS-B", bounds=log_bounds, options=options)
        # a start that never factorizes has a zero gradient, which is no convergence
        finite = bool(np.isfinite(res.fun))
        trace.append(
            RestartRecord(
                raw_params(start), raw_params(res.x), float(-res.fun) if finite else float("-inf"),
                success=bool(res.success) and finite, evaluations=int(res.nfev), iterations=int(res.nit),
                message=str(res.message), seconds=time.perf_counter() - t0,
                bound_hit=bool(np.any(np.abs(res.x - log_bounds.T) < _BOUND_EPS)),
            )
        )

    best = max(trace, key=lambda rec: rec.log_likelihood)
    if best.log_likelihood == float("-inf"):
        raise gp_mod.FactorizationError("every restart failed covariance factorization")
    if best.bound_hit:
        warnings.warn("optimizer stopped at a hyperparameter bound; estimates may be degenerate", stacklevel=2)

    est = best.end
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
        converged=best.success,
        bound_hit=best.bound_hit,
        family=family,
        basis=basis,
        noise=noise_model,
        model=model,
    )
