"""Maximum-likelihood estimation of kernel hyperparameters.

The profiled log marginal likelihood (trend coefficients solved by GLS at
every evaluation) of the chosen kernel family, squared-exponential or
Matern-5/2, is maximized over log hyperparameters in a box by multi-start
L-BFGS-B with the analytic gradient.  The search runs over the log
lengthscales of the raw (age, year) inputs, in years: in log space a change of
input units only shifts the search, and the kernel and the rescaled trend
basis are already free of where the inputs sit.

Each evaluation factorizes through ``gp._Covariance``, the same rule
``gp.fit_gls`` follows: the grid (Kronecker) whitener when the trainable cells
fill an age x year grid, or miss at most m <= n / 4 of its cells (the
``subset2`` notch, zero-death holes; an exact missing-cell correction, whose
gradient subtracts tr(V^T dA V) over the m missing cells), and the noise is
constant and positive; the dense Cholesky otherwise, and when the grid
factorization fails.  The reported log-likelihood comes from ``gp.fit_gls``
at the best point.  Restarts run one after another; results are deterministic
for a given config and seed.

``scipy.optimize`` loads on first use, not at import, so that commands which
never fit (and ``import mortgp``) load no scipy: ``minimize`` is a plain
function that imports ``scipy.optimize.minimize`` when first called and
forwards to it.  ``fit_mle`` calls it by its module-global name, so a
replacement set on ``hyperfit.minimize`` is the one it calls.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import gp as gp_mod
from . import means
from .data import MortalityTable
from .gp import FittedGP
from .kernels import ConstantNoise, DeltaMethodNoise, KernelFamily, KernelHyperparams, noise_diagonal
from .means import MeanBasis

# log-space proximity at which an estimate counts as pinned to its bound; L-BFGS-B
# projects onto the box exactly, so the margin only adds optima within 0.1 % of one
_BOUND_EPS = 1e-3

# the search box, in raw input/output units, lengthscales in years
THETA_BOUNDS = (0.5, 100.0)
ETA_SQ_BOUNDS = (1e-6, 1e2)
SIGMA_SQ_BOUNDS = (1e-10, 1.0)
# L-BFGS-B stops where -log L falls by at most FTOL relative, or no projected-gradient entry exceeds GTOL
FTOL = 1e-9
GTOL = 1e-5


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class FitConfig:
    """The number of restarts and the seed of their random starts; the box and stopping rule are module constants."""

    n_restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")


@dataclass
class RestartRecord:
    start: dict
    end: dict
    log_likelihood: float
    success: bool
    evaluations: int  # objective evaluations the optimizer made
    failed_evaluations: int  # evaluations where A or the GLS was singular
    iterations: int  # optimizer iterations
    message: str  # the optimizer's exit message
    seconds: float  # wall time of the restart
    bound_hit: bool  # the end point lies on a bound of the search box


@dataclass
class FitResult:
    model: FittedGP  # the refit at the best estimate: its hp, beta, log_likelihood, family, basis and noise
    restart_trace: list[RestartRecord]
    converged: bool  # the best restart succeeded: the optimizer reported success and no evaluation failed
    bound_hit: bool  # the best estimate lies on a bound of the search box


class _ProfiledLikelihood:
    """Profiled log marginal likelihood of either kernel family over raw (age, year) inputs.

    A thin user of ``gp``, building the same arrays as ``gp.fit_gls_xy`` at
    the same hyperparameters: the rescaled design of ``means.design``, and one
    ``gp._Covariance`` per fit (``cov``) that factorizes A at each evaluation,
    keeping the distinct inputs and, from the first dense evaluation on, its
    n x n buffers; the whitener's ``whiten`` and ``half_logdet`` and
    ``gp._profiled_gls`` give the value and ``cov.log_lik_grad`` the gradient.
    A singular A or GLS gives -inf and counts in ``failures``.
    """

    def __init__(self, family, x, y, basis, fixed_noise_diag):
        self.h = means.design(basis, x)[0]
        self.yh = np.column_stack([y, self.h])
        self.estimate_sigma = fixed_noise_diag is None  # constant noise, the last parameter
        self.noise_diag = np.empty(y.size) if self.estimate_sigma else fixed_noise_diag
        self.cov = gp_mod._Covariance(family, x)
        self.failures = 0

    def loglik(self, params: np.ndarray, grad: bool = False):
        """The log-likelihood at params, -inf where A or the GLS is singular; with ``grad``, and its gradient (0 there)."""
        theta_ag, theta_yr, eta_sq = np.exp(params[:3])
        hp = KernelHyperparams(theta_ag, theta_yr, eta_sq)
        if self.estimate_sigma:
            self.noise_diag.fill(math.exp(params[3]))
        try:
            whitener, _ = self.cov(hp, self.noise_diag)
            _, beta, value = gp_mod._profiled_gls(whitener.whiten(self.yh), whitener.half_logdet, self.h.shape[0])
        except (np.linalg.LinAlgError, ValueError):
            self.failures += 1
            return (float("-inf"), np.zeros(params.size)) if grad else float("-inf")
        if not grad:
            return value
        alpha = whitener.solve(self.yh[:, 0] - self.h @ beta)
        return value, self.cov.log_lik_grad(hp, self.noise_diag, whitener, alpha)[: params.size]

    def __call__(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """The negated log-likelihood and its gradient, for ``minimize(jac=True)``."""
        value, grad = self.loglik(params, grad=True)
        return -value, -grad


def _heuristic_start(x, y, h, estimate_sigma, log_bounds):
    if h.shape[1]:
        coef, *_ = np.linalg.lstsq(h, y, rcond=None)
        detrended = y - h @ coef
    else:
        detrended = y
    eta0 = max(float(np.var(detrended)), 1e-8)
    start = [*np.log(0.5 * np.ptp(x, axis=0)), math.log(eta0)]
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
    x = table.inputs()
    y = table.responses()
    if x.shape[0] < p + 2:
        raise ValueError(f"need at least {p + 2} trainable cells, got {x.shape[0]}")
    if np.unique(x[:, 0]).size < 2 or np.unique(x[:, 1]).size < 2:
        raise ValueError("fit_mle needs at least 2 distinct ages and 2 distinct years")

    if isinstance(noise, str):
        if noise != "constant":
            raise ValueError(f"unknown noise mode {noise!r}; use 'constant' or a DeltaMethodNoise")
        fixed_diag = None
    elif isinstance(noise, DeltaMethodNoise):
        fixed_diag = noise_diagonal(noise, table)
    else:
        raise TypeError(f"noise must be 'constant' or DeltaMethodNoise, got {type(noise).__name__}")

    obj = _ProfiledLikelihood(family, x, y, basis, fixed_diag)
    estimate_sigma = obj.estimate_sigma
    names = ["theta_ag", "theta_yr", "eta_sq", "sigma_sq"][: 3 + estimate_sigma]
    bounds = [THETA_BOUNDS, THETA_BOUNDS, ETA_SQ_BOUNDS, SIGMA_SQ_BOUNDS]
    log_bounds = np.log(np.array(bounds[: len(names)]))

    rng = np.random.default_rng(config.seed)
    starts = [_heuristic_start(x, y, obj.h, estimate_sigma, log_bounds)]
    starts += [rng.uniform(log_bounds[:, 0], log_bounds[:, 1]) for _ in range(config.n_restarts - 1)]

    def params(v: np.ndarray) -> dict:
        return {name: math.exp(value) for name, value in zip(names, v)}

    trace = []
    for start in starts:
        t0, failures = time.perf_counter(), obj.failures
        res = minimize(obj, start, jac=True, method="L-BFGS-B", bounds=log_bounds, options={"ftol": FTOL, "gtol": GTOL})
        # a singular point has value inf and gradient 0; L-BFGS-B does not step back from
        # it in a line search and may report success at a point that is no optimum
        failed = obj.failures - failures
        trace.append(
            RestartRecord(
                params(start), params(res.x), float(-res.fun), success=bool(res.success) and not failed,
                evaluations=int(res.nfev), failed_evaluations=failed, iterations=int(res.nit),
                message=str(res.message), seconds=time.perf_counter() - t0,
                bound_hit=bool(np.any(np.abs(res.x - log_bounds.T) < _BOUND_EPS)),
            )
        )

    best = max(trace, key=lambda rec: rec.log_likelihood)
    if best.log_likelihood == float("-inf"):
        raise gp_mod.FactorizationError("every restart failed covariance factorization")
    if best.bound_hit:
        warnings.warn("optimizer stopped at a hyperparameter bound; estimates may be degenerate", stacklevel=2)

    hp = KernelHyperparams(**best.end)  # sigma_sq 0 when the noise is fixed
    noise_model = ConstantNoise(hp.sigma_sq) if estimate_sigma else noise
    model = gp_mod.fit_gls(table, family, hp, noise=noise_model, basis=basis)
    return FitResult(model, trace, converged=best.success, bound_hit=best.bound_hit)
