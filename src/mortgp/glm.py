"""Poisson log-link GLM baseline with an exposure offset.

Deaths are modeled as Poisson with rate ``exposure * exp(h(x) . beta)`` and
the coefficients are found by iteratively reweighted least squares with
step-halving.  Zero-death cells are legitimate observations here (unlike in
the log-rate regression) and are included in the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import means
from .data import MortalityTable
from .means import MeanBasis

# IRLS stops when the deviance changes by at most TOL relative, and fails after MAX_ITER iterations
MAX_ITER = 100
TOL = 1e-9


@dataclass
class GlmFit:
    basis: MeanBasis
    beta: np.ndarray
    deviance: float
    iterations: int
    deviance_trace: list[float] = field(repr=False)
    cov_beta: np.ndarray = field(repr=False)
    beta_scaled: np.ndarray = field(repr=False)
    center: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)


def _deviance(d: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(d > 0, d * np.log(np.where(d > 0, d, 1.0) / mu), 0.0)
    return float(2.0 * np.sum(term - (d - mu)))


def fit_poisson_glm(table: MortalityTable, basis: MeanBasis) -> GlmFit:
    """IRLS fit of the Poisson death-count model with offset log(exposure)."""
    if not len(table):
        raise ValueError("cannot fit a GLM to an empty table")
    x = np.column_stack((table.age, table.year)).astype(float)
    d = table.deaths
    offset = np.log(table.exposure)

    p = means.basis_dim(basis)
    if x.shape[0] < p:
        raise ValueError(f"need at least {p} cells to fit a {p}-parameter GLM")
    h, center, scale = means.design(basis, x)

    # saturated-ish start; the first WLS solve is accepted unconditionally
    mu = d + 0.5
    eta = np.log(mu)
    beta = None
    dev = np.inf
    trace = []

    for iterations in range(1, MAX_ITER + 1):
        w_sqrt = np.sqrt(mu)
        z = eta - offset + (d - mu) / mu
        beta_new, *_ = np.linalg.lstsq(h * w_sqrt[:, None], z * w_sqrt, rcond=None)

        if beta is None:
            candidate = beta_new
            eta_c = h @ candidate + offset
            mu_c = np.exp(eta_c)
            dev_c = _deviance(d, mu_c)
            if not np.isfinite(dev_c):
                raise RuntimeError("IRLS diverged on the first iteration")
        else:
            # step-halving: retreat toward the previous iterate if deviance rises
            step = 1.0
            for _ in range(30):
                candidate = beta + step * (beta_new - beta)
                eta_c = h @ candidate + offset
                mu_c = np.exp(eta_c)
                dev_c = _deviance(d, mu_c)
                if np.isfinite(dev_c) and dev_c <= dev + 1e-12:
                    break
                step *= 0.5
            else:
                raise RuntimeError(f"IRLS step-halving failed at iteration {iterations}; deviance trace {trace}")

        trace.append(dev_c)
        if beta is not None and abs(dev - dev_c) <= TOL * max(abs(dev_c), 1e-8):
            beta, dev = candidate, dev_c
            break
        beta, eta, mu, dev = candidate, eta_c, mu_c, dev_c
    else:
        raise RuntimeError(f"IRLS did not converge in {MAX_ITER} iterations; deviance trace {trace}")

    m = means.basis_change_matrix(basis, center, scale)
    fisher = (h * mu[:, None]).T @ h
    cov_scaled = np.linalg.inv(fisher)
    return GlmFit(
        basis=basis,
        beta=m.T @ beta,
        deviance=dev,
        iterations=iterations,
        deviance_trace=trace,
        cov_beta=m.T @ cov_scaled @ m,
        beta_scaled=beta,
        center=center,
        scale=scale,
    )


def glm_predict(fit: GlmFit, x_star) -> np.ndarray:
    """Predicted log rate h(x) . beta at new inputs."""
    xs = np.asarray(x_star, dtype=float).reshape(-1, 2)
    h = means.basis_matrix(fit.basis, (xs - fit.center) / fit.scale)
    return h @ fit.beta_scaled
