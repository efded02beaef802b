"""Dense universal-kriging reference, written independently of mortgp.

The model: log rates y = H beta + f + e with f ~ GP(0, k), k the anisotropic
squared-exponential kernel, and e ~ N(0, sigma^2 I).  beta is profiled out by
generalized least squares.  Every quantity here is computed from the raw
arrays with numpy and scipy.linalg: one Cholesky factor of K + sigma^2 I,
triangular solves, and the textbook kriging formulas.  The benchmark checks
the mortgp CLI outputs against these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri


@dataclass(frozen=True)
class Hyper:
    theta_ag: float
    theta_yr: float
    eta_sq: float
    sigma_sq: float

    def scaled(self, factors) -> "Hyper":
        return Hyper(*(v * f for v, f in zip(self.astuple(), factors)))

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.theta_ag, self.theta_yr, self.eta_sq, self.sigma_sq)


def z_value(level: float) -> float:
    """Two-sided standard-normal quantile for a central credible level."""
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def kernel(hp: Hyper, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    da = xa[:, None, 0] - xb[None, :, 0]
    dy = xa[:, None, 1] - xb[None, :, 1]
    return hp.eta_sq * np.exp(-0.5 * (da / hp.theta_ag) ** 2 - 0.5 * (dy / hp.theta_yr) ** 2)


class QuadraticTrend:
    """Columns 1, a, y, a^2 after centring and scaling age and year by the training range.

    Any affine change of these columns spans the same space, so predictions
    do not depend on the centring; it only keeps H^T K^-1 H well conditioned.
    """

    def __init__(self, x: np.ndarray):
        self.lo = x.min(axis=0)
        self.half = np.maximum(0.5 * (x.max(axis=0) - self.lo), 1.0)

    def design(self, x: np.ndarray) -> np.ndarray:
        u = (x - self.lo) / self.half - 1.0
        return np.column_stack([np.ones(len(x)), u[:, 0], u[:, 1], u[:, 0] ** 2])

    def raw_coefficients(self, beta: np.ndarray) -> np.ndarray:
        """Coefficients of 1, age, year, age^2 giving the same trend."""
        ca, cy = self.lo + self.half
        ha, hy = self.half
        b0, b1, b2, b3 = beta
        return np.array(
            [b0 - b1 * ca / ha - b2 * cy / hy + b3 * ca * ca / ha**2, b1 / ha - 2.0 * b3 * ca / ha**2, b2 / hy, b3 / ha**2]
        )


class UniversalKriging:
    """Posterior of the latent surface given (x, y) at fixed hyperparameters."""

    def __init__(self, x, y, hp: Hyper):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.hp = hp
        self.n = self.y.size
        self.trend = QuadraticTrend(self.x)
        k = kernel(hp, self.x, self.x)
        k[np.diag_indices(self.n)] += hp.sigma_sq
        self.chol = np.linalg.cholesky(k)
        del k
        h = self.trend.design(self.x)
        self.h_w = solve_triangular(self.chol, h, lower=True)
        y_w = solve_triangular(self.chol, self.y, lower=True)
        self.gram = self.h_w.T @ self.h_w
        self.beta = np.linalg.solve(self.gram, self.h_w.T @ y_w)
        r_w = y_w - self.h_w @ self.beta
        self.alpha = solve_triangular(self.chol.T, r_w, lower=False)
        self.loglik = float(-0.5 * r_w @ r_w - np.log(np.diag(self.chol)).sum() - 0.5 * self.n * math.log(2 * math.pi))

    def _pieces(self, xs: np.ndarray, k_star: np.ndarray, h_star: np.ndarray):
        v = solve_triangular(self.chol, k_star, lower=True)
        u = h_star.T - self.h_w.T @ v
        return v, u

    def mean_var(self, xs) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float).reshape(-1, 2)
        k_star = kernel(self.hp, self.x, xs)
        h_star = self.trend.design(xs)
        v, u = self._pieces(xs, k_star, h_star)
        mean = h_star @ self.beta + k_star.T @ self.alpha
        var = self.hp.eta_sq - (v * v).sum(axis=0) + (u * np.linalg.solve(self.gram, u)).sum(axis=0)
        return mean, var

    def mean_cov(self, xs) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float).reshape(-1, 2)
        k_star = kernel(self.hp, self.x, xs)
        h_star = self.trend.design(xs)
        v, u = self._pieces(xs, k_star, h_star)
        mean = h_star @ self.beta + k_star.T @ self.alpha
        cov = kernel(self.hp, xs, xs) - v.T @ v + u.T @ np.linalg.solve(self.gram, u)
        return mean, 0.5 * (cov + cov.T)

    def train_mean_var(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at the training inputs through K_f = K - sigma^2 I.

        mean = y - sigma^2 K^-1 r and var = sigma^2 - sigma^4 diag(P), with
        P = K^-1 - K^-1 H (H^T K^-1 H)^-1 H^T K^-1; one triangular inverse
        replaces an n x n triangular solve.
        """
        s2 = self.hp.sigma_sq
        l_inv, info = dtrtri(self.chol, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtri failed with info {info}")
        diag_kinv = (l_inv * l_inv).sum(axis=0)
        del l_inv
        kinv_h = solve_triangular(self.chol.T, self.h_w, lower=False)
        diag_corr = (kinv_h * np.linalg.solve(self.gram, kinv_h.T).T).sum(axis=1)
        mean = self.y - s2 * self.alpha
        var = s2 - s2 * s2 * (diag_kinv - diag_corr)
        return mean, var


def profiled_loglik(x, y, hp: Hyper) -> float:
    return UniversalKriging(x, y, hp).loglik
