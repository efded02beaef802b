"""Covariance kernels over (age, year) inputs and observation-noise models.

Two stationary, anisotropic families are provided: the squared-exponential

    C(x, x') = eta^2 * exp(-(d_ag)^2 / (2 theta_ag^2) - (d_yr)^2 / (2 theta_yr^2))

and a separable Matern-5/2 product with per-coordinate lengthscales.  The
squared-exponential additionally supports analytic first and second
derivatives in the year coordinate, which drive the instantaneous
mortality-improvement posterior.  Derivative conventions are validated
against central finite differences in the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import MortalityTable

SQRT5 = math.sqrt(5.0)


class KernelFamily(enum.Enum):
    SQUARED_EXPONENTIAL = "squared_exponential"
    MATERN52 = "matern52"


@dataclass(frozen=True)
class KernelHyperparams:
    """Kernel hyperparameters: lengthscales, process variance, noise variance.

    Lengthscales are in raw input units (years of age, calendar years).
    """

    theta_ag: float
    theta_yr: float
    eta_sq: float
    sigma_sq: float = 0.0

    def __post_init__(self) -> None:
        for name in ("theta_ag", "theta_yr", "eta_sq", "sigma_sq"):
            v = float(getattr(self, name))  # repr() of a NumPy scalar is not a parseable number
            object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.theta_ag <= 0 or self.theta_yr <= 0 or self.eta_sq <= 0:
            raise ValueError("theta_ag, theta_yr and eta_sq must be strictly positive")
        if self.sigma_sq < 0:
            raise ValueError("sigma_sq must be non-negative")


def _separations(family: KernelFamily, X, Xstar) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) per-coordinate separations in the form ``_cov_from_separations`` takes.

    Squared differences for the squared-exponential, absolute differences for
    the Matern.  The MLE computes these once per fit and reuses them at every
    likelihood evaluation.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    Xstar = np.asarray(Xstar, dtype=float).reshape(-1, 2)
    d_ag = X[:, 0:1] - Xstar[None, :, 0]
    d_yr = X[:, 1:2] - Xstar[None, :, 1]
    if family is KernelFamily.SQUARED_EXPONENTIAL:
        return d_ag**2, d_yr**2
    if family is KernelFamily.MATERN52:
        return np.abs(d_ag), np.abs(d_yr)
    raise ValueError(f"unknown kernel family {family!r}")


def _matern52_1d(s: np.ndarray, theta: float, out, tmp, tmp2) -> np.ndarray:
    # one coordinate of the separable product:
    # (1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r) with r = |d| / theta
    r = np.divide(s, theta, out=tmp)
    poly = np.multiply(SQRT5, r, out=out)
    poly += 1.0
    quad = np.multiply(5.0, r, out=tmp2)
    quad *= r
    quad /= 3.0
    poly += quad
    decay = np.multiply(-SQRT5, r, out=quad)
    poly *= np.exp(decay, out=decay)
    return poly


def _cov_from_separations(family: KernelFamily, hp: KernelHyperparams, s_ag: np.ndarray, s_yr: np.ndarray, work=None) -> np.ndarray:
    """Covariance from the separations ``_separations`` returns for the same family.

    ``work``, if given, is four float arrays of the separations' shape; the
    covariance is written into ``work[0]`` and nothing is allocated.  The
    operations, and so the result to the last bit, are the same either way.
    """
    w0, w1, w2, w3 = (None,) * 4 if work is None else work
    if family is KernelFamily.SQUARED_EXPONENTIAL:
        # -s_ag / c_ag - s_yr / c_yr; s / -c is exactly -s / c
        out = np.divide(s_ag, -2.0 * hp.theta_ag**2, out=w0)
        out -= np.divide(s_yr, 2.0 * hp.theta_yr**2, out=w1)
        # in place with a workspace; without one a fresh array, as the closed
        # form allocates, which keeps callers' peak memory where it was
        out = np.exp(out, out=w0)
        out *= hp.eta_sq
        return out
    if family is KernelFamily.MATERN52:
        # (eta^2 * m_ag) * m_yr, in this order
        out = _matern52_1d(s_ag, hp.theta_ag, w0, w1, w2)
        out *= hp.eta_sq
        out *= _matern52_1d(s_yr, hp.theta_yr, w1, w2, w3)
        return out
    raise ValueError(f"unknown kernel family {family!r}")


def cov(family: KernelFamily, hp: KernelHyperparams, x, xp) -> float:
    """Covariance between two (age, year) inputs."""
    return float(cross_cov(family, hp, x, xp)[0, 0])


def cov_matrix(family: KernelFamily, hp: KernelHyperparams, X) -> np.ndarray:
    """Full covariance matrix over a set of inputs (exactly symmetric)."""
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    if X.shape[0] == 0:
        raise ValueError("cov_matrix needs at least one input")
    return cross_cov(family, hp, X, X)


def cross_cov(family: KernelFamily, hp: KernelHyperparams, X, Xstar) -> np.ndarray:
    """(N, M) covariance between training inputs X and prediction inputs Xstar."""
    return _cov_from_separations(family, hp, *_separations(family, X, Xstar))


def _require_differentiable(family: KernelFamily) -> None:
    if family is not KernelFamily.SQUARED_EXPONENTIAL:
        raise NotImplementedError(
            f"{family.value} kernel does not support year-derivative operations; "
            "use the squared-exponential family"
        )


def dcov_dyr(hp: KernelHyperparams, x, xp, family: KernelFamily = KernelFamily.SQUARED_EXPONENTIAL) -> float:
    """Derivative of cov(x, x') in the *second* argument's year coordinate.

    For the squared-exponential kernel this is
    ``C(x, x') * (x_yr - x'_yr) / theta_yr^2``; the sign convention is pinned
    by the finite-difference identity d/dh cov(x, x' + h e_yr) at h = 0.
    """
    return float(dcross_cov_dyr(hp, x, xp, family)[0, 0])


def d2cov_dyr2(hp: KernelHyperparams, x, xp, family: KernelFamily = KernelFamily.SQUARED_EXPONENTIAL) -> float:
    """Mixed second derivative of cov in both arguments' year coordinates.

    Equals ``C(x, x') * (1 - (d_yr / theta_yr)^2) / theta_yr^2``; at zero
    separation this is the prior variance of the year-derivative process,
    ``eta^2 / theta_yr^2``.
    """
    _require_differentiable(family)
    c = cov(KernelFamily.SQUARED_EXPONENTIAL, hp, x, xp)
    d_yr = float(np.asarray(x, dtype=float)[..., 1] - np.asarray(xp, dtype=float)[..., 1])
    return c * (1.0 - (d_yr / hp.theta_yr) ** 2) / hp.theta_yr**2


def dcross_cov_dyr(hp: KernelHyperparams, X, Xstar, family: KernelFamily = KernelFamily.SQUARED_EXPONENTIAL) -> np.ndarray:
    """(N, M) matrix of dcov_dyr(x_i, xstar_j), differentiated in xstar's year."""
    _require_differentiable(family)
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    Xstar = np.asarray(Xstar, dtype=float).reshape(-1, 2)
    c = cross_cov(KernelFamily.SQUARED_EXPONENTIAL, hp, X, Xstar)
    d_yr = X[:, 1:2] - Xstar[None, :, 1]
    return c * d_yr / hp.theta_yr**2


@dataclass(frozen=True)
class ConstantNoise:
    """Homoskedastic observation noise with a single variance."""

    sigma_sq: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_sq) or self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be non-negative and finite, got {self.sigma_sq}")


@dataclass(frozen=True)
class DeltaMethodNoise:
    """Cell-level log-rate variance ``od * (1 - p) / (p * E)``.

    ``p = deaths / E`` with exposed-to-risk ``E = exposure + deaths / 2``;
    ``od`` is a multiplicative overdispersion factor.
    """

    overdispersion: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.overdispersion) or self.overdispersion <= 0:
            raise ValueError(f"overdispersion must be positive, got {self.overdispersion}")


NoiseModel = Union[ConstantNoise, DeltaMethodNoise]


def noise_diagonal(model: NoiseModel, table: MortalityTable) -> np.ndarray:
    """Diagonal of the observation-noise matrix over a table's trainable cells."""
    cells = table.training_cells()
    if isinstance(model, ConstantNoise):
        return np.full(len(cells), model.sigma_sq, dtype=float)
    if isinstance(model, DeltaMethodNoise):
        if len(cells) != len(table):
            raise ValueError("delta-method noise requires every cell to have deaths > 0")
        out = np.empty(len(cells))
        for i, c in enumerate(cells):
            e = c.exposure_risk
            p = c.deaths / e
            out[i] = model.overdispersion * (1.0 - p) / (p * e)
        return out
    raise TypeError(f"unknown noise model {model!r}")


def observation_variance(model: NoiseModel) -> float:
    """Noise variance applied to a prediction point."""
    if isinstance(model, ConstantNoise):
        return model.sigma_sq
    if isinstance(model, DeltaMethodNoise):
        raise ValueError(
            "delta-method noise is undefined at prediction points without exposure; "
            "use a constant noise model for observation-level prediction"
        )
    raise TypeError(f"unknown noise model {model!r}")
