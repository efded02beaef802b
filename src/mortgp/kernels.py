"""Covariance kernels over (age, year) inputs and observation-noise models.

Two stationary, anisotropic families are provided, both separable,
C(x, x') = eta^2 k(d_ag; theta_ag) k(d_yr; theta_yr), with the 1-D factor
exp(-d^2 / (2 theta^2)) (squared-exponential) or (1 + sqrt5 r + 5 r^2 / 3)
exp(-sqrt5 r), r = |d| / theta (Matern-5/2).  Every kernel array is gathered
from two small tables, the factor between the distinct ages and between the
distinct years of the two input sets: C[i, j] = eta^2 K_ag[ia_i, ja_j]
K_yr[iy_i, jy_j].  The squared-exponential additionally supports analytic
first and second derivatives in the year coordinate, which replace the year
table and drive the instantaneous mortality-improvement posterior.  Both
families give the factor's derivative in log theta, for the likelihood
gradient.  Derivatives are checked against central differences in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import MortalityTable

SQRT5 = math.sqrt(5.0)

# rows of the year factor that ``_gather`` multiplies in at a time
_GATHER_ROWS = 256


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


def _factor(family: KernelFamily, d, theta: float) -> np.ndarray:
    """Unit-variance 1-D kernel of the family at separations d for lengthscale theta."""
    r = np.abs(d) / theta
    if family is KernelFamily.SQUARED_EXPONENTIAL:
        return np.exp(-0.5 * r * r)
    if family is KernelFamily.MATERN52:
        return (1.0 + SQRT5 * r + (5.0 / 3.0) * r * r) * np.exp(-SQRT5 * r)
    raise ValueError(f"unknown kernel family {family!r}")


def _dlog_factor(family: KernelFamily, d, theta: float) -> np.ndarray:
    """Derivative of ``_factor`` in log theta: k r^2 (squared-exponential), (5/3) r^2 (1 + sqrt5 r) exp(-sqrt5 r) (Matern-5/2)."""
    r = np.abs(d) / theta
    if family is KernelFamily.MATERN52:
        return (5.0 / 3.0) * r * r * (1.0 + SQRT5 * r) * np.exp(-SQRT5 * r)
    return _factor(family, d, theta) * r * r


def _dfactor(family: KernelFamily, d, theta: float) -> np.ndarray:
    """Derivative of ``_factor`` at d = x - x' in x' (squared-exponential only)."""
    _require_differentiable(family)
    return _factor(family, d, theta) * d / theta**2


def _d2factor(family: KernelFamily, d, theta: float) -> np.ndarray:
    """Mixed second derivative of ``_factor`` at d = x - x' in x and x' (squared-exponential only).

    At d = 0, times eta^2, it is the prior variance of the year-derivative process, eta^2 / theta^2.
    """
    _require_differentiable(family)
    return _factor(family, d, theta) * (1.0 - (d / theta) ** 2) / theta**2


def _axes(X) -> tuple:
    """``((ages, ia), (years, iy))``: the distinct ages and years of X's rows and each row's index into them."""
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    return tuple(np.unique(X[:, k], return_inverse=True) for k in (0, 1))


def _tables(family: KernelFamily, hp: KernelHyperparams, axes, q_axes, year_factor=_factor, age_factor=_factor):
    """The ``age_factor`` age table, eta^2 included, and the ``year_factor`` year table between two ``_axes``."""
    (ages, _), (years, _) = axes
    (q_ages, _), (q_years, _) = q_axes
    k_ag = hp.eta_sq * age_factor(family, ages[:, None] - q_ages, hp.theta_ag)
    return k_ag, year_factor(family, years[:, None] - q_years, hp.theta_yr)


def _gather(t_ag: np.ndarray, t_yr: np.ndarray, axes, q_axes, out=None) -> np.ndarray:
    """(N, M) product t_ag[ia][:, ja] * t_yr[iy][:, jy] over the rows two ``_axes`` index, into ``out`` if given."""
    # the indices are in range by construction; mode="clip" lets np.take write into out unbuffered
    (_, ia), (_, iy) = axes
    (_, ja), (_, jy) = q_axes
    out = np.take(t_ag[:, ja], ia, axis=0, out=out, mode="clip")
    t_yr = t_yr[:, jy]
    for lo in range(0, iy.size, _GATHER_ROWS):  # row blocks keep the year factor's temporary small
        out[lo : lo + _GATHER_ROWS] *= t_yr[iy[lo : lo + _GATHER_ROWS]]
    return out


def _separable(family: KernelFamily, hp: KernelHyperparams, X, Xstar, year_factor) -> np.ndarray:
    """(N, M) eta^2 k_ag(d_ag) year_factor(d_yr) between the rows of X and Xstar."""
    axes, q_axes = _axes(X), _axes(Xstar)
    return _gather(*_tables(family, hp, axes, q_axes, year_factor), axes, q_axes)


def cov_matrix(family: KernelFamily, hp: KernelHyperparams, X) -> np.ndarray:
    """Full covariance matrix over a set of inputs (exactly symmetric)."""
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    if X.shape[0] == 0:
        raise ValueError("cov_matrix needs at least one input")
    return cross_cov(family, hp, X, X)


def cross_cov(family: KernelFamily, hp: KernelHyperparams, X, Xstar) -> np.ndarray:
    """(N, M) covariance between training inputs X and prediction inputs Xstar."""
    return _separable(family, hp, X, Xstar, _factor)


def _require_differentiable(family: KernelFamily) -> None:
    if family is not KernelFamily.SQUARED_EXPONENTIAL:
        raise NotImplementedError(
            f"{family.value} kernel does not support year-derivative operations; "
            "use the squared-exponential family"
        )


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
    if isinstance(model, ConstantNoise):
        return np.full(int(table.trainable.sum()), model.sigma_sq, dtype=float)
    if isinstance(model, DeltaMethodNoise):
        if not table.trainable.all():
            raise ValueError("delta-method noise requires every cell to have deaths > 0")
        e = table.exposure + 0.5 * table.deaths  # exposed to risk
        p = table.deaths / e
        return model.overdispersion * (1.0 - p) / (p * e)
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
