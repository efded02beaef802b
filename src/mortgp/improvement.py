"""Mortality-improvement analytics.

Four curve kinds over a fixed calendar year, indexed by age:

* ``observed``   -- raw year-over-year factors 1 - m(yr)/m(yr-1) from the data;
* ``backward_gp`` -- the same ratio 1 - exp(d) for the latent year difference
  d = f(yr) - f(yr-1), drawn from its exact 1-D posterior, by Monte Carlo;
* ``centered``   -- the symmetric difference quotient of the latent surface at
  yr +/- h, an exact Gaussian linear functional;
* ``derivative_gp`` -- the instantaneous improvement, minus the analytic
  year-derivative of the posterior surface, with analytic credible bands.

The three posterior kinds are linear functionals of the surface, conditioned
like a point prediction; none builds a covariance across ages."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gp as gp_mod
from .data import MortalityTable
from .gp import FittedGP, _quantile_z


@dataclass
class ImprovementCurve:
    """Improvement factors by age for one calendar year."""

    ages: np.ndarray
    year: float
    kind: str
    mean: np.ndarray
    sd: Optional[np.ndarray] = None
    level: Optional[float] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.ages = np.asarray(self.ages)
        self.mean = np.asarray(self.mean, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("improvement means must be finite")
        if self.sd is not None:
            self.sd = np.asarray(self.sd, dtype=float)
            if np.any(self.sd < 0):
                raise ValueError("improvement sd must be non-negative")


def backward_ratio_samples(mean: np.ndarray, sd: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """(A, n_samples) draws of 1 - exp(d) for year differences d ~ N(mean, sd**2), one row per age."""
    draws = rng.standard_normal((mean.size, n_samples))
    draws *= sd[:, None]
    draws += mean[:, None]
    np.exp(draws, out=draws)
    return np.subtract(1.0, draws, out=draws)


def _gaussian_curve(ages: np.ndarray, year: float, kind: str, mean: np.ndarray, sd: np.ndarray, level: float) -> ImprovementCurve:
    z = _quantile_z(level)
    return ImprovementCurve(
        ages=ages.astype(int), year=year, kind=kind, mean=mean, sd=sd, level=level, lo=mean - z * sd, hi=mean + z * sd
    )


def mi_back_observed(table: MortalityTable, year: int, ages=None) -> ImprovementCurve:
    """Raw year-over-year improvement 1 - m(age, year)/m(age, year-1)."""
    if ages is None:
        ages = table.ages()
    ages = np.asarray(ages, dtype=int)
    kept, values = [], []
    for age in ages:
        try:
            now = table.cell(int(age), int(year))
            prev = table.cell(int(age), int(year) - 1)
        except KeyError:
            warnings.warn(f"age {age}: missing cell in {year} or {year - 1}; omitted", stacklevel=2)
            continue
        if not (now.trainable and prev.trainable):
            warnings.warn(f"age {age}: zero-death cell in {year} or {year - 1}; omitted", stacklevel=2)
            continue
        kept.append(int(age))
        values.append(1.0 - np.exp(now.log_rate - prev.log_rate))
    if not kept:
        raise ValueError(f"no age has cells in both {year - 1} and {year}")
    return ImprovementCurve(ages=np.array(kept), year=year, kind="observed", mean=np.array(values))


def mi_back_gp(
    gp: FittedGP,
    ages,
    year: int,
    n_samples: int = 10_000,
    seed: int = 0,
    level: float = 0.80,
) -> ImprovementCurve:
    """Posterior year-over-year improvement, summarized by Monte Carlo.

    Each age draws the exact posterior of the one-dimensional year difference
    f(age, year) - f(age, year - 1); bands are pointwise empirical quantiles
    of the draws.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    _quantile_z(level)  # rejects a level outside (0, 1) before any work
    ages = np.asarray(ages, dtype=float)
    mu, var = gp_mod._year_difference(gp, ages, year - 1, year)
    draws = backward_ratio_samples(mu, np.sqrt(var), n_samples, np.random.default_rng(seed))
    lo, hi = np.quantile(draws, [(1.0 - level) / 2.0, (1.0 + level) / 2.0], axis=1)
    mean, sd = draws.mean(axis=1), draws.std(axis=1, ddof=1)
    return ImprovementCurve(ages=ages.astype(int), year=year, kind="backward_gp", mean=mean, sd=sd, level=level, lo=lo, hi=hi)


def mi_centered(gp: FittedGP, ages, year: float, h: float, level: float = 0.80) -> ImprovementCurve:
    """Centered-difference improvement -(f(yr+h) - f(yr-h)) / (2h), exact Gaussian."""
    if h <= 0:
        raise ValueError("step h must be positive")
    ages = np.asarray(ages, dtype=float)
    mean, var = gp_mod._year_difference(gp, ages, year - h, year + h)
    return _gaussian_curve(ages, year, "centered", -mean / (2.0 * h), np.sqrt(var) / (2.0 * h), level)


def mi_diff_gp(gp: FittedGP, ages, year: float, level: float = 0.80) -> ImprovementCurve:
    """Instantaneous improvement: the negated year-derivative posterior.

    The mean is exactly the analytic derivative of the predictive surface and
    the bands come from the derivative process's analytic variance.
    """
    ages = np.asarray(ages, dtype=float)
    pts = np.column_stack([ages, np.full(ages.size, float(year))])
    deriv = gp_mod.predict_year_derivative(gp, pts)
    return _gaussian_curve(ages, year, "derivative_gp", -deriv.mean, deriv.sd, level)
