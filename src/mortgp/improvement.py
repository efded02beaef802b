"""Mortality-improvement analytics.

Four curve kinds over a fixed calendar year, indexed by age:

* ``observed``   -- raw year-over-year factors 1 - m(yr)/m(yr-1) from the data;
* ``backward_gp`` -- the same ratio 1 - exp(d) for the latent year difference
  d = f(yr) - f(yr-1), exact from d's Gaussian posterior (log-normal moments);
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


def _gaussian_curve(ages: np.ndarray, year: float, kind: str, mean: np.ndarray, sd: np.ndarray, level: float) -> ImprovementCurve:
    z = _quantile_z(level)
    return ImprovementCurve(
        ages=ages.astype(int), year=year, kind=kind, mean=mean, sd=sd, level=level, lo=mean - z * sd, hi=mean + z * sd
    )


def mi_back_observed(table: MortalityTable, year: int, ages=None) -> ImprovementCurve:
    """Raw year-over-year improvement 1 - m(age, year)/m(age, year-1).

    Ages without two trainable cells are omitted, with one warning per reason that lists them.
    """
    if ages is None:
        ages = table.ages()
    ages = np.asarray(ages, dtype=int)
    row = {cell: i for i, cell in enumerate(zip(table.age.tolist(), table.year.tolist()))}
    kept, values, omitted = [], [], {"a missing cell": [], "a zero-death cell": []}
    for age in ages.tolist():
        now, prev = row.get((age, int(year))), row.get((age, int(year) - 1))
        if now is None or prev is None:
            omitted["a missing cell"].append(age)
        elif not (table.trainable[now] and table.trainable[prev]):
            omitted["a zero-death cell"].append(age)
        else:
            kept.append(age)
            values.append(1.0 - np.exp(table.log_rate[now] - table.log_rate[prev]))
    if not kept:
        raise ValueError(f"no age has cells in both {year - 1} and {year}")
    for reason, skipped in omitted.items():
        if skipped:
            warnings.warn(f"{reason} in {year} or {year - 1}; omitted age(s) {', '.join(map(str, skipped))}", stacklevel=2)
    return ImprovementCurve(ages=np.array(kept), year=year, kind="observed", mean=np.array(values))


def mi_back_gp(gp: FittedGP, ages, year: int, level: float = 0.80) -> ImprovementCurve:
    """Posterior year-over-year improvement 1 - exp(d), exact.

    Each age's year difference d = f(age, year) - f(age, year - 1) has an
    exact Gaussian posterior N(mu, s^2), so exp(d) is log-normal: the mean is
    1 - exp(mu + s^2/2), the sd exp(mu + s^2/2) sqrt(expm1(s^2)), and the band
    maps d's quantiles mu -/+ z s through the decreasing 1 - exp, so d's upper
    quantile gives the factor's lower bound.
    """
    z = _quantile_z(level)
    ages = np.asarray(ages, dtype=float)
    mu, var = gp_mod._year_difference(gp, ages, year - 1, year)
    ratio = np.exp(mu + var / 2.0)  # E[exp(d)]
    sd = ratio * np.sqrt(np.expm1(var))
    half_width = z * np.sqrt(var)  # of d's band
    lo, hi = 1.0 - np.exp(mu + half_width), 1.0 - np.exp(mu - half_width)
    return ImprovementCurve(ages=ages.astype(int), year=year, kind="backward_gp", mean=1.0 - ratio, sd=sd, level=level, lo=lo, hi=hi)


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
