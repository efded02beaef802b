"""Seeded synthetic mortality tables for the benchmark workloads.

Each table is one draw of a squared-exponential Gaussian process around a
quadratic-in-age log-rate trend, observed with iid noise, at hyperparameters
near the published fit (theta_ag 15.8, theta_yr 15.5, eta^2 1.85,
sigma^2 2.8e-4).  Every cell has deaths > 0, so every cell is trainable.

The draw uses the Kronecker structure of the separable kernel on a full grid
(K = K_yr (x) K_ag), so a 101 x 41 surface costs two small eigendecompositions
rather than a 4141 x 4141 factorization.  Nothing here imports mortgp.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THETA_AG = 15.8
THETA_YR = 15.5
ETA_SQ = 1.85
SIGMA_SQ = 2.8e-4
EXPOSURE = 1e7

# trend: C0 + C_AGE (a - a_mid) + C_AGE2 (a - a_mid)^2 + C_YEAR (y - y_mid)
C0, C_AGE, C_AGE2, C_YEAR = -5.5, 0.085, 0.0004, -0.015
# highest log rate a table may hold; deaths < exposure needs log rate < 0
MAX_LOG_RATE = -0.5

FORECAST_YEARS = 6  # forecast horizon past the table
N_PATHS = 1000  # sample --n-paths
N_SAMPLES = 10_000  # improve --kind back --n-samples


@dataclass(frozen=True)
class Workload:
    name: str
    ages: tuple[int, int]  # inclusive
    years: tuple[int, int]  # inclusive; the table's years
    fit_blocks: tuple  # training cells of `mortgp fit`: ((y0, y1), (a0, a1)) blocks
    fit_subset: str  # the same cells as a `--subset` value
    restarts: int  # fit --restarts
    model_from_fit: bool  # False: downstream commands use a model the benchmark writes
    update_year: int
    update_ages: tuple[int, int]
    repeats: int  # passes of the downstream commands per round

    @property
    def age_grid(self) -> np.ndarray:
        return np.arange(self.ages[0], self.ages[1] + 1)


FULL_PAPER = (((1999, 2014), (50, 84)),)
# the notched subset2 preset: not a rectangle
SUBSET2 = (((1999, 2010), (50, 84)), ((2011, 2014), (50, 70)))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_fit", (50, 84), (1999, 2014), FULL_PAPER, "all", 6, True, 2015, (50, 84), 15),
        Workload("large_grid", (0, 100), (1975, 2014), SUBSET2, "subset2", 1, False, 2015, (0, 100), 1),
    )
}


def in_blocks(blocks, age: int, year: int) -> bool:
    return any(y0 <= year <= y1 and a0 <= age <= a1 for (y0, y1), (a0, a1) in blocks)


def _sqrt_kernel_1d(points: np.ndarray, theta: float) -> np.ndarray:
    d = points[:, None] - points[None, :]
    k = np.exp(-(d * d) / (2.0 * theta * theta))
    w, v = np.linalg.eigh(k)
    return v * np.sqrt(np.clip(w, 0.0, None))


def draw_surface(ages: np.ndarray, years: np.ndarray, seed: int) -> np.ndarray:
    """(len(years), len(ages)) observed log rates: trend + GP draw + noise."""
    rng = np.random.default_rng(seed)
    s_ag = _sqrt_kernel_1d(ages.astype(float), THETA_AG)
    s_yr = _sqrt_kernel_1d(years.astype(float), THETA_YR)
    z = rng.standard_normal((years.size, ages.size))
    g = np.sqrt(ETA_SQ) * (s_yr @ z @ s_ag.T)
    a = ages[None, :] - 0.5 * (ages[0] + ages[-1])
    yr = years[:, None] - 0.5 * (years[0] + years[-1])
    trend = C0 + C_AGE * a + C_AGE2 * a * a + C_YEAR * yr
    y = trend + g + np.sqrt(SIGMA_SQ) * rng.standard_normal(g.shape)
    # a constant shift lies in every mean basis's span, so it leaves each fit
    # unchanged apart from the intercept
    return y - max(0.0, float(y.max()) - MAX_LOG_RATE)


def write_table(path: Path, ages: np.ndarray, years: np.ndarray, log_rates: np.ndarray) -> None:
    """CSV in (year, age) order; deaths are real-valued counts at a fixed exposure."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["age", "year", "deaths", "exposure"])
        for j, year in enumerate(years):
            for i, age in enumerate(ages):
                out.writerow([int(age), int(year), repr(float(np.exp(log_rates[j, i]) * EXPOSURE)), repr(EXPOSURE)])


def generate(w: Workload, seed: int, outdir: Path) -> tuple[Path, Path]:
    """Write ``data.csv`` (the table) and ``new.csv`` (the update cells)."""
    ages = w.age_grid
    years = np.arange(w.years[0], max(w.years[1], w.update_year) + 1)
    y = draw_surface(ages, years, seed)
    in_table = years <= w.years[1]
    data = outdir / "data.csv"
    write_table(data, ages, years[in_table], y[in_table])
    row = int(np.flatnonzero(years == w.update_year)[0])
    cols = (ages >= w.update_ages[0]) & (ages <= w.update_ages[1])
    new = outdir / "new.csv"
    write_table(new, ages[cols], years[row : row + 1], y[row : row + 1, cols])
    return data, new
