"""Sequential model updating with newly available mortality data.

Hyperparameters are reused unchanged; the trend coefficients and the
covariance factorization are recomputed over the augmented data, so an update
is numerically identical to refitting from scratch with the same kernel.
Appending a full calendar year to a full grid keeps it a grid, so the refit
takes the grid whitener (see ``gp``); a partial year leaves holes, which the
grid whitener takes while they are at most a quarter of n cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp as gp_mod
from . import kernels
from .data import MortalityTable
from .gp import FittedGP, PosteriorSummary


def update(gp: FittedGP, new_cells: MortalityTable) -> FittedGP:
    """Fold new cells into a fitted model, keeping its hyperparameters fixed.

    New cells must be disjoint from the training cells, and a non-empty table
    must hold at least one trainable cell (deaths > 0); an empty one leaves
    the fit as it was.  Returns a new model; the original is untouched.
    """
    x_new = new_cells.inputs()
    if len(new_cells) and not x_new.size:
        raise ValueError(f"new data has no trainable cells: all {len(new_cells)} of its cells have zero deaths")
    # an (age, year) row as the complex number age + year i, so that rows compare as scalars
    clash = np.flatnonzero(np.isin(x_new[:, 0] + 1j * x_new[:, 1], gp.x[:, 0] + 1j * gp.x[:, 1]))
    if clash.size:
        raise ValueError(f"new cells overlap training data at (age, year) = {(int(x_new[clash[0], 0]), int(x_new[clash[0], 1]))}")

    x = np.vstack([gp.x, x_new])
    y = np.concatenate([gp.y, new_cells.responses()])
    noise_diag = np.concatenate([gp.noise_diag, kernels.noise_diagonal(gp.noise, new_cells)])
    order = np.lexsort((x[:, 0], x[:, 1]))  # (year, age) rows in model_updated.json; the whitener takes any order
    return gp_mod.fit_gls_xy(
        x[order], y[order], gp.family, gp.hp, basis=gp.basis, noise=gp.noise, noise_diag=noise_diag[order]
    )


@dataclass
class UpdateReport:
    """Posterior at probe points before and after an update."""

    probes: np.ndarray
    before: PosteriorSummary
    after: PosteriorSummary
    sd_delta: np.ndarray

    def __post_init__(self) -> None:
        worst = float(np.min(self.sd_delta))
        if worst < -1e-10:
            raise ValueError(
                f"posterior sd increased by {-worst:.3e} after conditioning on more data; "
                "hyperparameters were not held fixed or the update is inconsistent"
            )


def update_report(before: FittedGP, after: FittedGP, probes) -> UpdateReport:
    """Compare posterior summaries of two models at probe points."""
    probes = np.asarray(probes, dtype=float).reshape(-1, 2)
    post_before = gp_mod.predict(before, probes)
    post_after = gp_mod.predict(after, probes)
    return UpdateReport(
        probes=probes,
        before=post_before,
        after=post_after,
        sd_delta=post_before.sd - post_after.sd,
    )
