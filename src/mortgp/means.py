"""Parametric prior-mean families for universal kriging: the first p of the
columns [1, age, year, age^2], intercept-only (p = 1), linear in age and year
(p = 3), and linear plus a quadratic age term (p = 4).  Coefficients are
reported on the raw (age, year) scale; ``basis_change_matrix`` gives the exact
map to them from coefficients fitted on affinely rescaled inputs, which the
solvers use to keep the normal equations well conditioned.
"""

from __future__ import annotations

import enum

import numpy as np


class MeanBasis(enum.Enum):
    INTERCEPT = "intercept"
    LINEAR = "linear"
    QUADRATIC_AGE = "quadratic"


# the number of leading columns of [1, age, year, age^2] each basis keeps; no basis is a zero prior mean
_DIMS = {None: 0, MeanBasis.INTERCEPT: 1, MeanBasis.LINEAR: 3, MeanBasis.QUADRATIC_AGE: 4}


def basis_dim(basis: MeanBasis | None) -> int:
    return _DIMS[basis]


def basis_matrix(basis: MeanBasis | None, X) -> np.ndarray:
    """(N, p) design matrix: the first p of the columns [1, age, year, age^2]."""
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    h = np.column_stack([np.ones(X.shape[0]), X, X[:, 0] * X[:, 0]])
    return np.ascontiguousarray(h[:, : _DIMS[basis]])  # C order for every p, as BLAS sees a full design


def design(basis: MeanBasis | None, x: np.ndarray):
    """``(h, center, scale)``: the design matrix over the (N, 2) inputs x mapped by (x - center) / scale,
    checked for full column rank, with center the column means and scale the sample (ddof 1) standard
    deviations; a constant column, or a single row, gets scale 1 and passes through unscaled."""
    center = x.mean(axis=0)
    scale = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.ones(2)
    scale = np.where(scale > 0, scale, 1.0)
    h = basis_matrix(basis, (x - center) / scale)
    if h.shape[1] and np.linalg.matrix_rank(h) < h.shape[1]:
        raise ValueError("mean basis design matrix is rank deficient on these inputs")
    return h, center, scale


def basis_change_matrix(basis: MeanBasis | None, center, scale) -> np.ndarray:
    """Matrix M with h_scaled(x) = M h_raw(x), for inputs mapped by (x - center) / scale.

    If beta_s solves the fit in scaled coordinates, the raw-scale coefficients
    are exactly ``M.T @ beta_s``.  The map of all four columns is lower
    triangular, so its leading p x p block maps the first p of them.
    """
    ca, cy = (float(v) for v in np.asarray(center, dtype=float).reshape(2))
    sa, sy = (float(v) for v in np.asarray(scale, dtype=float).reshape(2))
    m = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [-ca / sa, 1.0 / sa, 0.0, 0.0],
            [-cy / sy, 0.0, 1.0 / sy, 0.0],
            [ca * ca / sa**2, -2.0 * ca / sa**2, 0.0, 1.0 / sa**2],
        ]
    )
    p = _DIMS[basis]
    return np.ascontiguousarray(m[:p, :p])
