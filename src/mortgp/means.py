"""Parametric prior-mean families for universal kriging.

Three variants: intercept-only, linear in age and year, and linear plus a
quadratic age term.  Coefficients are reported on the raw (age, year) scale;
``basis_change_matrix`` provides the exact map between coefficients fitted on
affinely rescaled inputs and raw-scale coefficients, which the solvers use to
keep the normal equations well conditioned.
"""

from __future__ import annotations

import enum

import numpy as np


class MeanBasis(enum.Enum):
    INTERCEPT = "intercept"
    LINEAR = "linear"
    QUADRATIC_AGE = "quadratic"


def basis_dim(basis: MeanBasis | None) -> int:
    return basis_matrix(basis, [[0.0, 0.0]]).shape[1]


def basis_matrix(basis: MeanBasis | None, X) -> np.ndarray:
    """(N, p) design matrix; p = 0 when no basis is given (zero prior mean)."""
    X = np.asarray(X, dtype=float).reshape(-1, 2)
    n = X.shape[0]
    if basis is None:
        return np.empty((n, 0))
    ag, yr = X[:, 0], X[:, 1]
    ones = np.ones(n)
    if basis is MeanBasis.INTERCEPT:
        return ones[:, None]
    if basis is MeanBasis.LINEAR:
        return np.column_stack([ones, ag, yr])
    if basis is MeanBasis.QUADRATIC_AGE:
        return np.column_stack([ones, ag, yr, ag * ag])
    raise ValueError(f"unknown mean basis {basis!r}")


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
    are exactly ``M.T @ beta_s``.
    """
    if basis is None:
        return np.empty((0, 0))
    ca, cy = (float(v) for v in np.asarray(center, dtype=float).reshape(2))
    sa, sy = (float(v) for v in np.asarray(scale, dtype=float).reshape(2))
    if basis is MeanBasis.INTERCEPT:
        return np.array([[1.0]])
    if basis is MeanBasis.LINEAR:
        return np.array(
            [
                [1.0, 0.0, 0.0],
                [-ca / sa, 1.0 / sa, 0.0],
                [-cy / sy, 0.0, 1.0 / sy],
            ]
        )
    if basis is MeanBasis.QUADRATIC_AGE:
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [-ca / sa, 1.0 / sa, 0.0, 0.0],
                [-cy / sy, 0.0, 1.0 / sy, 0.0],
                [ca * ca / sa**2, -2.0 * ca / sa**2, 0.0, 1.0 / sa**2],
            ]
        )
    raise ValueError(f"unknown mean basis {basis!r}")
