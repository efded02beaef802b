"""Gaussian-process smoothing, forecasting, and improvement-factor analytics
for two-dimensional (age, year) mortality surfaces."""

__version__ = "0.1.0"

from .data import (
    MortalityTable,
    SubsetSpec,
    load_table,
    save_table,
    subset,
)
from .glm import GlmFit, fit_poisson_glm, glm_predict
from .gp import (
    FactorizationError,
    FittedGP,
    PosteriorSummary,
    fit_gls,
    fit_gls_xy,
    log_marginal_likelihood,
    predict,
    predict_observation,
    predict_year_derivative,
    sample_paths,
)
from .hyperfit import FitConfig, FitResult, fit_mle
from .improvement import ImprovementCurve, mi_back_gp, mi_back_observed, mi_centered, mi_diff_gp
from .kernels import (
    ConstantNoise,
    DeltaMethodNoise,
    KernelFamily,
    KernelHyperparams,
    cov_matrix,
    cross_cov,
    noise_diagonal,
)
from .means import MeanBasis, basis_matrix
from .serialize import load_model, save_model
from .updating import UpdateReport, update, update_report

__all__ = [
    "MortalityTable",
    "SubsetSpec",
    "load_table",
    "save_table",
    "subset",
    "GlmFit",
    "fit_poisson_glm",
    "glm_predict",
    "FactorizationError",
    "FittedGP",
    "PosteriorSummary",
    "fit_gls",
    "fit_gls_xy",
    "log_marginal_likelihood",
    "predict",
    "predict_observation",
    "predict_year_derivative",
    "sample_paths",
    "FitConfig",
    "FitResult",
    "fit_mle",
    "ImprovementCurve",
    "mi_back_gp",
    "mi_back_observed",
    "mi_centered",
    "mi_diff_gp",
    "ConstantNoise",
    "DeltaMethodNoise",
    "KernelFamily",
    "KernelHyperparams",
    "cov_matrix",
    "cross_cov",
    "noise_diagonal",
    "MeanBasis",
    "basis_matrix",
    "load_model",
    "save_model",
    "UpdateReport",
    "update",
    "update_report",
]
