import math

import numpy as np
import pytest

import mortgp.glm as glm_mod
from mortgp import (
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    MortalityTable,
    fit_gls,
    fit_poisson_glm,
    glm_predict,
    predict,
)
from mortgp.means import basis_matrix

from conftest import table_from_surface


def poisson_table(beta, ages, years, exposure, seed):
    """Deaths drawn from Poisson with log-rate h(x) . beta."""
    rng = np.random.default_rng(seed)
    age, year = (column.ravel() for column in np.meshgrid(ages, years))
    deaths = [rng.poisson(math.exp(beta[0] + beta[1] * a + beta[2] * y) * exposure) for a, y in zip(age.tolist(), year.tolist())]
    return MortalityTable(age, year, deaths, np.full(age.size, exposure))


class TestFitPoissonGlm:
    def test_saturated_single_cell_intercept(self):
        table = MortalityTable([60], [2000], [347.0], [52_000.0])
        fit = fit_poisson_glm(table, MeanBasis.INTERCEPT)
        assert fit.iterations < glm_mod.MAX_ITER  # a fit is returned only once IRLS converges; else it raises, as below
        assert fit.beta[0] == pytest.approx(math.log(347.0 / 52_000.0), abs=1e-10)

    def test_recovers_simulated_coefficients_within_3_se(self):
        true_beta = (-4.2, 0.045, -0.011)
        table = poisson_table(true_beta, range(0, 20), range(0, 10), exposure=1e5, seed=77)
        fit = fit_poisson_glm(table, MeanBasis.LINEAR)
        se = np.sqrt(np.diag(fit.cov_beta))
        for estimate, truth, err in zip(fit.beta, true_beta, se):
            assert abs(estimate - truth) < 3 * err

    def test_score_equations_satisfied(self):
        rng = np.random.default_rng(78)
        table = table_from_surface(
            range(50, 75), range(1999, 2012), lambda a, y: -9.0 + 0.09 * a + 1e-4 * a * a - 0.01 * (y - 2000) + 0.02 * rng.standard_normal()
        )
        fit = fit_poisson_glm(table, MeanBasis.QUADRATIC_AGE)
        x = np.column_stack((table.age, table.year)).astype(float)
        d = table.deaths
        mu = table.exposure * np.exp(glm_predict(fit, x))
        h = basis_matrix(MeanBasis.QUADRATIC_AGE, x)
        assert np.linalg.norm(h.T @ (d - mu)) / np.linalg.norm(h.T @ d) < 1e-6

    def test_deviance_monotone_over_iterations(self):
        table = poisson_table((-4.0, 0.05, -0.01), range(0, 15), range(0, 8), exposure=2e4, seed=79)
        fit = fit_poisson_glm(table, MeanBasis.LINEAR)
        assert np.all(np.diff(fit.deviance_trace) <= 1e-12)
        assert fit.deviance == fit.deviance_trace[-1]

    def test_zero_death_cells_participate(self):
        with pytest.warns(UserWarning):
            table = MortalityTable([60, 61, 62], [2000] * 3, [0.0, 5.0, 9.0], [1e4] * 3)
        fit = fit_poisson_glm(table, MeanBasis.INTERCEPT)
        assert fit.beta[0] == pytest.approx(math.log(14.0 / 3e4), abs=1e-8)

    def test_rank_deficiency_rejected(self):
        table = table_from_surface([60], range(2000, 2010), lambda a, y: -4.0)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_poisson_glm(table, MeanBasis.QUADRATIC_AGE)

    def test_non_convergence_raises_with_trace(self, monkeypatch):
        table = poisson_table((-4.0, 0.05, -0.01), range(0, 15), range(0, 8), exposure=2e4, seed=80)
        monkeypatch.setattr(glm_mod, "MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
            fit_poisson_glm(table, MeanBasis.LINEAR)


class TestGlmPredict:
    def test_saturated_fit_predicts_observed_log_rate(self):
        table = MortalityTable([60], [2000], [347.0], [52_000.0])
        fit = fit_poisson_glm(table, MeanBasis.INTERCEPT)
        assert glm_predict(fit, [[60.0, 2000.0]])[0] == pytest.approx(math.log(347.0 / 52_000.0), abs=1e-10)

    def test_matches_raw_basis_dot_product(self):
        table = poisson_table((-4.1, 0.04, -0.012), range(0, 18), range(0, 9), exposure=5e4, seed=81)
        fit = fit_poisson_glm(table, MeanBasis.LINEAR)
        xs = np.array([[3.0, 2.0], [10.5, 7.25]])
        np.testing.assert_allclose(glm_predict(fit, xs), basis_matrix(MeanBasis.LINEAR, xs) @ fit.beta, rtol=1e-9)

    def test_gp_beats_glm_out_of_sample_on_curved_surface(self):
        # surface with a non-polynomial age ripple: the GLM's quadratic trend
        # cannot track it, the GP's residual field can
        def f(age, year):
            return -5.0 + 0.03 * age + 0.15 * math.sin(0.6 * age) - 0.012 * (year - 2000)

        full = table_from_surface(range(50, 80), range(2000, 2012), f)
        from mortgp import SubsetSpec, subset

        train = subset(full, SubsetSpec.rectangle((2000, 2008), (50, 79)))
        test = subset(full, SubsetSpec.rectangle((2009, 2011), (50, 79)))

        glm_fit = fit_poisson_glm(train, MeanBasis.QUADRATIC_AGE)
        hp = KernelHyperparams(theta_ag=6.0, theta_yr=6.0, eta_sq=0.3, sigma_sq=1e-6)
        gp = fit_gls(train, KernelFamily.SQUARED_EXPONENTIAL, hp, basis=MeanBasis.QUADRATIC_AGE)

        xs, truth = test.inputs(), test.responses()
        rmse_glm = np.sqrt(np.mean((glm_predict(glm_fit, xs) - truth) ** 2))
        rmse_gp = np.sqrt(np.mean((predict(gp, xs).mean - truth) ** 2))
        assert rmse_gp < rmse_glm
