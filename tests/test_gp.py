import itertools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

import mortgp.gp as gp_mod
import mortgp.hyperfit as hyperfit
import mortgp.kernels as kernels_mod
from mortgp import (
    ConstantNoise,
    DeltaMethodNoise,
    FitConfig,
    FactorizationError,
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    cov_matrix,
    cross_cov,
    fit_gls,
    fit_gls_xy,
    fit_mle,
    load_model,
    log_marginal_likelihood,
    predict,
    predict_observation,
    predict_year_derivative,
    sample_paths,
    subset,
    update,
)
from mortgp.data import SUBSET_PRESETS
from mortgp.gp import _year_difference
from mortgp.means import basis_dim, basis_matrix
from mortgp.serialize import model_to_dict

from conftest import HOLE_MASKS, rows_of, simulate_gp_table, simulate_masked_table, table_from_surface, traced_memory

SQEXP = KernelFamily.SQUARED_EXPONENTIAL


def grid_inputs(n_ag, n_yr, scale=1.0):
    return np.array([[a * scale, y * scale] for y in range(n_yr) for a in range(n_ag)], dtype=float)


def dense_gls_beta(x, y, hp, basis, noise_diag):
    """Brute-force GLS coefficients via explicit matrix inverses."""
    a = cov_matrix(SQEXP, hp, x) + np.diag(noise_diag)
    a_inv = np.linalg.inv(a)
    h = basis_matrix(basis, x)
    return np.linalg.inv(h.T @ a_inv @ h) @ h.T @ a_inv @ y


class TestFitGls:
    def test_exact_linear_recovery(self):
        x = grid_inputs(5, 5)
        beta = np.array([2.0, 0.3, -0.1])
        y = basis_matrix(MeanBasis.LINEAR, x) @ beta
        hp = KernelHyperparams(theta_ag=1.0, theta_yr=1.0, eta_sq=1.0, sigma_sq=0.0)
        gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.LINEAR)
        np.testing.assert_allclose(gp.beta, beta, atol=1e-8)

    def test_intercept_on_constant_data(self):
        x = grid_inputs(4, 4)
        y = np.full(16, -3.5)
        hp = KernelHyperparams(theta_ag=2.0, theta_yr=2.0, eta_sq=0.5, sigma_sq=1e-4)
        gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT)
        assert gp.beta[0] == pytest.approx(-3.5, abs=1e-10)

    def test_beta_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.uniform(0, 10, size=(10, 2))
            y = rng.standard_normal(10)
            hp = KernelHyperparams(theta_ag=3.0, theta_yr=4.0, eta_sq=1.2, sigma_sq=1e-3)
            noise_diag = np.full(10, hp.sigma_sq)
            gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.LINEAR)
            np.testing.assert_allclose(gp.beta, dense_gls_beta(x, y, hp, MeanBasis.LINEAR, noise_diag), atol=1e-10)

    def test_gls_normal_equations_residual(self):
        rng = np.random.default_rng(22)
        x = np.column_stack([rng.uniform(0, 35, 60), rng.uniform(0, 16, 60)])
        y = -4.0 + 0.05 * x[:, 0] - 0.01 * x[:, 1] + 0.05 * rng.standard_normal(60)
        hp = KernelHyperparams(theta_ag=10.0, theta_yr=8.0, eta_sq=0.3, sigma_sq=1e-3)
        gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.QUADRATIC_AGE)
        a = cov_matrix(SQEXP, hp, x) + hp.sigma_sq * np.eye(60)
        h = basis_matrix(MeanBasis.QUADRATIC_AGE, x)
        lhs = h.T @ np.linalg.solve(a, y - h @ gp.beta)
        rhs = h.T @ np.linalg.solve(a, y)
        assert np.linalg.norm(lhs) / np.linalg.norm(rhs) < 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 600), scale=st.floats(1e-3, 1e3), other=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_identical_whitened_columns_rejected(self, n, scale, other, seed):
        # regression: LAPACK potrf alone passes this G about one time in three, on a pivot of roundoff size
        rng = np.random.default_rng(seed)
        col = scale * rng.standard_normal(n)
        h_white = np.column_stack([col, rng.standard_normal(n), col] if other else [col, col])
        with pytest.raises(ValueError, match=r"^GLS normal equations are singular; "):
            gp_mod._profiled_gls(np.column_stack([rng.standard_normal(n), h_white]), 0.0, n)

    def test_rank_deficiency_rejected(self):
        # a single age cannot identify a quadratic-age trend
        x = np.array([[60.0, y] for y in range(2000, 2012)])
        y = np.linspace(-4, -4.1, 12)
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=5.0, eta_sq=1.0, sigma_sq=1e-4)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.QUADRATIC_AGE)

    def test_factorization_failure_names_pivot(self):
        x = grid_inputs(3, 3)
        y = np.zeros(9)
        hp = KernelHyperparams(theta_ag=1.0, theta_yr=1.0, eta_sq=1.0, sigma_sq=0.0)
        with pytest.raises(FactorizationError, match="smallest pivot"):
            fit_gls_xy(x, y, SQEXP, hp, basis=None, noise_diag=np.full(9, -2.0))

    def test_table_and_array_paths_agree(self, small_table):
        hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.5, sigma_sq=1e-4)
        via_table = fit_gls(small_table, SQEXP, hp, basis=MeanBasis.LINEAR)
        via_arrays = fit_gls_xy(small_table.inputs(), small_table.responses(), SQEXP, hp, basis=MeanBasis.LINEAR)
        np.testing.assert_array_equal(via_table.beta, via_arrays.beta)


class TestPredict:
    def fitted(self, sigma_sq=0.0, basis=MeanBasis.INTERCEPT, n=10):
        hp = KernelHyperparams(theta_ag=1.5, theta_yr=1.5, eta_sq=1.0, sigma_sq=sigma_sq)
        rng = np.random.default_rng(23)
        x = grid_inputs(n, n)
        f = -4.0 + 0.1 * x[:, 0] - 0.02 * x[:, 1] + 0.2 * np.sin(0.3 * x[:, 0])
        y = f + math.sqrt(sigma_sq) * rng.standard_normal(x.shape[0]) if sigma_sq else f
        return fit_gls_xy(x, y, SQEXP, hp, basis=basis), x, y

    def test_interpolates_training_data_without_noise(self):
        gp, x, y = self.fitted(sigma_sq=0.0)
        post = predict(gp, x)
        np.testing.assert_allclose(post.mean, y, atol=1e-6)
        assert post.variance.max() < 1e-6 * gp.hp.eta_sq

    def test_reverts_to_prior_mean_far_from_data(self):
        gp, _, _ = self.fitted(sigma_sq=1e-4, basis=MeanBasis.LINEAR)
        far = np.array([[120.0, 150.0]])
        post = predict(gp, far)
        prior_mean = basis_matrix(MeanBasis.LINEAR, far) @ gp.beta
        assert abs(post.mean[0] - prior_mean[0]) < 1e-6 * math.sqrt(gp.hp.eta_sq)
        # variance inflates above the prior variance by the trend-uncertainty term
        assert post.variance[0] >= gp.hp.eta_sq * (1.0 - 1e-12)

    def test_matches_joint_gaussian_conditioning_oracle(self):
        # 5-point 1-D grid in year, 2 observed and 3 predicted
        hp = KernelHyperparams(theta_ag=3.0, theta_yr=2.0, eta_sq=1.3, sigma_sq=1e-3)
        pts = np.array([[60.0, float(y)] for y in range(5)])
        obs, pred = [0, 3], [1, 2, 4]
        rng = np.random.default_rng(24)
        y = rng.standard_normal(2)

        k = cov_matrix(SQEXP, hp, pts)
        k_oo = k[np.ix_(obs, obs)] + hp.sigma_sq * np.eye(2)
        k_po = k[np.ix_(pred, obs)]
        k_pp = k[np.ix_(pred, pred)]
        mean_oracle = k_po @ np.linalg.inv(k_oo) @ y
        cov_oracle = k_pp - k_po @ np.linalg.inv(k_oo) @ k_po.T

        gp = fit_gls_xy(pts[obs], y, SQEXP, hp, basis=None)
        post = predict(gp, pts[pred], want_covariance=True)
        np.testing.assert_allclose(post.mean, mean_oracle, atol=1e-10)
        np.testing.assert_allclose(post.covariance, cov_oracle, atol=1e-10)

    def test_universal_kriging_reduces_to_simple_kriging(self):
        gp, x, y = self.fitted(sigma_sq=1e-3)
        beta0 = gp.beta[0]
        sk = fit_gls_xy(x, y - beta0, SQEXP, gp.hp, basis=None)
        x_star = np.array([[2.5, 3.5], [11.0, 4.0], [20.0, 20.0]])
        uk_post = predict(gp, x_star, want_covariance=True)
        sk_post = predict(sk, x_star, want_covariance=True)
        np.testing.assert_allclose(uk_post.mean - beta0, sk_post.mean, atol=1e-10)
        # the trend-coefficient term only ever widens the posterior
        assert np.all(uk_post.variance >= sk_post.variance - 1e-12)

    def test_mean_linear_in_responses(self):
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=1.0, sigma_sq=1e-3)
        x = grid_inputs(6, 6)
        rng = np.random.default_rng(25)
        y1, y2 = rng.standard_normal(36), rng.standard_normal(36)
        alpha = 1.7
        x_star = rng.uniform(0, 6, size=(8, 2))
        m = lambda y: predict(fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.LINEAR), x_star).mean
        np.testing.assert_allclose(m(alpha * y1 + y2), alpha * m(y1) + m(y2), rtol=1e-9, atol=1e-11)

    def test_variance_bounded_by_prior_without_basis(self):
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=2.0, sigma_sq=1e-4)
        rng = np.random.default_rng(26)
        x = rng.uniform(0, 20, size=(40, 2))
        gp = fit_gls_xy(x, rng.standard_normal(40), SQEXP, hp, basis=None)
        post = predict(gp, rng.uniform(-10, 30, size=(200, 2)))
        assert post.variance.max() <= hp.eta_sq + 1e-10

    def test_outputs_invariant_under_row_permutation(self):
        rng = np.random.default_rng(27)
        cells_sorted = table_from_surface(range(60, 66), range(2000, 2006), lambda a, y: -4 + 0.05 * a - 0.01 * y)
        shuffled = list(range(len(cells_sorted)))
        rng.shuffle(shuffled)
        t2 = rows_of(cells_sorted, shuffled)
        hp = KernelHyperparams(theta_ag=3.0, theta_yr=3.0, eta_sq=0.5, sigma_sq=1e-4)
        x_star = np.array([[62.5, 2003.2], [70.0, 2010.0]])
        p1 = predict(fit_gls(cells_sorted, SQEXP, hp), x_star, want_covariance=True)
        p2 = predict(fit_gls(t2, SQEXP, hp), x_star, want_covariance=True)
        np.testing.assert_array_equal(p1.mean, p2.mean)
        np.testing.assert_array_equal(p1.covariance, p2.covariance)

    def test_covariance_diagonal_equals_variance(self):
        gp, x, _ = self.fitted(sigma_sq=1e-3)
        post = predict(gp, x[:7] + 0.3, want_covariance=True)
        assert np.max(np.abs(np.diag(post.covariance) - post.variance)) <= 1e-10

    def test_band_levels(self):
        gp, x, _ = self.fitted(sigma_sq=1e-3)
        post = predict(gp, x[:4])
        lo80, hi80 = post.band(0.80)
        lo95, hi95 = post.band(0.95)
        np.testing.assert_allclose(hi80 - post.mean, 1.2816 * post.sd, rtol=1e-4)
        np.testing.assert_allclose(hi95 - post.mean, 1.9600 * post.sd, rtol=1e-4)
        assert np.all(lo95 <= lo80)


class TestQuantileZ:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(level=st.floats(1e-6, 1.0 - 1e-6))
    def test_matches_scipy_ndtri(self, level):
        assert gp_mod._quantile_z(level) == pytest.approx(float(ndtri(0.5 + level / 2.0)), rel=1e-15, abs=0.0)


class TestYearDifference:
    """The year-difference functional against differencing the joint point posterior."""

    HP = KernelHyperparams(theta_ag=15.8, theta_yr=15.5, eta_sq=1.85, sigma_sq=2.8e-4)  # the published fit
    AGES = np.array([45.0, 50.0, 57.0, 63.0, 69.0, 75.0])

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("basis", [None, MeanBasis.INTERCEPT, MeanBasis.LINEAR, MeanBasis.QUADRATIC_AGE])
    @pytest.mark.parametrize("noise_ratio", [1e-6, 1.5e-4])
    def test_matches_stacked_point_posterior(self, family, basis, noise_ratio):
        # data drawn with the model's own noise; both routes scale the roundoff of alpha = A^-1 (y - H beta)
        hp = KernelHyperparams(self.HP.theta_ag, self.HP.theta_yr, self.HP.eta_sq, noise_ratio * self.HP.eta_sq)
        _, x, y = simulate_gp_table(range(50, 70), range(2000, 2012), hp, seed=17, family=family)
        gp = fit_gls_xy(x, y, family, hp, basis=basis)
        a = self.AGES.size
        # inside the data, at its last year, and extrapolated past it
        for year in (2005.5, 2011.0, 2016.0):
            for h in (1.0, 0.5, 0.01):
                mean, var = _year_difference(gp, self.AGES, year - h, year + h)
                pts = np.column_stack([np.tile(self.AGES, 2), np.repeat([year - h, year + h], a)])
                post = predict(gp, pts, want_covariance=True)
                c = post.covariance
                idx = np.arange(a)
                ref_var = c[idx, idx] + c[idx + a, idx + a] - 2.0 * c[idx, idx + a]
                np.testing.assert_allclose(mean, post.mean[a:] - post.mean[:a], rtol=0.0, atol=1e-10)
                np.testing.assert_allclose(var, ref_var, rtol=0.0, atol=1e-10)
                assert np.all(var >= 0.0)


class TestPredictObservation:
    def test_variance_gap_is_noise_variance(self):
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=1.0, sigma_sq=2.5e-3)
        rng = np.random.default_rng(28)
        x = grid_inputs(6, 6)
        gp = fit_gls_xy(x, rng.standard_normal(36), SQEXP, hp)
        x_star = rng.uniform(0, 10, size=(9, 2))
        latent = predict(gp, x_star)
        observed = predict_observation(gp, x_star)
        np.testing.assert_array_equal(observed.mean, latent.mean)
        np.testing.assert_allclose(observed.variance - latent.variance, hp.sigma_sq, rtol=0, atol=1e-15)

    def test_zero_noise_identical_to_latent(self):
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=1.0, sigma_sq=0.0)
        x = grid_inputs(5, 5)
        gp = fit_gls_xy(x, np.sin(x[:, 0]), SQEXP, hp)
        x_star = x[:5] + 0.25
        np.testing.assert_array_equal(predict_observation(gp, x_star).variance, predict(gp, x_star).variance)

    def test_in_sample_interval_width_dominated_by_noise(self):
        # heavy smoothing: long lengthscales leave s*_latent << sigma in-sample
        hp = KernelHyperparams(theta_ag=20.0, theta_yr=20.0, eta_sq=1.0, sigma_sq=1e-2)
        rng = np.random.default_rng(29)
        x = grid_inputs(10, 10)
        y = -4.0 + 0.02 * x[:, 0] + 0.1 * rng.standard_normal(100)
        gp = fit_gls_xy(x, y, SQEXP, hp)
        post = predict_observation(gp, x[44:46])
        lo, hi = post.band(0.95)
        width = hi - lo
        expected = 2 * norm.ppf(0.975) * math.sqrt(hp.sigma_sq)
        assert np.all(np.abs(width - expected) / expected < 0.05)

    def test_delta_noise_rejected_at_prediction_points(self, small_table):
        from mortgp import DeltaMethodNoise

        hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.5, sigma_sq=0.0)
        gp = fit_gls(small_table, SQEXP, hp, noise=DeltaMethodNoise(2.0))
        with pytest.raises(ValueError, match="constant"):
            predict_observation(gp, [[65.0, 2012.0]])


class TestSamplePaths:
    def fitted(self):
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=0.8, sigma_sq=1e-3)
        rng = np.random.default_rng(30)
        x = grid_inputs(8, 8)
        y = -4.0 + 0.05 * x[:, 0] - 0.01 * x[:, 1] + 0.03 * rng.standard_normal(64)
        return fit_gls_xy(x, y, SQEXP, hp)

    def test_deterministic_given_seed(self):
        gp = self.fitted()
        xs = np.array([[3.0, 9.5], [5.0, 10.5]])
        np.testing.assert_array_equal(sample_paths(gp, xs, 50, seed=7), sample_paths(gp, xs, 50, seed=7))
        assert not np.array_equal(sample_paths(gp, xs, 50, seed=7), sample_paths(gp, xs, 50, seed=8))

    def test_sample_mean_converges_to_posterior_mean(self):
        gp = self.fitted()
        xs = np.array([[2.5, 8.5], [6.0, 9.0], [4.0, 12.0]])
        post = predict(gp, xs)
        paths = sample_paths(gp, xs, 10_000, seed=11)
        se = post.sd / math.sqrt(10_000)
        assert np.all(np.abs(paths.mean(axis=0) - post.mean) < 3 * se + 1e-12)

    def test_degenerate_posterior_pins_paths_to_mean(self):
        # interpolating fit sampled at training points: covariance ~ jitter only
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=1.0, sigma_sq=0.0)
        x = grid_inputs(5, 5)
        y = np.cos(0.3 * x[:, 0]) - 4.0
        gp = fit_gls_xy(x, y, SQEXP, hp)
        paths = sample_paths(gp, x[:6], 1000, seed=3)
        assert np.max(np.abs(paths - y[:6])) < 1e-3

    def test_empirical_covariance_matches_posterior(self):
        gp = self.fitted()
        rng = np.random.default_rng(31)
        xs = rng.uniform(0, 10, size=(20, 2))
        post = predict(gp, xs, want_covariance=True)
        paths = sample_paths(gp, xs, 10_000, seed=13)
        emp = np.cov(paths.T)
        rel = np.linalg.norm(emp - post.covariance, "fro") / np.linalg.norm(post.covariance, "fro")
        assert rel < 0.05

    @staticmethod
    def stub_posterior(monkeypatch, eigenvalues, seed):
        """Make ``predict`` return mean -4 and the covariance Q diag(eigenvalues) Q^T for a random orthogonal Q."""
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))[0]
        cov = (q * eigenvalues) @ q.T
        stub = gp_mod.PosteriorSummary(np.zeros((len(eigenvalues), 2)), np.full(len(eigenvalues), -4.0), np.diag(cov), cov)
        monkeypatch.setattr(gp_mod, "predict", lambda gp, xs, want_covariance: stub)
        return stub

    def test_eigenvalue_below_tolerance_raises_naming_it(self, monkeypatch):
        self.stub_posterior(monkeypatch, [-1e-6, 0.1, 0.3, 0.6, 1.0], seed=6)
        with pytest.raises(FactorizationError, match=r"^posterior covariance has eigenvalue -1\.000000e-06 below -1e-10; "):
            sample_paths(None, np.zeros((5, 2)), 10, seed=1)

    def test_roundoff_eigenvalues_draw_paths_pinned_to_the_mean(self, monkeypatch):
        # a zero covariance up to roundoff, as at the training cells of a noiseless fit
        stub = self.stub_posterior(monkeypatch, [-1e-15, -4e-16, 0.0, 3e-16, 1e-15], seed=7)
        paths = sample_paths(None, np.zeros((5, 2)), 1000, seed=2)
        assert np.max(np.abs(paths - stub.mean)) < 1e-6

    def test_interpolating_fit_at_every_training_cell_is_pinned_to_its_data(self):
        # the covariance is about the 1e-10 jitter times I and its smallest eigenvalues are roundoff near -1e-15,
        # which a bound relative to the largest eigenvalue, 1e-10 here, would reject
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=1.0, sigma_sq=0.0)
        x = grid_inputs(10, 10)
        y = np.cos(0.3 * x[:, 0]) - 4.0
        paths = sample_paths(fit_gls_xy(x, y, SQEXP, hp), x, 200, seed=3)
        assert np.max(np.abs(paths - y)) < 1e-3


class TestResiduals:
    """In-sample residuals y - m_*(x)."""

    def test_interpolating_fit_has_zero_residuals(self):
        hp = KernelHyperparams(theta_ag=3.0, theta_yr=3.0, eta_sq=1.0, sigma_sq=0.0)
        x = grid_inputs(6, 6)
        y = np.sin(0.4 * x[:, 0]) + 0.1 * x[:, 1]
        gp = fit_gls_xy(x, y, SQEXP, hp)
        assert np.max(np.abs(gp.y - predict(gp, gp.x).mean)) < 1e-5

    def test_recovers_known_noise_scale(self):
        sigma = 0.02
        hp = KernelHyperparams(theta_ag=10.0, theta_yr=10.0, eta_sq=1.0, sigma_sq=sigma**2)
        table, x, y = simulate_gp_table(range(50, 85), range(1999, 2015), hp, seed=5)
        gp = fit_gls_xy(x, y, SQEXP, hp)
        res = gp.y - predict(gp, gp.x).mean
        assert res.size == 560
        assert abs(res.std() - sigma) / sigma < 0.15


class TestLogMarginalLikelihood:
    def test_scalar_case(self):
        hp = KernelHyperparams(theta_ag=1.0, theta_yr=1.0, eta_sq=0.7, sigma_sq=0.3)
        r = 0.4
        v = hp.eta_sq + hp.sigma_sq
        expected = -(r**2) / (2 * v) - math.log(v) / 2 - math.log(2 * math.pi) / 2
        value = fit_gls_xy([[0.0, 0.0]], [r], SQEXP, hp, basis=None).log_likelihood
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_determinant_oracle(self):
        rng = np.random.default_rng(34)
        for basis in (None, MeanBasis.INTERCEPT, MeanBasis.LINEAR):
            x = rng.uniform(0, 12, size=(40, 2))
            y = rng.standard_normal(40)
            hp = KernelHyperparams(theta_ag=5.0, theta_yr=3.0, eta_sq=0.9, sigma_sq=2e-3)
            a = cov_matrix(SQEXP, hp, x) + hp.sigma_sq * np.eye(40)
            a_inv = np.linalg.inv(a)
            if basis is None:
                resid = y
            else:
                h = basis_matrix(basis, x)
                beta = np.linalg.inv(h.T @ a_inv @ h) @ h.T @ a_inv @ y
                resid = y - h @ beta
            expected = -0.5 * resid @ a_inv @ resid - 0.5 * math.log(np.linalg.det(a)) - 20 * math.log(2 * math.pi)
            value = fit_gls_xy(x, y, SQEXP, hp, basis=basis).log_likelihood
            assert value == pytest.approx(expected, abs=1e-8)

    def test_output_scaling_shifts_by_jacobian(self):
        rng = np.random.default_rng(35)
        x = rng.uniform(0, 10, size=(25, 2))
        y = rng.standard_normal(25)
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=0.8, sigma_sq=1e-3)
        base = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT).log_likelihood
        alpha = 2.5
        hp_scaled = KernelHyperparams(hp.theta_ag, hp.theta_yr, alpha**2 * hp.eta_sq, alpha**2 * hp.sigma_sq)
        scaled = fit_gls_xy(x, alpha * y, SQEXP, hp_scaled, basis=MeanBasis.INTERCEPT).log_likelihood
        assert scaled == pytest.approx(base - 25 * math.log(alpha), rel=1e-10)

    def test_factorization_failure_returns_neg_inf_with_warning(self, monkeypatch):
        def not_positive_definite(self, hp, noise_diag):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp_mod._Covariance, "__call__", not_positive_definite)
        table = table_from_surface(range(60, 63), range(2000, 2003), lambda a, yr: -4.0)
        hp = KernelHyperparams(theta_ag=1.0, theta_yr=1.0, eta_sq=1.0, sigma_sq=1e-2)
        with pytest.warns(UserWarning, match="likelihood evaluation failed"):
            value = log_marginal_likelihood(table, SQEXP, hp, basis=None)
        assert value == -math.inf


def dense_route(fn, *args, **kwargs):
    """Call fn with the grid detection switched off, so every fit takes the dense Cholesky route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_mod, "_grid_cells", lambda x: None)
        return fn(*args, **kwargs)


def grid_xy(ages, years, seed=0):
    """Inputs for every (age, year) pair in (year, age) order and trend-plus-noise log rates."""
    rng = np.random.default_rng(seed)
    x = np.array([[a, y] for y in years for a in ages], dtype=float)
    y = -4.0 + 0.04 * (x[:, 0] - 60.0) - 0.01 * (x[:, 1] - 2000.0) + 0.05 * rng.standard_normal(x.shape[0])
    return x, y


def is_grid(gp):
    return isinstance(gp.whitener, gp_mod._GridWhitener)


def has_holes(gp):
    """The grid whitener over some of its grid's cells."""
    return is_grid(gp) and gp.whitener.u is not None


def assert_routes_agree(grid, dense, ages, years, seed=0):
    """Posteriors within 1e-10 absolute and the log-likelihood within 1e-8 relative."""
    assert is_grid(grid) and not is_grid(dense)
    assert grid.log_likelihood == pytest.approx(dense.log_likelihood, rel=1e-8)
    ages, years = np.asarray(ages, dtype=float), np.asarray(years, dtype=float)
    last = years[-1]
    rng = np.random.default_rng(seed)
    # within the data's ages: a quadratic trend extrapolated far in age has variances of 1e5,
    # where float64 roundoff alone exceeds 1e-10 absolute
    scattered = np.column_stack([rng.uniform(ages[0], ages[-1], 6), rng.uniform(years[0], last + 5, 6)])
    forecast = np.array([[a, y] for y in (last + 1, last + 4) for a in ages])
    queries = [
        (grid.x, False),  # the training cells: a grid query
        (forecast, True),  # a forecast grid
        (forecast[1:], True),  # a grid with a hole: its cells are selected from the bounding grid's posterior
        (scattered, True),  # not a grid: the cross-covariance is whitened densely
    ]
    for xs, want_covariance in queries:
        pg, pd = predict(grid, xs, want_covariance), predict(dense, xs, want_covariance)
        np.testing.assert_allclose(pg.mean, pd.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pg.variance, pd.variance, rtol=0, atol=1e-10)
        if want_covariance:
            np.testing.assert_allclose(pg.covariance, pd.covariance, rtol=0, atol=1e-10)
    if grid.family is SQEXP:
        at_last = np.column_stack([ages, np.full(ages.size, last)])
        dg, dd = predict_year_derivative(grid, at_last), predict_year_derivative(dense, at_last)
        np.testing.assert_allclose(dg.mean, dd.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dg.variance, dd.variance, rtol=0, atol=1e-10)
    for lo, hi in ((last - 1, last), (last - 0.01, last + 0.01), (last + 2, last + 3)):
        (mg, vg), (md, vd) = _year_difference(grid, ages, lo, hi), _year_difference(dense, ages, lo, hi)
        np.testing.assert_allclose(mg, md, rtol=0, atol=1e-10)
        np.testing.assert_allclose(vg, vd, rtol=0, atol=1e-10)


# the raw search box of fit_mle, and its corners where the noise is at least 1e-6 of eta^2
BOX = SimpleNamespace(theta_bounds=hyperfit.THETA_BOUNDS, eta_sq_bounds=hyperfit.ETA_SQ_BOUNDS, sigma_sq_bounds=hyperfit.SIGMA_SQ_BOUNDS)
BOX_CORNERS = [
    KernelHyperparams(t_ag, t_yr, eta_sq, sigma_sq)
    for t_ag, t_yr, eta_sq, sigma_sq in itertools.product(BOX.theta_bounds, BOX.theta_bounds, BOX.eta_sq_bounds, BOX.sigma_sq_bounds)
    if sigma_sq >= 1e-6 * eta_sq
]
GRID_SHAPES = {
    "paper_35x16": (range(50, 85), range(1999, 2015)),
    "uneven_10x5": ([0, 1, 5, 10, 20, 35, 50, 65, 80, 100], [1980, 1990, 2000, 2005, 2010]),
    "3x12": ([60, 61, 62], range(2000, 2012)),
}
BASES = [None, *MeanBasis]


class TestGridWhitener:
    """A full grid with constant noise whitens by K = eta^2 K_yr (x) K_ag; it must agree with the dense route."""

    @pytest.mark.parametrize("shape", list(GRID_SHAPES))
    @pytest.mark.parametrize("basis", BASES, ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route(self, family, basis, shape):
        ages, years = GRID_SHAPES[shape]
        x, y = grid_xy(ages, years)
        hps = [KernelHyperparams(15.8, 15.5, 1.85, 2.8e-4), *BOX_CORNERS]  # the published fit, then the corners
        if shape == "paper_35x16":
            # the dense reference costs most here: the long-lengthscale, low-noise corner, the
            # worst conditioned; the smaller grids cover every corner
            hps = [hps[0], KernelHyperparams(BOX.theta_bounds[1], BOX.theta_bounds[1], BOX.eta_sq_bounds[0], BOX.sigma_sq_bounds[0])]
        for hp in hps:
            grid = fit_gls_xy(x, y, family, hp, basis=basis)
            dense = dense_route(fit_gls_xy, x, y, family, hp, basis=basis)
            assert_routes_agree(grid, dense, ages, years)

    @pytest.mark.parametrize("basis", BASES, ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_update_matches_dense_route(self, family, basis):
        ages, years = [0, 1, 5, 10, 20, 35, 50, 65, 80, 100], [1980, 1990, 2000, 2005, 2010]
        x, y = grid_xy(ages, years)
        new = table_from_surface(ages, [2012], lambda a, yr: -4.0 + 0.04 * (a - 60) - 0.12)
        for hp in (KernelHyperparams(15.8, 15.5, 1.85, 2.8e-4), *BOX_CORNERS[::3]):
            grid = update(fit_gls_xy(x, y, family, hp, basis=basis), new)
            dense = dense_route(lambda: update(fit_gls_xy(x, y, family, hp, basis=basis), new))
            assert_routes_agree(grid, dense, ages, [*years, 2012])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True),
        years=st.lists(st.integers(1950, 2020), min_size=2, max_size=12, unique=True),
        family=st.sampled_from(list(KernelFamily)),
        basis=st.sampled_from(BASES),
        fractions=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        seed=st.integers(0, 1000),
    )
    def test_agrees_with_dense_route_over_search_box(self, ages, years, family, basis, fractions, seed):
        assume(basis is not MeanBasis.QUADRATIC_AGE or len(ages) >= 3)
        assume(len(ages) * len(years) >= basis_dim(basis))
        bounds = np.log([BOX.theta_bounds, BOX.theta_bounds, BOX.eta_sq_bounds, BOX.sigma_sq_bounds])
        hp = KernelHyperparams(*np.exp(bounds[:, 0] + np.array(fractions) * (bounds[:, 1] - bounds[:, 0])))
        assume(hp.sigma_sq >= 1e-6 * hp.eta_sq)
        ages, years = sorted(ages), sorted(years)
        x, y = grid_xy(ages, years, seed)
        grid = fit_gls_xy(x, y, family, hp, basis=basis)
        dense = dense_route(fit_gls_xy, x, y, family, hp, basis=basis)
        assert_routes_agree(grid, dense, ages, years, seed)


PUBLISHED_HP = KernelHyperparams(15.8, 15.5, 1.85, 2.8e-4)


def masked_xy(shape, seed=1):
    """Inputs and log rates of a ``HOLE_MASKS`` grid drawn at the published hyperparameters."""
    ages, years, drop = HOLE_MASKS[shape]
    table = simulate_masked_table(ages, years, PUBLISHED_HP, seed, drop)
    return table.inputs(), table.responses()


class TestGridWhitenerWithHoles:
    """Cells missing from a grid, m <= n / 4 of them, whiten through the full grid's W with the
    partitioned-inverse correction; it must agree with the dense route."""

    @pytest.mark.parametrize("shape", list(HOLE_MASKS))
    @pytest.mark.parametrize("basis", BASES, ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route(self, family, basis, shape):
        ages, years, drop = HOLE_MASKS[shape]
        cases = [(masked_xy(shape), hp) for hp in [PUBLISHED_HP, *BOX_CORNERS]]
        if shape == "subset2":
            # as for the full paper grid, the dense reference costs most here: the published point, then the
            # long-lengthscale, low-noise corner on that test's data (``grid_xy``).  On GP draws at that
            # corner both grid routes, with and without holes, differ from the dense one by up to 1.1e-10.
            x, y = grid_xy(ages, years)
            keep = np.array([not drop(a, yr) for a, yr in x])
            worst = KernelHyperparams(BOX.theta_bounds[1], BOX.theta_bounds[1], BOX.eta_sq_bounds[0], BOX.sigma_sq_bounds[0])
            cases = [cases[0], ((x[keep], y[keep]), worst)]
        for (x, y), hp in cases:
            holes = fit_gls_xy(x, y, family, hp, basis=basis)
            dense = dense_route(fit_gls_xy, x, y, family, hp, basis=basis)
            assert has_holes(holes) and holes.jitter == 0.0
            assert_routes_agree(holes, dense, ages, years)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True),
        years=st.lists(st.integers(1950, 2020), min_size=2, max_size=12, unique=True),
        family=st.sampled_from(list(KernelFamily)),
        basis=st.sampled_from(BASES),
        fractions=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        holes=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=28),
        seed=st.integers(0, 1000),
    )
    def test_agrees_with_dense_route_over_random_masks(self, ages, years, family, basis, fractions, holes, seed):
        bounds = np.log([BOX.theta_bounds, BOX.theta_bounds, BOX.eta_sq_bounds, BOX.sigma_sq_bounds])
        hp = KernelHyperparams(*np.exp(bounds[:, 0] + np.array(fractions) * (bounds[:, 1] - bounds[:, 0])))
        assume(hp.sigma_sq >= 1e-6 * hp.eta_sq)
        x, y = grid_xy(sorted(ages), sorted(years), seed)
        keep = np.ones(x.shape[0], dtype=bool)
        keep[[int(h * x.shape[0]) for h in holes[: x.shape[0] // 5]]] = False  # m <= N / 5, so m <= n / 4
        x, y = x[keep], y[keep]
        assume(np.linalg.matrix_rank(basis_matrix(basis, x)) == basis_dim(basis) < x.shape[0])
        assume(gp_mod._Covariance(family, x).cells is not None)  # no hole took a whole age or year
        holes_fit = fit_gls_xy(x, y, family, hp, basis=basis)
        dense = dense_route(fit_gls_xy, x, y, family, hp, basis=basis)
        assert has_holes(holes_fit)
        assert_routes_agree(holes_fit, dense, np.unique(x[:, 0]), np.unique(x[:, 1]), seed)

    @pytest.mark.parametrize("missing, route", [(20, "holes"), (21, "dense")])
    def test_route_threshold_at_a_quarter_of_n(self, missing, route):
        # 10 x 10 grid: with m = 20 missing, m = n / 4 for n = 80; one more and m > n / 4
        x, y = grid_xy(range(60, 70), range(2000, 2010))
        ia, iy = np.divmod(np.arange(100), 10)[::-1]
        drop = (ia + iy) % 5 == 0  # two cells of every age and of every year
        drop[np.flatnonzero(~drop)[37]] = missing == 21
        assert drop.sum() == missing
        x, y = x[~drop], y[~drop]
        cov = gp_mod._Covariance(SQEXP, x)
        assert (cov.cells is not None) == (route == "holes") and (cov.shape is not None) == (route == "holes")
        gp = fit_gls_xy(x, y, SQEXP, PUBLISHED_HP, basis=MeanBasis.LINEAR)
        assert has_holes(gp) == (route == "holes") and is_grid(gp) == (route == "holes")

    def test_failed_cholesky_of_missing_cells_falls_back_to_dense(self, monkeypatch):
        x, y = masked_xy("subset2")
        expected = fit_gls_xy(x, y, SQEXP, PUBLISHED_HP, basis=MeanBasis.QUADRATIC_AGE)
        assert has_holes(expected) and expected.whitener.u.shape[1] == 56
        real_cholesky = np.linalg.cholesky

        def fail_on_m(a):
            if a.shape == (56, 56):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fail_on_m)
        gp = fit_gls_xy(x, y, SQEXP, PUBLISHED_HP, basis=MeanBasis.QUADRATIC_AGE)
        assert not is_grid(gp) and gp.jitter == 0.0
        assert gp.log_likelihood == pytest.approx(expected.log_likelihood, rel=1e-8)

    def test_grid_queries_gather_no_cross_covariance(self, monkeypatch):
        # grid-shaped queries on a model with holes stay in the Kronecker factors; scattered ones gather (n, M)
        ages, _, _ = HOLE_MASKS["subset2"]
        x, y = masked_xy("subset2")
        gp = fit_gls_xy(x, y, SQEXP, PUBLISHED_HP, basis=MeanBasis.QUADRATIC_AGE)
        assert has_holes(gp)

        def no_gather(*args, **kwargs):
            raise AssertionError("gathered a cross-covariance")

        monkeypatch.setattr(kernels_mod, "_gather", no_gather)
        predict(gp, x)
        predict(gp, np.array([[a, yr] for yr in (2015, 2016, 2017) for a in ages]))
        predict_year_derivative(gp, np.array([[a, 2014] for a in ages]))
        _year_difference(gp, np.asarray(ages), 2013, 2014)
        with pytest.raises(AssertionError, match="gathered"):
            predict(gp, np.array([[60.5, 2014.5], [70.0, 2020.0]]))

    @pytest.mark.parametrize("k", [1, 3])
    def test_solve_matches_dense_route(self, k):
        # a vector and a matrix right-hand side, on the full grid and with holes
        rng = np.random.default_rng(4)
        for x, _ in (grid_xy(range(50, 62), range(2000, 2008)), masked_xy("scattered_10x5")):
            grid = fit_gls_xy(x, np.zeros(x.shape[0]), SQEXP, PUBLISHED_HP, basis=None)
            dense = dense_route(fit_gls_xy, x, np.zeros(x.shape[0]), SQEXP, PUBLISHED_HP, basis=None)
            r = rng.standard_normal((x.shape[0], k)) if k > 1 else rng.standard_normal(x.shape[0])
            got, want = grid.whitener.solve(r), dense.whitener.solve(r)
            assert is_grid(grid) and got.shape == r.shape
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


class TestGridRouteWithoutRowOrder:
    """Distinct cells in any order are a grid, for fits and for queries: the rows only index its cells."""

    @staticmethod
    def xy(shape):
        return grid_xy(range(50, 85), range(1999, 2015)) if shape == "full" else masked_xy("subset2")

    @pytest.mark.parametrize("shape", ["full", "subset2"])
    @pytest.mark.parametrize("basis", BASES, ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_permuted_rows_fit_as_rows_in_order(self, family, basis, shape):
        x, y = self.xy(shape)
        order = np.random.default_rng(7).permutation(x.shape[0])
        in_order = fit_gls_xy(x, y, family, PUBLISHED_HP, basis=basis)
        permuted = fit_gls_xy(x[order], y[order], family, PUBLISHED_HP, basis=basis)
        assert is_grid(permuted) and permuted.whitener.cells is not None and permuted.jitter == 0.0
        assert (permuted.whitener.u is None) == (shape == "full")  # a full grid out of order needs no projection
        assert permuted.log_likelihood == pytest.approx(in_order.log_likelihood, rel=1e-12)
        np.testing.assert_allclose(predict(permuted, x[order]).mean, predict(in_order, x).mean[order], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", ["full", "subset2"])
    def test_shuffled_query_grid_gives_the_permuted_posterior(self, shape):
        x, y = self.xy(shape)
        gp = fit_gls_xy(x, y, SQEXP, PUBLISHED_HP, basis=MeanBasis.QUADRATIC_AGE)
        queries = np.array([[a, yr] for yr in (2015, 2016, 2017) for a in range(50, 85)], dtype=float)
        order = np.random.default_rng(8).permutation(queries.shape[0])
        post, shuffled = predict(gp, queries, True), predict(gp, queries[order], True)
        np.testing.assert_array_equal(shuffled.mean, post.mean[order])
        np.testing.assert_array_equal(shuffled.variance, post.variance[order])
        # the trend term w^T w is one matrix product, and a BLAS product may round an entry differently by its position
        eps = np.finfo(float).eps
        np.testing.assert_allclose(shuffled.covariance, post.covariance[np.ix_(order, order)], rtol=4 * eps, atol=0)

    def test_repeated_cell_is_no_grid(self):
        x, _ = grid_xy(range(60, 64), range(2000, 2004))
        assert gp_mod._grid_cells(kernels_mod._axes(x))[1] is None  # every cell, in order
        np.testing.assert_array_equal(gp_mod._grid_cells(kernels_mod._axes(x[::-1]))[1], np.arange(16)[::-1])
        for repeated in (np.vstack([x, x[5]]), np.vstack([x[:3], x[7], x[4:]])):  # a cell added twice; one in place of another
            assert gp_mod._grid_cells(kernels_mod._axes(repeated)) is None
            gp = fit_gls_xy(repeated, np.zeros(repeated.shape[0]), SQEXP, PUBLISHED_HP, basis=None)
            assert not is_grid(gp)


ROUTES = ["grid", "holes", "dense"]


def routed_model(route, eta_sq=1.0):
    """A quadratic-trend fit to ``grid_xy`` data on a 12 x 8 grid by the named route, with sigma^2 = eta^2 / 100."""
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=6.0, eta_sq=eta_sq, sigma_sq=1e-2 * eta_sq)
    x, y = grid_xy(range(50, 62), range(2000, 2008))
    if route == "holes":
        keep = (x[:, 1] < 2007) | (x[:, 0] < 58)  # not the four oldest ages of the last year
        x, y = x[keep], y[keep]
    args = (x, y, SQEXP, hp)
    gp = dense_route(fit_gls_xy, *args, basis=MeanBasis.QUADRATIC_AGE) if route == "dense" else fit_gls_xy(*args, basis=MeanBasis.QUADRATIC_AGE)
    assert (is_grid(gp), has_holes(gp)) == (route != "dense", route == "holes")
    return gp


class TestPosteriorCovarianceOnEveryRoute:
    """``predict``'s covariance is exactly symmetric with the variance on its diagonal, and ``sample_paths``'s draws
    reproduce it, on the grid, holes and dense routes."""

    @pytest.mark.parametrize("route", ROUTES)
    def test_symmetric_with_the_variance_on_its_diagonal(self, route):
        gp = routed_model(route)
        rng = np.random.default_rng(5)
        forecast = np.array([[a, y] for y in (2008.0, 2011.0) for a in range(50, 62)])
        scattered = np.column_stack([rng.uniform(50, 61, 6), rng.uniform(2000, 2012, 6)])
        for xs in (gp.x, forecast, forecast[1:], scattered):
            post = predict(gp, xs, want_covariance=True)
            np.testing.assert_array_equal(post.covariance, post.covariance.T)
            assert np.max(np.abs(np.diag(post.covariance) - post.variance)) <= 1e-10

    @pytest.mark.parametrize("route", ROUTES)
    def test_draws_reproduce_the_covariance(self, route):
        # C's entries are below 1e-2, so an absolute 1e-10 on the draws' covariance, such as a nugget of 1e-10 I
        # would add, is 3-9e-8 of C's largest entry and fails the gate
        gp = routed_model(route, eta_sq=0.1)
        xs = np.column_stack([np.arange(50.0, 62.0), np.full(12, 2008.0)])
        post = predict(gp, xs, want_covariance=True)
        c = post.covariance
        assert np.abs(c).max() < 1e-2
        # with M paths, paths^T - mean = R z for the M x M draws z, so the linear map R is recovered by a solve
        z = np.random.default_rng(9).standard_normal((12, 12))
        root = np.linalg.solve(z.T, sample_paths(gp, xs, 12, seed=9) - post.mean).T
        assert np.max(np.abs(root @ root.T - c)) <= 1e-10 * np.abs(c).max()
        np.testing.assert_allclose(root, root.T, rtol=0, atol=1e-10 * np.abs(root).max())  # the symmetric root


# Points of the two property tests above, drawn at other Hypothesis seeds, where the routes' means at
# ``assert_routes_agree``'s scattered queries differ by 1.2-3.4e-10, past its fixed 1e-10 gate: the squared
# exponential at sigma^2 / eta^2 of 1.3-3.2e-6, on ``grid_xy`` data at seed 0.  Against a 40-digit mpmath
# solve both routes are off there, the grid route by up to 1.2e-10 and the dense one by up to 3.1e-10, so
# 1e-10 is below float64's floor and each route is held to eps * cond(A) * max|mean| of that reference.
# Each point: ages, years, basis, fractions of the log box, hole fractions, reference means.
FLOOR_POINTS = [
    ([0, 1], range(1950, 1956), None, (0, 0.5, 1, 0.625), [],
     [-6.234790176748853, -6.157900613100543, -6.103617726196963, -5.450224027132769, -5.0234766577702, -6.071741105781676]),
    (range(5), [1950, 1951], MeanBasis.INTERCEPT, (1, 0, 0.1875, 0), [],
     [-8.576991779234085, -8.576993930630142, -8.576907193971447, -8.57699393093062, -8.576993930930458, -5.740413901122242]),
    ([0, 2], range(1950, 1953), MeanBasis.INTERCEPT, (0, 0.75, 0.3125, 0.0625), [],
     [-8.448828991864765, -7.893834152155205, -6.147129934986838, -6.531077918180443, -6.864443753665949, -6.074515565434137]),
    ([0, 1], range(1950, 1955), None, (0, 0.5, 0.21875, 0), [0.0],
     [-6.904045868696378, -8.048638261666618, -6.390113543528258, -10.653990374769213, -8.030722523687826, -6.049260841688332]),
]


@pytest.mark.parametrize("ages, years, basis, fractions, holes, reference", FLOOR_POINTS)
def test_routes_within_conditioning_of_reference_at_float64_floor(ages, years, basis, fractions, holes, reference):
    bounds = np.log([BOX.theta_bounds, BOX.theta_bounds, BOX.eta_sq_bounds, BOX.sigma_sq_bounds])
    hp = KernelHyperparams(*np.exp(bounds[:, 0] + np.array(fractions) * (bounds[:, 1] - bounds[:, 0])))
    x, y = grid_xy(ages, years)
    keep = np.ones(x.shape[0], dtype=bool)
    keep[[int(h * x.shape[0]) for h in holes]] = False
    x, y = x[keep], y[keep]
    ages, years = np.unique(x[:, 0]), np.unique(x[:, 1])
    rng = np.random.default_rng(0)
    scattered = np.column_stack([rng.uniform(ages[0], ages[-1], 6), rng.uniform(years[0], years[-1] + 5, 6)])
    cond = np.linalg.cond(cov_matrix(SQEXP, hp, x) + hp.sigma_sq * np.eye(x.shape[0]))
    gate = np.finfo(float).eps * cond * np.abs(reference).max()
    grid = fit_gls_xy(x, y, SQEXP, hp, basis=basis)
    dense = dense_route(fit_gls_xy, x, y, SQEXP, hp, basis=basis)
    assert is_grid(grid) and has_holes(grid) == bool(holes) and not is_grid(dense)
    for gp in (grid, dense):
        np.testing.assert_allclose(predict(gp, scattered).mean, reference, rtol=0, atol=gate)


class TestWhitenerRoute:
    """Which whitener a fit takes; outputs must not depend on it beyond the tolerances above."""

    HP = KernelHyperparams(theta_ag=8.0, theta_yr=6.0, eta_sq=0.4, sigma_sq=3e-4)

    @pytest.fixture(scope="class")
    def table(self):
        return table_from_surface(range(50, 62), range(2000, 2008), lambda a, y: -5.0 + 0.04 * a - 0.012 * (y - 2000))

    def test_full_grid_with_constant_noise_takes_grid_route(self, table):
        gp = fit_gls(table, SQEXP, self.HP, basis=MeanBasis.QUADRATIC_AGE)
        assert is_grid(gp) and gp.jitter == 0.0
        noisy, _, _ = simulate_gp_table(range(50, 62), range(2000, 2008), self.HP, seed=3)
        result = fit_mle(noisy, basis=MeanBasis.QUADRATIC_AGE, config=FitConfig(n_restarts=1))
        assert is_grid(result.model)  # fit_mle's final refit

    def test_update_with_a_full_calendar_year_takes_grid_route(self, table):
        gp = fit_gls(table, SQEXP, self.HP)
        new = table_from_surface(range(50, 62), [2008], lambda a, y: -5.0 + 0.04 * a - 0.1)
        assert is_grid(update(gp, new))

    def test_partial_year_update_takes_grid_route_with_holes(self, table):
        gp = fit_gls(table, SQEXP, self.HP)
        new = table_from_surface(range(50, 56), [2008], lambda a, y: -5.0 + 0.04 * a - 0.1)
        updated = update(gp, new)
        assert updated.n == 12 * 8 + 6 and has_holes(updated) and updated.jitter == 0.0
        assert updated.whitener.u.shape == (12 * 9, 6)  # the six missing ages of 2008

    @pytest.mark.parametrize("case", ["subset2", "zero_death_cell"])
    def test_notched_inputs_take_grid_route_with_holes(self, table, case):
        if case == "subset2":
            table = subset(table_from_surface(range(50, 85), range(1999, 2015), lambda a, y: -9.0 + 0.08 * a), SUBSET_PRESETS["subset2"])
        else:
            deaths = table.deaths.copy()
            deaths[17] = 0.0
            with pytest.warns(UserWarning, match="zero-death"):
                table = rows_of(table, deaths=deaths)
        gp = fit_gls(table, SQEXP, self.HP)
        assert has_holes(gp) and gp.jitter == 0.0

    @pytest.mark.parametrize("case", ["delta_noise", "zero_noise_jitter"])
    def test_other_inputs_take_dense_route(self, table, case):
        hp, noise = self.HP, None
        if case == "delta_noise":
            noise = DeltaMethodNoise(1.5)
        else:
            hp = KernelHyperparams(self.HP.theta_ag, self.HP.theta_yr, self.HP.eta_sq, 0.0)
        gp = fit_gls(table, SQEXP, hp, noise=noise)
        assert not is_grid(gp)
        assert (gp.jitter > 0.0) == (case == "zero_noise_jitter")

    def test_grid_eigenvalue_failure_falls_back_to_dense(self, table, monkeypatch):
        # at sigma^2 / eta^2 near 1e-14 with long lengthscales, roundoff can leave an entry of D
        # at or below zero while the dense Cholesky still succeeds; such a model must still fit
        def no_grid(*args):
            raise np.linalg.LinAlgError("covariance has a non-positive eigenvalue")

        expected = fit_gls(table, SQEXP, self.HP)
        monkeypatch.setattr(gp_mod._GridWhitener, "__init__", no_grid)
        gp = fit_gls(table, SQEXP, self.HP)
        assert not is_grid(gp) and gp.jitter == 0.0
        assert gp.log_likelihood == pytest.approx(expected.log_likelihood, rel=1e-8)

    @staticmethod
    def notched_xy():
        x, y = grid_xy(range(40), range(1990, 2016))
        notch = (x[:, 0] > 30) & (x[:, 1] > 2011)
        return x[~notch], y[~notch]  # n = 1004 of the grid's 1040 cells

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_one_shot_dense_fit_holds_about_one_n_by_n_array(self, family):
        # A is gathered into one n x n buffer, factorized in place, and the model keeps only that factor;
        # a noise diagonal that is not constant keeps these notched inputs on the dense route
        x, y = self.notched_xy()
        noise_diag = self.HP.sigma_sq * np.linspace(0.5, 1.5, x.shape[0])
        n_by_n = x.shape[0] ** 2 * 8
        models = []
        held, peak = traced_memory(
            lambda: models.append(fit_gls_xy(x, y, family, self.HP, basis=MeanBasis.QUADRATIC_AGE, noise_diag=noise_diag))
        )
        assert not is_grid(models[0])
        assert peak <= 1.5 * n_by_n
        assert held <= 1.05 * n_by_n

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_one_shot_fit_with_holes_holds_no_n_by_n_array(self, family):
        x, y = self.notched_xy()
        n_by_n = x.shape[0] ** 2 * 8
        models = []
        held, peak = traced_memory(lambda: models.append(fit_gls_xy(x, y, family, self.HP, basis=MeanBasis.QUADRATIC_AGE)))
        assert has_holes(models[0])
        assert peak < 0.25 * n_by_n
        assert held < 0.25 * n_by_n

    def test_model_json_stays_schema_1(self, table):
        d = model_to_dict(fit_gls(table, SQEXP, self.HP))
        assert d["schema_version"] == 1
        assert sorted(d) == sorted(
            ["schema_version", "family", "hyperparams", "noise", "basis", "beta", "inputs", "y", "noise_diag", "log_likelihood"]
        )

    def test_file_written_by_dense_release_loads_and_predicts(self):
        # written by the dense-only release (mortgp 0.1.0 before the grid whitener):
        # a 12 x 7 grid, squared exponential, quadratic basis, and its posteriors
        data = Path(__file__).parent / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the stored coefficients agree with the refit
            gp = load_model(data / "dense_release_model.json")
        stored = json.loads((data / "dense_release_model.json").read_text())
        expected = json.loads((data / "dense_release_posterior.json").read_text())
        assert is_grid(gp)
        assert gp.log_likelihood == pytest.approx(stored["log_likelihood"], rel=1e-8)
        ages = np.unique(gp.x[:, 0])
        smooth = predict(gp, gp.x)
        forecast = predict(gp, expected["forecast"]["inputs"], want_covariance=True)
        deriv = predict_year_derivative(gp, np.column_stack([ages, np.full(ages.size, 2006.0)]))
        diff = _year_difference(gp, ages, 2005.0, 2006.0)
        pairs = [
            (smooth.mean, expected["smooth"]["mean"]),
            (smooth.variance, expected["smooth"]["variance"]),
            (forecast.mean, expected["forecast"]["mean"]),
            (forecast.covariance, expected["forecast"]["covariance"]),
            (deriv.mean, expected["derivative_2006"]["mean"]),
            (deriv.variance, expected["derivative_2006"]["variance"]),
            (diff[0], expected["difference_2005_2006"]["mean"]),
            (diff[1], expected["difference_2005_2006"]["variance"]),
        ]
        for got, want in pairs:
            np.testing.assert_allclose(got, np.asarray(want), rtol=0, atol=1e-10)
