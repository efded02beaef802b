"""Acceptance gate: every criterion below runs at its stated tolerance.

Criterion 10 reproduces published full-data results and needs the real CDC
male dataset, which is not redistributable; point MORTGP_CDC_DATA at a CSV
(age,year,deaths,exposure covering ages 50-84, years 1999-2014) to enable it.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest

from mortgp import (
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    MortalityTable,
    SubsetSpec,
    cov_matrix,
    cross_cov,
    fit_gls,
    fit_gls_xy,
    fit_mle,
    fit_poisson_glm,
    glm_predict,
    load_table,
    mi_diff_gp,
    predict,
    sample_paths,
    subset,
    update,
    update_report,
)
from mortgp import kernels
from mortgp.data import SUBSET_PRESETS
from mortgp.means import basis_matrix

from conftest import simulate_gp_table, table_from_surface

SQEXP = KernelFamily.SQUARED_EXPONENTIAL


def test_criterion_01_conditioning_oracle():
    """predict == brute-force joint-Gaussian conditioning, 1e-10 absolute, < 1 s."""
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(20):
        n_train = int(rng.integers(2, 6))
        n_test = int(rng.integers(1, 4))
        hp = KernelHyperparams(
            theta_ag=float(rng.uniform(0.5, 3.0)),
            theta_yr=float(rng.uniform(0.5, 3.0)),
            eta_sq=float(rng.uniform(0.5, 2.0)),
            sigma_sq=float(rng.uniform(1e-4, 1e-2)),
        )
        pts = rng.uniform(0, 5, size=(n_train + n_test, 2))
        y = rng.standard_normal(n_train)

        k = cov_matrix(SQEXP, hp, pts)
        obs = slice(0, n_train)
        new = slice(n_train, None)
        k_oo_inv = np.linalg.inv(k[obs, obs] + hp.sigma_sq * np.eye(n_train))
        mean_oracle = k[new, obs] @ k_oo_inv @ y
        cov_oracle = k[new, new] - k[new, obs] @ k_oo_inv @ k[obs, new]

        gp = fit_gls_xy(pts[obs], y, SQEXP, hp, basis=None)
        post = predict(gp, pts[new], want_covariance=True)
        np.testing.assert_allclose(post.mean, mean_oracle, atol=1e-10, rtol=0)
        np.testing.assert_allclose(post.covariance, cov_oracle, atol=1e-10, rtol=0)
    assert time.monotonic() - start < 1.0


def test_criterion_02_interpolation():
    """sigma^2 = 0 (+jitter): the surface interpolates on a 10x10 grid."""
    x = np.array([[a, y] for y in range(10) for a in range(10)], dtype=float)
    y = -4.0 + 0.1 * x[:, 0] - 0.02 * x[:, 1] + 0.2 * np.sin(0.3 * x[:, 0])
    hp = KernelHyperparams(theta_ag=1.5, theta_yr=1.5, eta_sq=1.0, sigma_sq=0.0)
    gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT)
    post = predict(gp, x)
    assert np.max(np.abs(post.mean - y)) < 1e-6
    assert post.variance.max() < 1e-6 * hp.eta_sq


def test_criterion_03_universal_kriging_reduction():
    """Intercept-basis kriging with beta0 pre-subtracted equals zero-mean kriging."""
    rng = np.random.default_rng(1003)
    x = np.column_stack([rng.uniform(0, 20, 60), rng.uniform(0, 12, 60)])
    y = -4.0 + 0.3 * np.sin(0.4 * x[:, 0]) + 0.05 * x[:, 1] + 0.05 * rng.standard_normal(60)
    hp = KernelHyperparams(theta_ag=4.0, theta_yr=3.0, eta_sq=0.8, sigma_sq=1e-3)
    uk = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT)
    beta0 = uk.beta[0]
    sk = fit_gls_xy(x, y - beta0, SQEXP, hp, basis=None)
    x_star = np.vstack([x[:10] + 0.3, rng.uniform(-5, 25, size=(30, 2))])
    np.testing.assert_allclose(predict(uk, x_star).mean - beta0, predict(sk, x_star).mean, atol=1e-10, rtol=0)


def test_criterion_04_derivative_self_consistency():
    """Instantaneous improvement equals the finite-difference surface slope."""
    rng = np.random.default_rng(1004)
    table, x, y = simulate_gp_table(
        range(50, 75), range(1999, 2012), KernelHyperparams(8.0, 8.0, 0.5, 3e-4), seed=14
    )
    # add a firm year trend so the derivative stays bounded away from zero
    y = y - 0.02 * (x[:, 1] - 1999)
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.5, sigma_sq=3e-4)
    gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.LINEAR)
    h = 1e-4
    ages = rng.uniform(50, 75, 200)
    years = rng.uniform(1999, 2015, 200)
    for age, year in zip(ages, years):
        fd = -(predict(gp, [[age, year + h]]).mean[0] - predict(gp, [[age, year - h]]).mean[0]) / (2 * h)
        analytic = mi_diff_gp(gp, [age], year).mean[0]
        assert abs(analytic - fd) / (abs(fd) + 1e-12) < 1e-5


def test_criterion_05_kernel_derivative_formulas():
    """Analytic kernel year-derivatives match finite differences at 1e-5 relative."""
    rng = np.random.default_rng(1005)
    h = 1e-5
    for _ in range(1000):
        hp = KernelHyperparams(
            theta_ag=float(rng.uniform(0.8, 30.0)),
            theta_yr=float(rng.uniform(0.8, 30.0)),
            eta_sq=float(rng.uniform(0.1, 5.0)),
        )
        x = rng.uniform(0, 40, 2)
        xp = rng.uniform(0, 40, 2)
        fd1 = (cross_cov(SQEXP, hp, x, xp + [0, h])[0, 0] - cross_cov(SQEXP, hp, x, xp - [0, h])[0, 0]) / (2 * h)
        d1 = kernels._separable(SQEXP, hp, x, xp, kernels._dfactor)[0, 0]
        assert abs(d1 - fd1) / (abs(d1) + 1e-12) < 1e-5
        fd2 = (
            kernels._separable(SQEXP, hp, x + [0, h], xp, kernels._dfactor)[0, 0]
            - kernels._separable(SQEXP, hp, x - [0, h], xp, kernels._dfactor)[0, 0]
        ) / (2 * h)
        d2 = kernels._separable(SQEXP, hp, x, xp, kernels._d2factor)[0, 0]
        assert abs(d2 - fd2) / (abs(d2) + 1e-12) < 1e-5


def test_criterion_06_hyperparameter_recovery():
    """Median recovery over 10 seeds on simulated 35x16 data, < 2 minutes."""
    true = KernelHyperparams(theta_ag=10.0, theta_yr=10.0, eta_sq=1.0, sigma_sq=3e-4)
    start = time.monotonic()
    ratios = {"theta_ag": [], "theta_yr": [], "sigma_sq": []}
    for seed in range(10):
        table, _, _ = simulate_gp_table(range(50, 85), range(1999, 2015), true, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, n_restarts=1, seed=seed)
        ratios["theta_ag"].append(result.model.hp.theta_ag / true.theta_ag)
        ratios["theta_yr"].append(result.model.hp.theta_yr / true.theta_yr)
        ratios["sigma_sq"].append(result.model.hp.sigma_sq / true.sigma_sq)
    assert abs(np.median(ratios["theta_ag"]) - 1.0) < 0.40
    assert abs(np.median(ratios["theta_yr"]) - 1.0) < 0.40
    assert abs(np.median(ratios["sigma_sq"]) - 1.0) < 0.25
    assert time.monotonic() - start < 120.0


def test_criterion_07_sampling_fidelity():
    """Empirical covariance of 1e4 paths within 5% relative Frobenius error."""
    rng = np.random.default_rng(1007)
    x = np.column_stack([rng.uniform(0, 15, 70), rng.uniform(0, 10, 70)])
    y = -4.0 + 0.05 * x[:, 0] + 0.1 * rng.standard_normal(70)
    hp = KernelHyperparams(theta_ag=4.0, theta_yr=4.0, eta_sq=0.7, sigma_sq=1e-2)
    gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT)
    xs = rng.uniform(0, 15, size=(20, 2))
    post = predict(gp, xs, want_covariance=True)
    paths = sample_paths(gp, xs, 10_000, seed=77)
    emp = np.cov(paths.T)
    assert np.linalg.norm(emp - post.covariance, "fro") / np.linalg.norm(post.covariance, "fro") < 0.05


def test_criterion_08_update_refit_equivalence():
    """update == from-scratch refit to 1e-10; postdate sd never increases."""
    def f(age, year):
        return -5.0 + 0.04 * age - 0.012 * (year - 1999)

    full = table_from_surface(range(50, 70), range(1999, 2012), f)
    base = subset(full, SubsetSpec.rectangle((1999, 2010), (50, 69)))
    new = subset(full, SubsetSpec.rectangle((2011, 2011), (50, 69)))
    union = subset(full, SubsetSpec.rectangle((1999, 2011), (50, 69)))
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.4, sigma_sq=3e-4)

    for basis in (MeanBasis.INTERCEPT, MeanBasis.QUADRATIC_AGE):
        gp = fit_gls(base, SQEXP, hp, basis=basis)
        updated = update(gp, new)
        refit = fit_gls(union, SQEXP, hp, basis=basis)
        rng = np.random.default_rng(1008)
        probes = np.column_stack([rng.uniform(50, 70, 50), rng.uniform(1999, 2018, 50)])
        pu, pr = predict(updated, probes), predict(refit, probes)
        assert np.max(np.abs(pu.mean - pr.mean)) < 1e-10
        assert np.max(np.abs(pu.sd - pr.sd)) < 1e-10
        report = update_report(gp, updated, probes)
        assert np.all(report.sd_delta >= -1e-10)


def test_criterion_09_glm_score_and_recovery():
    """Score equations at 1e-6 relative; simulated-Poisson recovery within 3 SE."""
    rng = np.random.default_rng(1009)
    true_beta = (-4.3, 0.05, -0.012)
    age, year = (column.ravel() for column in np.meshgrid(range(0, 20), range(0, 10)))
    deaths = [rng.poisson(math.exp(true_beta[0] + true_beta[1] * a + true_beta[2] * y) * 1e5) for a, y in zip(age.tolist(), year.tolist())]
    table = MortalityTable(age, year, deaths, np.full(age.size, 1e5))
    fit = fit_poisson_glm(table, MeanBasis.LINEAR)

    x = np.column_stack((table.age, table.year)).astype(float)
    d = table.deaths
    mu = table.exposure * np.exp(glm_predict(fit, x))
    h = basis_matrix(MeanBasis.LINEAR, x)
    assert np.linalg.norm(h.T @ (d - mu)) / np.linalg.norm(h.T @ d) < 1e-6

    se = np.sqrt(np.diag(fit.cov_beta))
    for estimate, truth, err in zip(fit.beta, true_beta, se):
        assert abs(estimate - truth) < 3 * err


# --- criterion 10: full-data reproduction (requires user-fetched CDC data) ---

CDC_PATH = os.environ.get("MORTGP_CDC_DATA", "")
needs_cdc = pytest.mark.skipif(
    not (CDC_PATH and os.path.exists(CDC_PATH)),
    reason="set MORTGP_CDC_DATA to the CDC male mortality CSV to run the full-data reproduction",
)


@pytest.fixture(scope="module")
def cdc_table():
    table = load_table(CDC_PATH)
    return subset(table, SubsetSpec.rectangle((1999, 2014), (50, 84)))


@needs_cdc
def test_criterion_10a_full_data_mle(cdc_table):
    """All-data intercept MLEs within 10% of the published estimates."""
    published = {"theta_ag": 15.8384, "theta_yr": 15.5308, "eta_sq": 1.8468, "sigma_sq": 2.808e-4}
    result = fit_mle(cdc_table, basis=MeanBasis.INTERCEPT, n_restarts=8, seed=0)
    for name, target in published.items():
        assert abs(getattr(result.model.hp, name) - target) / abs(target) < 0.10
    assert abs(result.model.beta[0] - (-3.8710)) / 3.8710 < 0.10


@needs_cdc
def test_criterion_10b_trend_coefficients(cdc_table):
    """Year-trend coefficient sign and magnitude on the 1999-2010/50-70 subset."""
    train = subset(cdc_table, SUBSET_PRESETS["subset3"])
    for basis, published_yr in ((MeanBasis.LINEAR, -1.397e-2), (MeanBasis.QUADRATIC_AGE, -1.417e-2)):
        result = fit_mle(train, basis=basis, n_restarts=8, seed=0)
        beta_yr = result.model.beta[2]
        assert beta_yr < 0
        assert abs(beta_yr - published_yr) / abs(published_yr) < 0.25
        if basis is MeanBasis.QUADRATIC_AGE:
            assert result.model.beta[1] > 0 and result.model.beta[3] > 0  # rising, convex age shape


@needs_cdc
def test_criterion_10c_subset_predictions(cdc_table):
    """2014 age-70/80 predictions within 0.02 log-rate of the published table."""
    published = {
        ("subset3", "intercept"): {70: -3.7520, 80: -3.7177},
        ("subset1", "intercept"): {70: -3.7380, 80: -2.8416},
        ("all", "intercept"): {70: -3.7702, 80: -2.8579},
        ("subset3", "quadratic"): {70: -3.7507, 80: -2.8774},
        ("subset1", "quadratic"): {70: -3.7711, 80: -2.8546},
        ("all", "quadratic"): {70: -3.7671, 80: -2.8553},
    }
    bases = {"intercept": MeanBasis.INTERCEPT, "quadratic": MeanBasis.QUADRATIC_AGE}
    for (subset_name, mean_name), targets in published.items():
        spec = SUBSET_PRESETS.get(subset_name)
        train = subset(cdc_table, spec) if spec is not None else cdc_table
        result = fit_mle(train, basis=bases[mean_name], n_restarts=8, seed=0)
        post = predict(result.model, [[70.0, 2014.0], [80.0, 2014.0]])
        for mean_value, age in zip(post.mean, (70, 80)):
            assert abs(mean_value - targets[age]) < 0.02, (subset_name, mean_name, age)


@needs_cdc
def test_criterion_10d_updating_sd_drop(cdc_table):
    """Adding 2014 shrinks the (65, 2016) posterior sd from ~0.027 to ~0.021."""
    before_table = subset(cdc_table, SubsetSpec.rectangle((1999, 2013), (50, 84)))
    year_2014 = subset(cdc_table, SubsetSpec.rectangle((2014, 2014), (50, 84)))
    result = fit_mle(before_table, basis=MeanBasis.INTERCEPT, n_restarts=8, seed=0)
    updated = update(result.model, year_2014)
    report = update_report(result.model, updated, [[65.0, 2016.0]])
    assert abs(report.before.sd[0] - 0.0266) / 0.0266 < 0.10
    assert abs(report.after.sd[0] - 0.0208) / 0.0208 < 0.10
    assert report.after.mean[0] < report.before.mean[0]
