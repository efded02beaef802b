"""Tests of the benchmark's own reference and checks.

    python3 -m pytest bench/test_reference.py -q
"""

import csv
import math

import numpy as np
import pytest

import checks
from reference import Hyper, QuadraticTrend, UniversalKriging, kernel, z_value

HP = Hyper(theta_ag=4.0, theta_yr=3.0, eta_sq=0.8, sigma_sq=1e-3)


def grid(ages=range(60, 70), years=range(2000, 2007)):
    return np.array([[a, y] for y in years for a in ages], dtype=float)


def surface(x, seed=0):
    rng = np.random.default_rng(seed)
    a = (x[:, 0] - 65.0) / 5.0
    return -4.0 + 0.5 * a + 0.1 * a * a - 0.02 * (x[:, 1] - 2003) + 0.05 * rng.standard_normal(len(x))


def brute_force_loglik(x, y, hp):
    """Profiled log-likelihood on the raw design, with general solves and slogdet."""
    k = kernel(hp, x, x) + hp.sigma_sq * np.eye(len(x))
    h = QuadraticTrend(x).design(x)
    kinv_h = np.linalg.solve(k, h)
    beta = np.linalg.solve(h.T @ kinv_h, kinv_h.T @ y)
    r = y - h @ beta
    _, logdet = np.linalg.slogdet(k)
    return -0.5 * r @ np.linalg.solve(k, r) - 0.5 * logdet - 0.5 * len(x) * math.log(2 * math.pi)


def test_kernel_formula_and_symmetry():
    x = grid()
    k = kernel(HP, x, x)
    assert np.allclose(k, k.T, rtol=0, atol=0)
    assert np.allclose(np.diag(k), HP.eta_sq)
    i, j = 3, 17
    da, dy = x[i] - x[j]
    assert k[i, j] == pytest.approx(HP.eta_sq * math.exp(-(da**2) / (2 * HP.theta_ag**2) - dy**2 / (2 * HP.theta_yr**2)), rel=1e-14)


def test_loglik_matches_brute_force():
    x = grid()
    y = surface(x)
    assert UniversalKriging(x, y, HP).loglik == pytest.approx(brute_force_loglik(x, y, HP), abs=1e-8)


def test_interpolates_as_noise_vanishes():
    x = grid()
    y = surface(x)
    # short lengthscales keep K well conditioned, so sigma^2 -> 0 is an exact limit
    uk = UniversalKriging(x, y, Hyper(1.0, 1.0, HP.eta_sq, 1e-12))
    mean, var = uk.mean_var(x)
    assert np.max(np.abs(mean - y)) < 1e-8
    assert np.max(var) < 1e-10


def test_training_identity_matches_generic_route():
    x = grid()
    uk = UniversalKriging(x, surface(x), HP)
    mean, var = uk.mean_var(x)
    mean_t, var_t = uk.train_mean_var()
    assert np.allclose(mean_t, mean, rtol=0, atol=1e-10)
    assert np.allclose(var_t, var, rtol=1e-8, atol=1e-14)


def test_reproduces_the_trend_it_can_represent():
    x = grid()
    trend = QuadraticTrend(x)
    beta = np.array([-4.0, 0.7, -0.2, 0.3])
    uk = UniversalKriging(x, trend.design(x) @ beta, HP)
    far = np.array([[40.0, 2030.0], [90.0, 1980.0]])
    assert np.allclose(uk.beta, beta, atol=1e-9)
    assert np.allclose(uk.mean_var(far)[0], trend.design(far) @ beta, atol=1e-8)


def test_covariance_agrees_with_variance():
    x = grid()
    uk = UniversalKriging(x, surface(x), HP)
    xs = np.array([[61.0, 2007.0], [65.0, 2008.0], [69.5, 2003.5]])
    mean, cov = uk.mean_cov(xs)
    mean_v, var = uk.mean_var(xs)
    assert np.allclose(mean, mean_v, atol=1e-12)
    assert np.allclose(np.diag(cov), var, rtol=1e-10)
    assert np.linalg.eigvalsh(cov).min() > 0


def test_raw_coefficients_give_the_same_trend():
    x = grid()
    trend = QuadraticTrend(x)
    beta = np.array([-4.0, 0.7, -0.2, 0.3])
    raw = np.column_stack([np.ones(len(x)), x[:, 0], x[:, 1], x[:, 0] ** 2])
    assert np.allclose(raw @ trend.raw_coefficients(beta), trend.design(x) @ beta, atol=1e-9)


def test_z_value():
    assert z_value(0.95) == pytest.approx(1.959963984540054, rel=1e-12)


def write_posterior(path, xs, mean, sd, level):
    z = z_value(level)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["age", "year", "mean_log", "sd_log", "lo", "hi"])
        for (a, yr), m, s in zip(xs, mean, sd):
            out.writerow([int(a), int(yr), repr(float(m)), repr(float(s)), repr(float(m - z * s)), repr(float(m + z * s))])


def test_check_posterior_flags_a_wrong_sd(tmp_path):
    x = grid()
    uk = UniversalKriging(x, surface(x), HP)
    mean, var = uk.mean_var(x)
    path = tmp_path / "smooth.csv"
    write_posterior(path, x, mean, np.sqrt(var), 0.95)
    assert checks.check_posterior(path, x, mean, var, 0.95) == []
    sd = np.sqrt(var)
    sd[5] *= 1.001
    write_posterior(path, x, mean, sd, 0.95)
    assert any("sd_log" in e for e in checks.check_posterior(path, x, mean, var, 0.95))
