import math
import warnings

import numpy as np
import pytest

from mortgp import (
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    MortalityTable,
    fit_gls,
    fit_gls_xy,
    mi_back_gp,
    mi_back_observed,
    mi_centered,
    mi_diff_gp,
    predict,
)
from mortgp import gp as gp_mod
from mortgp.gp import _quantile_z

from conftest import rows_of, simulate_grid_table, table_from_surface

SQEXP = KernelFamily.SQUARED_EXPONENTIAL
MATERN = KernelFamily.MATERN52


def linear_trend_gp(slope=-0.014, sigma_sq=0.0, basis=MeanBasis.LINEAR):
    """GP fit to an exactly linear log-mortality surface."""
    table = table_from_surface(range(50, 70), range(2000, 2012), lambda a, y: -6.0 + 0.02 * a + slope * (y - 2000))
    hp = KernelHyperparams(theta_ag=6.0, theta_yr=6.0, eta_sq=0.1, sigma_sq=sigma_sq)
    return fit_gls(table, SQEXP, hp, basis=basis), table


class TestObserved:
    def table(self):
        rates = np.array([0.0100, 0.0098, 0.0200, 0.0200])
        return MortalityTable([60, 60, 61, 61], [2000, 2001, 2000, 2001], rates * 1e5, np.full(4, 1e5))

    def test_equal_rates_give_zero(self):
        curve = mi_back_observed(self.table(), 2001, ages=[61])
        assert curve.mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_percent_drop(self):
        curve = mi_back_observed(self.table(), 2001, ages=[60])
        assert curve.mean[0] == pytest.approx(0.02, rel=1e-9)

    def test_missing_adjacent_year_omitted_with_warning(self):
        with pytest.warns(UserWarning, match="missing cell"):
            curve = mi_back_observed(self.table(), 2001, ages=[60, 61, 62])
        np.testing.assert_array_equal(curve.ages, [60, 61])

    def test_no_usable_age_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an error that follows needs no warning before it
            with pytest.raises(ValueError, match="no age"):
                mi_back_observed(self.table(), 2005)

    def test_one_warning_per_reason_lists_the_ages(self):
        base = self.table()
        with pytest.warns(UserWarning, match="zero-death cell"):
            table = MortalityTable([*base.age, 63, 63], [*base.year, 2000, 2001], [*base.deaths, 0.0, 5.0], [*base.exposure, 1e5, 1e5])
        with pytest.warns(UserWarning) as record:
            curve = mi_back_observed(table, 2001, ages=[60, 61, 62, 63, 64])
        np.testing.assert_array_equal(curve.ages, [60, 61])
        assert [str(w.message) for w in record] == [
            "a missing cell in 2001 or 2000; omitted age(s) 62, 64",
            "a zero-death cell in 2001 or 2000; omitted age(s) 63",
        ]

    def test_observed_noisier_than_smoothed(self):
        rng = np.random.default_rng(61)
        table = table_from_surface(
            range(50, 80), range(2000, 2012), lambda a, y: -5.0 + 0.03 * a - 0.012 * (y - 2000) + 0.03 * rng.standard_normal()
        )
        hp = KernelHyperparams(theta_ag=10.0, theta_yr=10.0, eta_sq=0.5, sigma_sq=0.03**2)
        gp = fit_gls(table, SQEXP, hp)
        ages = range(50, 80)
        observed = mi_back_observed(table, 2010, ages=ages)
        smoothed = mi_back_gp(gp, list(ages), 2010)
        assert observed.mean.std() > 2 * smoothed.mean.std()
        assert observed.sd is None and smoothed.sd is not None


class TestBackwardGP:
    def test_degenerate_posterior_with_equal_means_is_exactly_zero(self, monkeypatch):
        # equal means in the two years give a year difference of exactly 0
        gp, _ = linear_trend_gp()
        monkeypatch.setattr(gp_mod, "_year_difference", lambda gp, ages, lo, hi: (np.zeros(len(ages)), np.zeros(len(ages))))
        curve = mi_back_gp(gp, [55, 60], 2008)
        for values in (curve.mean, curve.sd, curve.lo, curve.hi):
            np.testing.assert_array_equal(values, np.zeros(2))

    def test_deterministic_trend_limit(self):
        gp, _ = linear_trend_gp(slope=-0.014)
        curve = mi_back_gp(gp, [58, 62], 2008)
        assert curve.mean == pytest.approx(1.0 - math.exp(-0.014), rel=5e-3)

    def test_far_future_reverts_to_zero_improvement(self):
        table = table_from_surface(range(50, 70), range(2000, 2012), lambda a, y: -4.0 + 0.02 * a)
        hp = KernelHyperparams(theta_ag=8.0, theta_yr=10.0, eta_sq=0.5, sigma_sq=1e-4)
        gp = fit_gls(table, SQEXP, hp, basis=MeanBasis.INTERCEPT)
        curve = mi_back_gp(gp, [60], 2300)
        assert abs(curve.mean[0]) < 0.01

    def test_band_ordering(self):
        gp, _ = linear_trend_gp(sigma_sq=2e-4)
        curve = mi_back_gp(gp, list(range(52, 68)), 2011, level=0.8)
        assert np.all(curve.lo <= curve.mean) and np.all(curve.mean <= curve.hi)


def routed_gp(family, route):
    """A fit to a simulated 12 x 10 grid that takes the named whitener route."""
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=4.0, eta_sq=0.3, sigma_sq=4e-4)
    table = simulate_grid_table(range(50, 62), range(2000, 2010), hp, seed=14)
    if route == "holes":  # part of the last year missing
        table = rows_of(table, ~((table.year == 2009) & (table.age > 55)))
    if route == "dense":  # a non-constant noise diagonal
        noise = hp.sigma_sq * np.linspace(0.5, 2.0, len(table))
        gp = fit_gls_xy(table.inputs(), table.responses(), family, hp, basis=MeanBasis.LINEAR, noise_diag=noise)
    else:
        gp = fit_gls(table, family, hp, basis=MeanBasis.LINEAR)
    grid = isinstance(gp.whitener, gp_mod._GridWhitener)
    assert {"grid": grid and gp.whitener.cells is None, "holes": grid and gp.whitener.cells is not None, "dense": not grid}[route]
    return gp


class TestBackwardClosedForm:
    @pytest.mark.parametrize("route", ["grid", "holes", "dense"])
    @pytest.mark.parametrize("family", [SQEXP, MATERN], ids=["sqexp", "matern52"])
    def test_matches_log_normal_moments_of_joint_posterior(self, family, route):
        gp = routed_gp(family, route)
        ages = np.arange(50, 62)
        z = _quantile_z(0.9)
        for year in (2005, 2009, 2012):
            post = predict(gp, np.vstack([np.column_stack([ages, np.full(12, y)]) for y in (year - 1, year)]), want_covariance=True)
            c = post.covariance
            mu = post.mean[12:] - post.mean[:12]
            var = np.diag(c)[12:] + np.diag(c)[:12] - 2.0 * np.diag(c[:12, 12:])
            curve = mi_back_gp(gp, ages, year, level=0.9)
            np.testing.assert_allclose(curve.mean, 1.0 - np.exp(mu + var / 2), rtol=0, atol=1e-12)
            np.testing.assert_allclose(curve.sd, np.exp(mu + var / 2) * np.sqrt(np.expm1(var)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(curve.lo, 1.0 - np.exp(mu + z * np.sqrt(var)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(curve.hi, 1.0 - np.exp(mu - z * np.sqrt(var)), rtol=0, atol=1e-12)

    def test_agrees_with_sampling_oracle(self, monkeypatch):
        # draws of d ~ N(mu, s^2) made here, sharing no formula with the closed form
        mu, var = np.array([-0.02, 0.01, 0.0, -0.3]), np.array([1e-4, 0.01, 0.09, 0.25])
        gp, _ = linear_trend_gp()
        monkeypatch.setattr(gp_mod, "_year_difference", lambda gp, ages, lo, hi: (mu, var))
        level, n = 0.8, 200_000
        curve = mi_back_gp(gp, [50, 51, 52, 53], 2008, level=level)
        d = mu[:, None] + np.sqrt(var)[:, None] * np.random.default_rng(14).standard_normal((4, n))
        factor = 1.0 - np.exp(d)
        sd = factor.std(axis=1, ddof=1)
        se_var = ((factor - factor.mean(axis=1, keepdims=True)) ** 2).std(axis=1) / math.sqrt(n)
        assert np.all(np.abs(curve.mean - factor.mean(axis=1)) < 5 * sd / math.sqrt(n))
        assert np.all(np.abs(curve.sd - sd) < 5 * se_var / (2 * sd))
        # each band edge cuts off (1 - level)/2 of the draws; lo is d's upper tail
        tail, se_tail = (1 - level) / 2, math.sqrt((1 - level) / 2 * (1 + level) / 2 / n)
        assert np.all(curve.lo < curve.hi)
        assert np.all(np.abs((factor < curve.lo[:, None]).mean(axis=1) - tail) < 5 * se_tail)
        assert np.all(np.abs((d > np.log1p(-curve.lo)[:, None]).mean(axis=1) - tail) < 5 * se_tail)
        assert np.all(np.abs((factor > curve.hi[:, None]).mean(axis=1) - tail) < 5 * se_tail)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize(
    "curve",
    [
        lambda gp, level: mi_back_gp(gp, [60], 2008, level=level),
        lambda gp, level: mi_diff_gp(gp, [60], 2008, level=level),
        lambda gp, level: mi_centered(gp, [60], 2008, h=1.0, level=level),
    ],
    ids=["back", "diff", "centered"],
)
def test_credible_level_outside_unit_interval_rejected(curve, level):
    gp, _ = linear_trend_gp(sigma_sq=1e-4)
    with pytest.raises(ValueError, match=r"credible level must be in \(0, 1\)"):
        curve(gp, level)


class TestCentered:
    def test_linear_surface_gives_slope_for_every_h(self):
        slope = -0.014
        gp, _ = linear_trend_gp(slope=slope)
        for h in (2.0, 1.0, 0.25, 0.01):
            curve = mi_centered(gp, [55, 60, 65], 2006, h=h)
            np.testing.assert_allclose(curve.mean, -slope, rtol=1e-6)

    def test_degenerate_posterior_gives_zero_sd(self):
        gp, table = linear_trend_gp()
        curve = mi_centered(gp, [60], 2006, h=1.0)
        assert curve.sd[0] == pytest.approx(0.0, abs=1e-4)

    def test_variance_nonnegative_and_bands_ordered(self):
        gp, _ = linear_trend_gp(sigma_sq=3e-4)
        curve = mi_centered(gp, list(range(51, 69)), 2013, h=0.5)
        assert np.all(curve.sd >= 0)
        assert np.all((curve.lo <= curve.mean) & (curve.mean <= curve.hi))

    def test_converges_to_derivative_gp_at_quadratic_rate(self):
        rng = np.random.default_rng(62)
        x = np.column_stack([rng.uniform(0, 20, 80), rng.uniform(0, 12, 80)])
        y = -4.0 + 0.05 * x[:, 0] - 0.3 * np.sin(0.5 * x[:, 1])
        hp = KernelHyperparams(theta_ag=4.0, theta_yr=3.0, eta_sq=0.6, sigma_sq=1e-4)
        gp = fit_gls_xy(x, y, SQEXP, hp, basis=MeanBasis.INTERCEPT)
        ages = [8.0]
        exact = mi_diff_gp(gp, ages, 6.0)
        mean_errors, sd_errors = [], []
        for h in (1.0, 0.5, 0.25):
            approx = mi_centered(gp, ages, 6.0, h=h)
            mean_errors.append(abs(approx.mean[0] - exact.mean[0]))
            sd_errors.append(abs(approx.sd[0] - exact.sd[0]))
        # halving h divides the truncation error by about four
        assert mean_errors[1] < mean_errors[0] / 3.0
        assert mean_errors[2] < mean_errors[1] / 3.0
        assert sd_errors[1] < sd_errors[0] / 3.0
        assert sd_errors[2] < sd_errors[1] / 3.0

    def test_invalid_h_rejected(self):
        gp, _ = linear_trend_gp()
        with pytest.raises(ValueError, match="positive"):
            mi_centered(gp, [60], 2006, h=0.0)


class TestDerivativeGP:
    @pytest.mark.parametrize("family", [SQEXP, MATERN], ids=["sqexp", "matern52"])
    def test_self_consistent_with_surface_derivative(self, family):
        rng = np.random.default_rng(63)
        x = np.column_stack([rng.uniform(0, 25, 90), rng.uniform(0, 14, 90)])
        y = -4.0 + 0.04 * x[:, 0] - 0.02 * x[:, 1] + 0.2 * np.cos(0.4 * x[:, 1])
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=4.0, eta_sq=0.7, sigma_sq=2e-4)
        for basis in (None, MeanBasis.INTERCEPT, MeanBasis.LINEAR, MeanBasis.QUADRATIC_AGE):
            gp = fit_gls_xy(x, y, family, hp, basis=basis)
            h = 1e-4
            for age, year in [(5.0, 3.0), (12.0, 7.5), (20.0, 13.0), (24.0, 20.0)]:
                up = predict(gp, [[age, year + h]]).mean[0]
                down = predict(gp, [[age, year - h]]).mean[0]
                fd = -(up - down) / (2 * h)
                analytic = mi_diff_gp(gp, [age], year).mean[0]
                assert abs(analytic - fd) / (abs(fd) + 1e-12) < 1e-5

    @pytest.mark.parametrize("family", [SQEXP, MATERN], ids=["sqexp", "matern52"])
    def test_variance_matches_covariance_curvature_oracle(self, family):
        # Var[df/dyr] is the mixed second derivative of the posterior
        # covariance at coincident points, estimated here by differencing
        rng = np.random.default_rng(99)
        x = np.column_stack([rng.uniform(0, 25, 90), rng.uniform(0, 14, 90)])
        y = -4.0 + 0.04 * x[:, 0] - 0.02 * x[:, 1] + 0.2 * np.cos(0.4 * x[:, 1])
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=4.0, eta_sq=0.7, sigma_sq=2e-4)
        h = 1e-3
        for basis in (None, MeanBasis.INTERCEPT, MeanBasis.QUADRATIC_AGE):
            gp = fit_gls_xy(x, y, family, hp, basis=basis)
            for age, year in [(5.0, 3.0), (12.0, 7.5), (24.0, 25.0)]:
                post = predict(gp, [[age, year + h], [age, year - h]], want_covariance=True)
                c = post.covariance
                fd_var = (c[0, 0] - 2 * c[0, 1] + c[1, 1]) / (4 * h * h)
                analytic = mi_diff_gp(gp, [age], year).sd[0] ** 2
                assert abs(analytic - fd_var) / (abs(analytic) + 1e-12) < 1e-4

    def test_constant_data_gives_zero_improvement(self):
        table = table_from_surface(range(55, 65), range(2000, 2010), lambda a, y: -4.2)
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=5.0, eta_sq=0.3, sigma_sq=1e-4)
        gp = fit_gls(table, SQEXP, hp, basis=MeanBasis.INTERCEPT)
        curve = mi_diff_gp(gp, [57, 60, 63], 2005)
        np.testing.assert_allclose(curve.mean, 0.0, atol=1e-12)
        assert np.all(curve.sd >= 0)

    @pytest.mark.parametrize("family, factor", [(SQEXP, 1.0), (MATERN, 5.0 / 3.0)], ids=["sqexp", "matern52"])
    def test_far_field_variance_is_prior_derivative_variance(self, family, factor):
        table = table_from_surface(range(55, 65), range(2000, 2010), lambda a, y: -4.2)
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=5.0, eta_sq=0.3, sigma_sq=1e-4)
        gp = fit_gls(table, family, hp, basis=MeanBasis.INTERCEPT)
        curve = mi_diff_gp(gp, [60], 2300)
        assert curve.sd[0] ** 2 == pytest.approx(factor * hp.eta_sq / hp.theta_yr**2, rel=1e-10)

    def test_far_field_mean_is_negated_trend_slope(self):
        gp, _ = linear_trend_gp(slope=-0.01417, sigma_sq=1e-4, basis=MeanBasis.QUADRATIC_AGE)
        curve = mi_diff_gp(gp, [60], 2500)
        assert curve.mean[0] == pytest.approx(-gp.beta[2], rel=1e-9)
        assert curve.mean[0] == pytest.approx(0.01417, rel=1e-3)

    def test_band_ordering(self):
        gp, _ = linear_trend_gp(sigma_sq=2e-4)
        curve = mi_diff_gp(gp, list(range(51, 69)), 2011, level=0.8)
        assert np.all((curve.lo <= curve.mean) & (curve.mean <= curve.hi))
