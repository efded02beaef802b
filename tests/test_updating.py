import numpy as np
import pytest

from mortgp import (
    DeltaMethodNoise,
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    MortalityCell,
    MortalityTable,
    fit_gls,
    predict,
    subset,
    SubsetSpec,
    update,
    update_report,
)

from conftest import table_from_surface

SQEXP = KernelFamily.SQUARED_EXPONENTIAL
HP = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.4, sigma_sq=3e-4)


def surface(age, year):
    return -5.0 + 0.04 * age - 0.012 * (year - 1999)


@pytest.fixture(scope="module")
def tables():
    full = table_from_surface(range(50, 70), range(1999, 2012), surface)
    base = subset(full, SubsetSpec.rectangle((1999, 2010), (50, 69)))
    new = subset(full, SubsetSpec.rectangle((2011, 2011), (50, 69)))
    return full, base, new


class TestUpdate:
    def test_empty_update_is_identity(self, tables):
        _, base, _ = tables
        gp = fit_gls(base, SQEXP, HP)
        updated = update(gp, MortalityTable([]))
        probes = np.array([[55.0, 2013.0], [65.0, 2005.0]])
        before = predict(gp, probes, want_covariance=True)
        after = predict(updated, probes, want_covariance=True)
        np.testing.assert_allclose(after.mean, before.mean, atol=1e-12)
        np.testing.assert_allclose(after.covariance, before.covariance, atol=1e-12)

    def test_update_equals_full_refit(self, tables):
        full, base, new = tables
        gp = fit_gls(base, SQEXP, HP, basis=MeanBasis.LINEAR)
        updated = update(gp, new)
        union = subset(full, SubsetSpec.rectangle((1999, 2011), (50, 69)))
        refit = fit_gls(union, SQEXP, HP, basis=MeanBasis.LINEAR)
        probes = np.array([[a, y] for a in (50.0, 57.5, 69.0) for y in (2000.0, 2011.0, 2014.0)])
        pu = predict(updated, probes)
        pr = predict(refit, probes)
        assert np.max(np.abs(pu.mean - pr.mean)) < 1e-10
        assert np.max(np.abs(pu.sd - pr.sd)) < 1e-10
        np.testing.assert_array_equal(updated.x, refit.x)

    def test_update_equals_refit_with_delta_noise(self, tables):
        full, base, new = tables
        noise = DeltaMethodNoise(2.0)
        gp = fit_gls(base, SQEXP, HP, noise=noise)
        updated = update(gp, new)
        union = subset(full, SubsetSpec.rectangle((1999, 2011), (50, 69)))
        refit = fit_gls(union, SQEXP, HP, noise=noise)
        probes = np.array([[60.0, 2012.0]])
        assert abs(predict(updated, probes).mean[0] - predict(refit, probes).mean[0]) < 1e-10
        np.testing.assert_array_equal(updated.noise_diag, refit.noise_diag)

    def test_overlapping_cells_rejected(self, tables):
        _, base, _ = tables
        gp = fit_gls(base, SQEXP, HP)
        overlap = subset(base.merge(MortalityTable([])), SubsetSpec.rectangle((2010, 2010), (50, 55)))
        with pytest.raises(ValueError, match="overlap"):
            update(gp, overlap)

    def test_new_data_without_trainable_cells_rejected(self, tables):
        _, base, new = tables
        gp = fit_gls(base, SQEXP, HP)
        with pytest.warns(UserWarning, match="zero-death"):
            dead = MortalityTable([MortalityCell(age=c.age, year=c.year, deaths=0.0, exposure=c.exposure) for c in new])
        with pytest.raises(ValueError, match=f"new data has no trainable cells: all {len(new)} of its cells"):
            update(gp, dead)

    def test_posterior_sd_never_increases(self, tables):
        _, base, new = tables
        gp = fit_gls(base, SQEXP, HP)
        updated = update(gp, new)
        rng = np.random.default_rng(91)
        probes = np.column_stack([rng.uniform(50, 70, 40), rng.uniform(1999, 2018, 40)])
        report = update_report(gp, updated, probes)
        assert np.all(report.sd_delta >= -1e-10)

    def test_far_past_probes_insensitive(self, tables):
        _, base, new = tables
        # short year lengthscale so the 1999 edge sits more than 3 lengthscales
        # before the new 2011 data while staying anchored in-sample
        hp = KernelHyperparams(theta_ag=8.0, theta_yr=3.0, eta_sq=0.4, sigma_sq=3e-4)
        gp = fit_gls(base, SQEXP, hp)
        updated = update(gp, new)
        far_past = np.array([[a, 1999.0] for a in (52.0, 60.0, 68.0)])
        report = update_report(gp, updated, far_past)
        assert np.max(np.abs(report.after.mean - report.before.mean)) < 1e-3 * np.sqrt(hp.eta_sq)

    def test_report_rejects_sd_increase(self, tables):
        _, base, new = tables
        gp = fit_gls(base, SQEXP, HP)
        updated = update(gp, new)
        probes = np.array([[60.0, 2012.0]])
        with pytest.raises(ValueError, match="sd increased"):
            update_report(updated, gp, probes)  # reversed arguments

    def test_sd_drop_concentrates_near_new_data(self, tables):
        _, base, new = tables
        gp = fit_gls(base, SQEXP, HP)
        updated = update(gp, new)
        probes = np.array([[60.0, 2013.0], [60.0, 2000.0]])
        report = update_report(gp, updated, probes)
        assert report.sd_delta[0] > 10 * max(report.sd_delta[1], 1e-12)
