import math

import numpy as np
import pytest

from mortgp import (
    ConstantNoise,
    DeltaMethodNoise,
    KernelFamily,
    KernelHyperparams,
    MortalityCell,
    MortalityTable,
    cov,
    cov_matrix,
    cross_cov,
    d2cov_dyr2,
    dcov_dyr,
    noise_diagonal,
)
from mortgp import kernels
from mortgp.kernels import observation_variance

SQEXP = KernelFamily.SQUARED_EXPONENTIAL
MATERN = KernelFamily.MATERN52

HP = KernelHyperparams(theta_ag=8.0, theta_yr=12.0, eta_sq=1.8468, sigma_sq=2.808e-4)


def random_hp(rng):
    return KernelHyperparams(
        theta_ag=float(rng.uniform(0.8, 30.0)),
        theta_yr=float(rng.uniform(0.8, 30.0)),
        eta_sq=float(rng.uniform(0.1, 5.0)),
        sigma_sq=float(rng.uniform(0.0, 1e-2)),
    )


def random_pair(rng):
    return rng.uniform(0, 40, size=2), rng.uniform(0, 40, size=2)


def closed_forms(family, hp, x, xs):
    """All-pairs C(x_i, xs_j) from the formulas, with dC/dxs_yr and d2C/dx_yr dxs_yr for the squared-exponential."""
    d_ag = x[:, 0:1] - xs[None, :, 0]
    d_yr = x[:, 1:2] - xs[None, :, 1]
    if family is SQEXP:
        c = hp.eta_sq * np.exp(-(d_ag**2) / (2.0 * hp.theta_ag**2) - d_yr**2 / (2.0 * hp.theta_yr**2))
        return c, c * d_yr / hp.theta_yr**2, c * (1.0 - (d_yr / hp.theta_yr) ** 2) / hp.theta_yr**2

    def m(r):
        return (1.0 + math.sqrt(5.0) * r + 5.0 * r * r / 3.0) * np.exp(-math.sqrt(5.0) * r)

    return hp.eta_sq * m(np.abs(d_ag) / hp.theta_ag) * m(np.abs(d_yr) / hp.theta_yr), None, None


def integer_grid(ages, years):
    return np.array([[a, y] for y in years for a in ages], dtype=float)


# (x, xs) pairs for the kernel gathers: each row's ages and years index tables over the distinct values
KERNEL_INPUTS = {
    "continuous": lambda rng: (rng.uniform(0, 40, size=(30, 2)), rng.uniform(0, 40, size=(20, 2))),
    "repeated_grid": lambda rng: (
        np.vstack([integer_grid(range(50, 58), range(2000, 2006)), [[53.0, 2002.0], [50.0, 2005.0]]]),
        integer_grid(range(50, 58, 2), range(2000, 2006)),
    ),
    "notched_grid": lambda rng: (
        np.delete(integer_grid(range(50, 60), range(2000, 2008)), [3, 4, 15, 40, 79], axis=0),
        integer_grid(range(50, 60), range(2000, 2008))[::-1],
    ),
    "single_row": lambda rng: (np.array([[60.0, 2005.0]]), integer_grid(range(55, 65), range(2003, 2008))),
    "absent_queries": lambda rng: (
        integer_grid(range(50, 60), range(2000, 2008)),
        np.column_stack([rng.uniform(45.0, 65.0, 12), rng.choice([1995.5, 2008.0, 2010.0, 2012.25], 12)]),
    ),
}


class TestHyperparams:
    @pytest.mark.parametrize("field,value", [("theta_ag", 0.0), ("theta_yr", -1.0), ("eta_sq", 0.0), ("sigma_sq", -1e-9)])
    def test_invalid_values_rejected(self, field, value):
        kwargs = dict(theta_ag=1.0, theta_yr=1.0, eta_sq=1.0, sigma_sq=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            KernelHyperparams(**kwargs)

    def test_numpy_scalars_stored_as_floats(self):
        hp = KernelHyperparams(np.float64(2.0), np.float64(3.0), np.float64(0.5), np.float64(1e-4))
        assert all(type(getattr(hp, f)) is float for f in ("theta_ag", "theta_yr", "eta_sq", "sigma_sq"))
        assert repr(hp.theta_ag) == "2.0"

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            KernelHyperparams(theta_ag=math.nan, theta_yr=1.0, eta_sq=1.0)


class TestCov:
    def test_equal_inputs_give_process_variance(self):
        assert cov(SQEXP, HP, (60, 2005), (60, 2005)) == pytest.approx(1.8468, abs=0)
        assert cov(MATERN, HP, (60, 2005), (60, 2005)) == pytest.approx(1.8468, abs=0)

    def test_one_lengthscale_separation(self):
        value = cov(SQEXP, HP, (60.0, 2005.0), (60.0 + HP.theta_ag, 2005.0))
        assert value == pytest.approx(HP.eta_sq * math.exp(-0.5), rel=1e-14)

    @pytest.mark.parametrize("family", [SQEXP, MATERN])
    def test_matches_scalar_formula(self, family):
        rng = np.random.default_rng(7)
        for _ in range(50):
            hp = random_hp(rng)
            x, xp = random_pair(rng)
            if family is SQEXP:
                expected = hp.eta_sq * math.exp(
                    -((x[0] - xp[0]) ** 2) / (2 * hp.theta_ag**2) - ((x[1] - xp[1]) ** 2) / (2 * hp.theta_yr**2)
                )
            else:
                expected = hp.eta_sq
                for d, theta in (((x[0] - xp[0]), hp.theta_ag), ((x[1] - xp[1]), hp.theta_yr)):
                    r = abs(d) / theta
                    expected *= (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
            assert cov(family, hp, x, xp) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("family", [SQEXP, MATERN])
    def test_symmetry_exact(self, family):
        rng = np.random.default_rng(8)
        for _ in range(100):
            hp = random_hp(rng)
            x, xp = random_pair(rng)
            assert cov(family, hp, x, xp) == cov(family, hp, xp, x)

    @pytest.mark.parametrize("family", [SQEXP, MATERN])
    def test_stationarity_bit_identical_under_integer_shift(self, family):
        rng = np.random.default_rng(9)
        for _ in range(50):
            hp = random_hp(rng)
            x = rng.integers(0, 50, size=2).astype(float)
            xp = rng.integers(0, 50, size=2).astype(float)
            shift = rng.integers(-30, 30, size=2).astype(float)
            assert cov(family, hp, x, xp) == cov(family, hp, x + shift, xp + shift)

    def test_anisotropy(self):
        v1 = cov(SQEXP, HP, (0.0, 0.0), (3.0, 5.0))
        v2 = cov(SQEXP, HP, (0.0, 0.0), (5.0, 3.0))
        assert v1 != v2
        hp_iso = KernelHyperparams(theta_ag=7.0, theta_yr=7.0, eta_sq=1.0)
        assert cov(SQEXP, hp_iso, (0.0, 0.0), (3.0, 5.0)) == cov(SQEXP, hp_iso, (0.0, 0.0), (5.0, 3.0))

    def test_bounded_by_process_variance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            hp = random_hp(rng)
            x, xp = random_pair(rng)
            v = cov(SQEXP, hp, x, xp)
            assert 0.0 < v <= hp.eta_sq


class TestCovMatrix:
    def test_single_point(self):
        m = cov_matrix(SQEXP, HP, [(60, 2005)])
        np.testing.assert_array_equal(m, [[HP.eta_sq]])

    def test_collinear_equally_spaced_is_toeplitz(self):
        x = [(60.0, 2000.0 + k) for k in range(3)]
        m = cov_matrix(SQEXP, HP, x)
        assert m[0, 1] == m[1, 2]
        assert m[0, 0] == m[1, 1] == m[2, 2]

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 40, size=(30, 2))
        for family in (SQEXP, MATERN):
            m = cov_matrix(family, HP, x)
            np.testing.assert_array_equal(m, m.T)

    @pytest.mark.parametrize("family", [SQEXP, MATERN])
    def test_numerically_psd(self, family):
        rng = np.random.default_rng(12)
        for _ in range(10):
            hp = random_hp(rng)
            x = rng.uniform(0, 40, size=(25, 2))
            eigenvalues = np.linalg.eigvalsh(cov_matrix(family, hp, x))
            assert eigenvalues.min() >= -1e-10 * hp.eta_sq

    @pytest.mark.parametrize("case", list(KERNEL_INPUTS))
    @pytest.mark.parametrize("family", [SQEXP, MATERN])
    def test_gathers_match_closed_form(self, family, case):
        rng = np.random.default_rng(14)
        x, xs = KERNEL_INPUTS[case](rng)
        for _ in range(5):
            # lengthscales of the order of the input spread keep every exponent above -25,
            # where float64 evaluates exp(a + b) itself to about 1e-14 relative
            hp = KernelHyperparams(*rng.uniform(8.0, 30.0, 2), rng.uniform(0.1, 5.0))
            c, dc, d2c = closed_forms(family, hp, x, xs)
            np.testing.assert_allclose(cross_cov(family, hp, x, xs), c, rtol=1e-14, atol=0.0)
            k = cov_matrix(family, hp, x)
            np.testing.assert_allclose(k, closed_forms(family, hp, x, x)[0], rtol=1e-14, atol=0.0)
            np.testing.assert_array_equal(k, k.T)
            if family is SQEXP:
                np.testing.assert_allclose(kernels.dcross_cov_dyr(hp, x, xs), dc, rtol=1e-14, atol=0.0)
                for i, j in [(0, 0), (0, xs.shape[0] - 1), (x.shape[0] - 1, 0)]:
                    assert dcov_dyr(hp, x[i], xs[j]) == pytest.approx(dc[i, j], rel=1e-14, abs=0.0)
                    assert d2cov_dyr2(hp, x[i], xs[j]) == pytest.approx(d2c[i, j], rel=1e-14, abs=0.0)

    def test_cross_cov_consistent_with_scalar(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 40, size=(4, 2))
        xs = rng.uniform(0, 40, size=(3, 2))
        c = cross_cov(SQEXP, HP, x, xs)
        for i in range(4):
            for j in range(3):
                assert c[i, j] == pytest.approx(cov(SQEXP, HP, x[i], xs[j]), rel=1e-15)


class TestYearDerivatives:
    def test_zero_year_gap_kills_first_derivative(self):
        assert dcov_dyr(HP, (60.0, 2005.0), (75.0, 2005.0)) == 0.0

    def test_second_derivative_at_origin(self):
        assert d2cov_dyr2(HP, (60.0, 2005.0), (60.0, 2005.0)) == pytest.approx(HP.eta_sq / HP.theta_yr**2, rel=1e-14)

    def test_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(1000):
            hp = random_hp(rng)
            x, xp = random_pair(rng)
            fd = (cov(SQEXP, hp, x, xp + [0, h]) - cov(SQEXP, hp, x, xp - [0, h])) / (2 * h)
            analytic = dcov_dyr(hp, x, xp)
            assert abs(analytic - fd) / (abs(analytic) + 1e-12) < 1e-5

    def test_second_derivative_matches_finite_difference_of_first(self):
        rng = np.random.default_rng(15)
        h = 1e-5
        for _ in range(1000):
            hp = random_hp(rng)
            x, xp = random_pair(rng)
            fd = (dcov_dyr(hp, x + [0, h], xp) - dcov_dyr(hp, x - [0, h], xp)) / (2 * h)
            analytic = d2cov_dyr2(hp, x, xp)
            assert abs(analytic - fd) / (abs(analytic) + 1e-12) < 1e-5

    def test_matern_rejected(self):
        with pytest.raises(NotImplementedError, match="matern52"):
            dcov_dyr(HP, (60, 2005), (61, 2006), family=MATERN)
        with pytest.raises(NotImplementedError, match="matern52"):
            d2cov_dyr2(HP, (60, 2005), (61, 2006), family=MATERN)


class TestNoiseModels:
    def table(self, deaths=100.0, exposure=1e4, n=5):
        return MortalityTable(
            [MortalityCell(age=60 + i, year=2000, deaths=deaths, exposure=exposure) for i in range(n)]
        )

    def test_constant_noise(self):
        diag = noise_diagonal(ConstantNoise(2.808e-4), self.table(n=5))
        np.testing.assert_array_equal(diag, np.full(5, 2.808e-4))

    def test_zero_constant_noise(self):
        np.testing.assert_array_equal(noise_diagonal(ConstantNoise(0.0), self.table()), np.zeros(5))

    def test_delta_method_value(self):
        # p = 0.01 at exposed-to-risk E = 1e5: deaths 1000, L = E - D/2
        table = MortalityTable([MortalityCell(age=60, year=2000, deaths=1000.0, exposure=1e5 - 500.0)])
        diag = noise_diagonal(DeltaMethodNoise(overdispersion=2.0), table)
        assert diag[0] == pytest.approx(2.0 * 0.99 / (0.01 * 1e5), rel=1e-12)

    def test_delta_method_rejects_zero_death_cells(self):
        with pytest.warns(UserWarning):
            table = MortalityTable(
                [
                    MortalityCell(age=60, year=2000, deaths=0.0, exposure=1e4),
                    MortalityCell(age=61, year=2000, deaths=10.0, exposure=1e4),
                ]
            )
        with pytest.raises(ValueError, match="deaths > 0"):
            noise_diagonal(DeltaMethodNoise(2.0), table)

    def test_observation_variance(self):
        assert observation_variance(ConstantNoise(0.5)) == 0.5
        with pytest.raises(ValueError, match="constant"):
            observation_variance(DeltaMethodNoise(2.0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConstantNoise(-1.0)
        with pytest.raises(ValueError):
            DeltaMethodNoise(0.0)
