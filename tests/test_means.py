import numpy as np
import pytest

from mortgp import KernelFamily, KernelHyperparams, MeanBasis, basis_matrix, fit_gls_xy, predict_year_derivative
from mortgp.means import basis_change_matrix, basis_dim


def basis_row(basis, x):
    """h(x) for a single (age, year) input: the one row of its design matrix."""
    return basis_matrix(basis, [x])[0]


def prior_mean(basis, coeffs, x) -> float:
    """h(x) . beta at one input."""
    return float(basis_row(basis, x) @ np.asarray(coeffs, dtype=float))


class TestBasisRow:
    def test_intercept(self):
        np.testing.assert_array_equal(basis_row(MeanBasis.INTERCEPT, (70, 2014)), [1.0])

    def test_linear_at_origin(self):
        np.testing.assert_array_equal(basis_row(MeanBasis.LINEAR, (0, 0)), [1.0, 0.0, 0.0])

    def test_quadratic(self):
        np.testing.assert_array_equal(basis_row(MeanBasis.QUADRATIC_AGE, (70, 2014)), [1.0, 70.0, 2014.0, 4900.0])

    def test_dimensions(self):
        assert basis_dim(None) == 0
        assert basis_dim(MeanBasis.INTERCEPT) == 1
        assert basis_dim(MeanBasis.LINEAR) == 3
        assert basis_dim(MeanBasis.QUADRATIC_AGE) == 4


class TestPriorMean:
    def test_intercept_constant(self):
        for x in [(50, 1999), (84, 2014), (0, 0)]:
            assert prior_mean(MeanBasis.INTERCEPT, [-4.526], x) == -4.526

    def test_quadratic_fitted_coefficients(self):
        # hand evaluation: 19.641 + 0.064*70 + 1.459e-4*70^2 - 1.417e-2*2009
        beta = [19.641, 0.064, -1.417e-2, 1.459e-4]
        expected = 19.641 + 0.064 * 70 + 1.459e-4 * 4900 - 1.417e-2 * 2009
        assert expected == pytest.approx(-3.63162, abs=1e-5)
        assert prior_mean(MeanBasis.QUADRATIC_AGE, beta, (70, 2009)) == pytest.approx(expected, rel=1e-14)

    def test_zero_coefficients(self):
        assert prior_mean(MeanBasis.LINEAR, [0.0, 0.0, 0.0], (70, 2009)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            prior_mean(MeanBasis.LINEAR, [1.0, 2.0], (70, 2009))

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
            x = rng.uniform(0, 100, size=2)
            lhs = prior_mean(MeanBasis.QUADRATIC_AGE, b1 + b2, x)
            rhs = prior_mean(MeanBasis.QUADRATIC_AGE, b1, x) + prior_mean(MeanBasis.QUADRATIC_AGE, b2, x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBasisMatrix:
    def test_full_column_rank_on_grid(self):
        x = np.array([[a, y] for a in range(50, 56) for y in range(2000, 2004)], dtype=float)
        for basis in MeanBasis:
            h = basis_matrix(basis, x)
            assert np.linalg.matrix_rank(h) == h.shape[1]

    def test_none_basis_gives_empty_matrix(self):
        assert basis_matrix(None, np.zeros((5, 2))).shape == (5, 0)

    def test_rows_match_one_row_matrices(self):
        x = np.array([[52.0, 2001.0], [60.0, 2013.0]])
        h = basis_matrix(MeanBasis.QUADRATIC_AGE, x)
        for i in range(2):
            np.testing.assert_array_equal(h[i], basis_row(MeanBasis.QUADRATIC_AGE, x[i]))


class TestBasisChange:
    @pytest.mark.parametrize("basis", list(MeanBasis))
    def test_scaled_coefficients_map_back_exactly(self, basis):
        rng = np.random.default_rng(17)
        center, scale = np.array([67.0, 2006.5]), np.array([10.1, 4.6])
        m = basis_change_matrix(basis, center, scale)
        x = np.column_stack([rng.uniform(50, 85, 30), rng.uniform(1999, 2015, 30)])
        h_raw = basis_matrix(basis, x)
        h_scaled = basis_matrix(basis, (x - center) / scale)
        beta_scaled = rng.standard_normal(basis_dim(basis))
        np.testing.assert_allclose(h_scaled @ beta_scaled, h_raw @ (m.T @ beta_scaled), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "basis, dh", [(MeanBasis.INTERCEPT, [0.0]), (MeanBasis.LINEAR, [0.0, 0.0, 1.0]), (MeanBasis.QUADRATIC_AGE, [0.0, 0.0, 1.0, 0.0])]
    )
    def test_year_derivative_vectors(self, basis, dh):
        # on data that is exactly a trend, the year-derivative posterior's mean is the trend's, dh . beta
        rng = np.random.default_rng(18)
        x = np.array([[a, y] for y in range(2000, 2008) for a in range(60, 70)], dtype=float)
        beta = rng.standard_normal(basis_dim(basis)) * [1.0, 0.05, 0.05, 0.001][: basis_dim(basis)]
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=4.0, eta_sq=0.5, sigma_sq=1e-4)
        gp = fit_gls_xy(x, basis_matrix(basis, x) @ beta, KernelFamily.SQUARED_EXPONENTIAL, hp, basis=basis)
        xs = np.column_stack([rng.uniform(60, 70, 5), rng.uniform(2000, 2010, 5)])
        np.testing.assert_allclose(predict_year_derivative(gp, xs).mean, np.dot(dh, beta), rtol=0.0, atol=1e-9)
