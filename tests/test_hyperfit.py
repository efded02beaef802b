import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mortgp.gp as gp_mod
import mortgp.hyperfit as hyperfit
from mortgp import (
    ConstantNoise,
    DeltaMethodNoise,
    FitConfig,
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    MortalityCell,
    MortalityTable,
    fit_gls,
    fit_mle,
    log_marginal_likelihood,
    make_standardizer,
    noise_diagonal,
    subset,
)
from mortgp.data import SUBSET_PRESETS
from mortgp.means import basis_dim

from conftest import simulate_gp_table, table_from_surface

SQEXP = KernelFamily.SQUARED_EXPONENTIAL

TRUE_HP = KernelHyperparams(theta_ag=6.0, theta_yr=6.0, eta_sq=0.5, sigma_sq=4e-4)


@pytest.fixture(scope="module")
def sim_table():
    table, _, _ = simulate_gp_table(range(50, 65), range(2000, 2010), TRUE_HP, seed=101)
    return table


def quick_config(**kw):
    defaults = dict(n_restarts=2, seed=0)
    defaults.update(kw)
    return FitConfig(**defaults)


class TestFitMle:
    def test_reproducible_given_seed(self, sim_table):
        r1 = fit_mle(sim_table, config=quick_config())
        r2 = fit_mle(sim_table, config=quick_config())
        assert r1.hp == r2.hp
        assert r1.log_likelihood == r2.log_likelihood
        np.testing.assert_array_equal(r1.beta, r2.beta)
        assert [t.log_likelihood for t in r1.restart_trace] == [t.log_likelihood for t in r2.restart_trace]

    def test_reported_value_is_best_restart(self, sim_table):
        result = fit_mle(sim_table, config=quick_config(n_restarts=3))
        values = [t.log_likelihood for t in result.restart_trace]
        assert max(values) == pytest.approx(result.log_likelihood, abs=1e-6)

    def test_reevaluation_reproduces_log_likelihood(self, sim_table):
        result = fit_mle(sim_table, basis=MeanBasis.INTERCEPT, config=quick_config())
        again = log_marginal_likelihood(sim_table, result.family, result.hp, noise=result.noise, basis=result.basis)
        assert again == pytest.approx(result.log_likelihood, abs=1e-9)

    def test_lengthscale_recovery_on_simulated_data(self):
        table, _, _ = simulate_gp_table(range(50, 75), range(1999, 2012), TRUE_HP, seed=7)
        result = fit_mle(table, config=quick_config())
        assert result.hp.theta_ag == pytest.approx(TRUE_HP.theta_ag, rel=0.5)
        assert result.hp.theta_yr == pytest.approx(TRUE_HP.theta_yr, rel=0.5)
        assert result.hp.sigma_sq == pytest.approx(TRUE_HP.sigma_sq, rel=0.5)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_profiling_consistency_at_optimum(self, sim_table, family):
        config = quick_config(tol=1e-9, xatol=1e-6)
        result = fit_mle(sim_table, family=family, config=config)
        base = result.log_likelihood
        fields = ("theta_ag", "theta_yr", "eta_sq", "sigma_sq")
        for name in fields:
            for bump in (1.01, 0.99):
                kwargs = {f: getattr(result.hp, f) for f in fields}
                kwargs[name] = kwargs[name] * bump
                perturbed = log_marginal_likelihood(sim_table, family, KernelHyperparams(**kwargs))
                assert perturbed <= base + config.tol

    def test_response_shift_moves_only_intercept(self, sim_table):
        r1 = fit_mle(sim_table, config=quick_config())
        shifted = MortalityTable(
            [
                MortalityCell(age=c.age, year=c.year, deaths=c.deaths * math.e, exposure=c.exposure)
                for c in sim_table
            ]
        )
        r2 = fit_mle(shifted, config=quick_config())
        assert r2.hp.theta_ag == pytest.approx(r1.hp.theta_ag, rel=1e-3)
        assert r2.hp.theta_yr == pytest.approx(r1.hp.theta_yr, rel=1e-3)
        assert r2.hp.eta_sq == pytest.approx(r1.hp.eta_sq, rel=1e-3)
        assert r2.beta[0] == pytest.approx(r1.beta[0] + 1.0, abs=1e-4)

    def test_white_noise_hits_bounds(self):
        rng = np.random.default_rng(55)
        table = table_from_surface(range(60, 70), range(2000, 2010), lambda a, y: -4.0 + 0.05 * rng.standard_normal())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, config=quick_config())
        assert result.bound_hit
        assert result.converged

    def test_bound_stop_without_success_is_not_converged(self):
        rng = np.random.default_rng(55)
        table = table_from_surface(range(60, 70), range(2000, 2010), lambda a, y: -4.0 + 0.05 * rng.standard_normal())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, config=quick_config(max_iter=120))
        best = max(result.restart_trace, key=lambda rec: rec.log_likelihood)
        assert result.bound_hit
        assert not best.success
        assert not result.converged

    def test_delta_noise_mode_fixes_sigma(self, sim_table):
        result = fit_mle(sim_table, noise=DeltaMethodNoise(2.0), config=quick_config())
        assert isinstance(result.noise, DeltaMethodNoise)
        assert result.hp.sigma_sq == 0.0
        assert math.isfinite(result.log_likelihood)

    def test_degenerate_table_rejected(self):
        table = table_from_surface(range(60, 62), [2000, 2001], lambda a, y: -4.0)
        with pytest.raises(ValueError, match="at least"):
            fit_mle(table, basis=MeanBasis.QUADRATIC_AGE, config=quick_config())

    def test_unknown_noise_mode_rejected(self, sim_table):
        with pytest.raises(ValueError, match="noise mode"):
            fit_mle(sim_table, noise="heteroskedastic", config=quick_config())

    def test_restart_records_count_evaluations_and_iterations(self, sim_table):
        first, second = (fit_mle(sim_table, config=quick_config(n_restarts=3)) for _ in range(2))
        for rec in first.restart_trace:
            assert type(rec.evaluations) is int and type(rec.iterations) is int
            assert 0 < rec.iterations <= rec.evaluations
        counts = [[(t.evaluations, t.iterations) for t in r.restart_trace] for r in (first, second)]
        assert counts[0] == counts[1]

    def test_restart_log_likelihoods_are_plain_floats(self, sim_table):
        result = fit_mle(sim_table, config=quick_config(n_restarts=3))
        assert all(type(rec.log_likelihood) is float for rec in result.restart_trace)


class TestLikelihoodSurface:
    def test_grid_containing_mle_is_maximized_there(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        others = [
            KernelHyperparams(result.hp.theta_ag * f, result.hp.theta_yr * f, result.hp.eta_sq, result.hp.sigma_sq)
            for f in (0.2, 0.5, 2.0, 5.0)
        ]
        values = [log_marginal_likelihood(sim_table, SQEXP, hp, basis=MeanBasis.INTERCEPT) for hp in [result.hp, *others]]
        assert values[0] == max(values)

    def test_ridge_rises_then_falls_across_theta(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        factors = np.array([0.1, 0.4, 1.0, 2.5, 10.0])
        values = np.array(
            [
                log_marginal_likelihood(
                    sim_table,
                    SQEXP,
                    KernelHyperparams(result.hp.theta_ag * f, result.hp.theta_yr, result.hp.eta_sq, result.hp.sigma_sq),
                    basis=MeanBasis.INTERCEPT,
                )
                for f in factors
            ]
        )
        peak = int(np.argmax(values))
        assert peak == 2  # the fitted optimum
        assert np.all(np.diff(values[: peak + 1]) > 0)
        assert np.all(np.diff(values[peak:]) < 0)


class _Captured(Exception):
    pass


def capture_objective(monkeypatch, table, family, basis, noise):
    """The objective, start and log-space bounds fit_mle hands to the optimizer."""
    seen = {}

    def fake_minimize(fun, x0, method, bounds, options):
        seen.update(fun=fun, x0=np.asarray(x0), bounds=np.asarray(bounds))
        raise _Captured

    monkeypatch.setattr(hyperfit, "minimize", fake_minimize)
    with pytest.raises(_Captured):
        fit_mle(table, family=family, basis=basis, noise=noise, config=quick_config(n_restarts=1))
    return seen["fun"], seen["x0"], seen["bounds"]


class TestObjective:
    """The optimizer's objective is the profiled likelihood of gp, for every family."""

    @pytest.mark.parametrize("noise", ["constant", DeltaMethodNoise(1.5)], ids=["constant", "delta"])
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_log_marginal_likelihood(self, monkeypatch, sim_table, family, basis, noise):
        fun, x0, bounds = capture_objective(monkeypatch, sim_table, family, basis, noise)
        std = make_standardizer(sim_table)
        delta_diag = None if noise == "constant" else noise_diagonal(noise, sim_table)
        def noise_ratio(v):
            smallest_noise = math.exp(v[3]) if delta_diag is None else float(delta_diag.min())
            return smallest_noise / math.exp(v[2])

        rng = np.random.default_rng(8)
        draws = (rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(200))
        # below this noise-to-signal ratio conditioning alone moves the likelihood past the tolerance
        points = [x0] + [v for v in draws if noise_ratio(v) >= 1e-6]
        assert len(points) > 20
        for v in points:
            sigma_sq = math.exp(v[3]) if delta_diag is None else 0.0
            hp = KernelHyperparams(math.exp(v[0]) * std.sd_ag, math.exp(v[1]) * std.sd_yr, math.exp(v[2]), sigma_sq)
            model_noise = ConstantNoise(sigma_sq) if delta_diag is None else noise
            expected = log_marginal_likelihood(sim_table, family, hp, noise=model_noise, basis=basis)
            assert -fun(v) == pytest.approx(expected, rel=1e-8)


def grid_table(ages, years, seed=0):
    """Every (age, year) pair of the given ages and years, all cells trainable."""
    rng = np.random.default_rng(seed)
    return table_from_surface(
        ages, years, lambda a, y: -4.0 + 0.04 * (a - 60) - 0.01 * (y - 2000) + 0.05 * rng.standard_normal()
    )


def grid_and_dense_objectives(table, family, basis):
    """The objective on the table's rows, and on the rows reversed.

    Reversed rows are no longer in (year, age) order, so the second takes the
    dense route over the same data.
    """
    x = make_standardizer(table).apply(table.inputs())
    y = table.responses()
    grid = hyperfit._ProfiledLikelihood(family, x, y, basis, None)
    dense = hyperfit._ProfiledLikelihood(family, x[::-1], y[::-1], basis, None)
    assert grid.cov.shape is not None and dense.cov.shape is None
    return grid, dense


def noise_ratio_ok(v):
    # below this noise-to-signal ratio conditioning alone moves the likelihood past the tolerance
    return v[3] - v[2] >= math.log(1e-6)


GRID_SHAPES = {
    "paper_35x16": (range(50, 85), range(1999, 2015)),
    "uneven_10x5": ([0, 1, 5, 10, 20, 35, 50, 65, 80, 100], [1980, 1990, 2000, 2005, 2010]),
    "3x12": ([60, 61, 62], range(2000, 2012)),
}


def route_case(sim_table, case):
    """(table, noise) for a route case; only the full grid with constant noise takes the grid route."""
    if case == "subset2":
        return subset(grid_table(range(50, 85), range(1999, 2015)), SUBSET_PRESETS["subset2"]), "constant"
    if case == "zero_death_cell":
        cells = list(sim_table)
        cells[17] = MortalityCell(age=cells[17].age, year=cells[17].year, deaths=0.0, exposure=cells[17].exposure)
        with pytest.warns(UserWarning, match="zero-death"):
            return MortalityTable(cells), "constant"
    if case == "delta_noise":
        return sim_table, DeltaMethodNoise(1.5)
    if case == "partial_year":
        # a full grid plus some ages of the next year, as a partial-year update leaves it
        cells = [*grid_table(range(50, 62), range(2000, 2008)), *grid_table(range(50, 56), [2008], seed=1)]
        return MortalityTable(cells), "constant"
    return sim_table, "constant"


class TestKroneckerRoute:
    """On a full grid with constant noise the objective uses K = eta^2 K_yr (x) K_ag."""

    def test_full_grid_with_constant_noise_takes_grid_route(self, monkeypatch, sim_table):
        fun, x0, _ = capture_objective(monkeypatch, sim_table, SQEXP, MeanBasis.INTERCEPT, "constant")
        assert fun.cov.shape is not None
        assert math.isfinite(fun(x0))
        assert fun.cov.buffer is None  # no n x n arrays

    @pytest.mark.parametrize("case", ["zero_death_cell", "subset2", "delta_noise"])
    def test_other_inputs_take_dense_route(self, monkeypatch, sim_table, case):
        table, noise = route_case(sim_table, case)
        fun, x0, _ = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        assert math.isfinite(fun(x0))
        buffer = fun.cov.buffer  # the dense buffer, made on the first dense evaluation
        assert buffer is not None
        assert math.isfinite(fun(x0 + 0.1))
        assert fun.cov.buffer is buffer  # and reused by the next

    @pytest.mark.parametrize("case", ["full_grid", "subset2", "zero_death_cell", "delta_noise", "partial_year"])
    def test_same_whitener_kind_as_fit_gls(self, monkeypatch, sim_table, case):
        table, noise = route_case(sim_table, case)
        fun, x0, bounds = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        kinds = []
        real_whiten = gp_mod._whiten
        monkeypatch.setattr(gp_mod, "_whiten", lambda w, yh: kinds.append(type(w)) or real_whiten(w, yh))
        std = make_standardizer(table)
        rng = np.random.default_rng(3)
        expected = gp_mod._GridWhitener if case == "full_grid" else gp_mod._CholeskyWhitener
        for v in [x0, *(rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(4))]:
            sigma_sq = math.exp(v[3]) if noise == "constant" else 0.0
            hp = KernelHyperparams(math.exp(v[0]) * std.sd_ag, math.exp(v[1]) * std.sd_yr, math.exp(v[2]), sigma_sq)
            kinds.clear()
            fun(v)
            fit_gls(table, SQEXP, hp, noise=None if noise == "constant" else noise, basis=MeanBasis.INTERCEPT)
            assert kinds == [expected, expected]

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_grid_eigenvalue_failure_falls_back_to_dense(self, monkeypatch, sim_table, family):
        # as in fit_gls, a failed grid factorization hands the point to the dense Cholesky
        def no_grid(*args):
            raise np.linalg.LinAlgError("covariance has a non-positive eigenvalue")

        fun, x0, _ = capture_objective(monkeypatch, sim_table, family, MeanBasis.INTERCEPT, "constant")
        monkeypatch.setattr(gp_mod._GridWhitener, "__init__", no_grid)
        std = make_standardizer(sim_table)
        hp = KernelHyperparams(math.exp(x0[0]) * std.sd_ag, math.exp(x0[1]) * std.sd_yr, math.exp(x0[2]), math.exp(x0[3]))
        expected = log_marginal_likelihood(sim_table, family, hp, basis=MeanBasis.INTERCEPT)
        assert math.isfinite(expected)
        assert -fun(x0) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("shape", list(GRID_SHAPES))
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route_and_log_marginal_likelihood(self, monkeypatch, family, basis, shape):
        table = grid_table(*GRID_SHAPES[shape])
        fun, x0, bounds = capture_objective(monkeypatch, table, family, basis, "constant")
        assert fun.cov.shape is not None
        _, dense = grid_and_dense_objectives(table, family, basis)
        std = make_standardizer(table)
        rng = np.random.default_rng(9)
        draws = [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(16)]
        corners = [np.array(c) for c in itertools.product(*bounds)]
        points = [v for v in [x0, *draws, *corners] if noise_ratio_ok(v)]
        assert len(points) > 12
        for v in points:
            value = -fun(v)
            hp = KernelHyperparams(math.exp(v[0]) * std.sd_ag, math.exp(v[1]) * std.sd_yr, math.exp(v[2]), math.exp(v[3]))
            assert value == pytest.approx(dense.loglik(v), rel=1e-8)
            assert value == pytest.approx(log_marginal_likelihood(table, family, hp, basis=basis), rel=1e-8)

    @pytest.mark.parametrize("basis", [None, MeanBasis.INTERCEPT], ids=["none", "intercept"])
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_non_positive_eigenvalue_gives_minus_inf(self, sim_table, family, basis):
        # past the search box: near-constant factors have eigenvalues at roundoff,
        # some negative, and the noise is too small to lift them
        grid, dense = grid_and_dense_objectives(sim_table, family, basis)
        v = np.log([1e3, 1e3, 1e2, 1e-300])
        assert grid.loglik(v) == dense.loglik(v) == -math.inf

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True),
        years=st.lists(st.integers(1950, 2020), min_size=2, max_size=12, unique=True),
        family=st.sampled_from(list(KernelFamily)),
        basis=st.sampled_from([None, *MeanBasis]),
        fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=6),
        seed=st.integers(0, 1000),
    )
    def test_agrees_with_dense_route_over_search_box(self, ages, years, family, basis, fractions, seed):
        assume(basis is not MeanBasis.QUADRATIC_AGE or len(ages) >= 3)
        assume(len(ages) * len(years) >= basis_dim(basis) + 2)
        table = grid_table(sorted(ages), sorted(years), seed)
        with pytest.MonkeyPatch.context() as mp:
            _, _, bounds = capture_objective(mp, table, family, basis, "constant")
        grid, dense = grid_and_dense_objectives(table, family, basis)
        for u in fractions:
            v = bounds[:, 0] + np.array(u) * (bounds[:, 1] - bounds[:, 0])
            value = grid.loglik(v)
            assert not math.isnan(value) and value != math.inf
            if noise_ratio_ok(v):
                assert value == pytest.approx(dense.loglik(v), rel=1e-8)
