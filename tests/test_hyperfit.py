import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    evaluate_grid,
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

    def test_thread_pool_matches_serial(self, sim_table, monkeypatch):
        serial = fit_mle(sim_table, config=quick_config(n_restarts=3))
        monkeypatch.setenv("MORTGP_THREADS", "3")
        threaded = fit_mle(sim_table, config=quick_config(n_restarts=3))
        assert serial.hp == threaded.hp
        assert serial.log_likelihood == threaded.log_likelihood

    def test_thread_pool_matches_serial_on_dense_route(self, sim_table, monkeypatch):
        # each worker thread owns its dense workspace: more workers than cores
        # and frequent thread switches would expose a shared one
        config = quick_config(n_restarts=4, max_iter=60)
        serial = fit_mle(sim_table, noise=DeltaMethodNoise(1.5), config=config)
        monkeypatch.setenv("MORTGP_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = fit_mle(sim_table, noise=DeltaMethodNoise(1.5), config=config)
        finally:
            sys.setswitchinterval(interval)
        assert [(t.end, t.log_likelihood) for t in serial.restart_trace] == [
            (t.end, t.log_likelihood) for t in threaded.restart_trace
        ]

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_thread_cap_is_named(self, sim_table, monkeypatch, value):
        monkeypatch.setenv("MORTGP_THREADS", value)
        with pytest.raises(ValueError, match="MORTGP_THREADS must be a positive integer"):
            fit_mle(sim_table, config=quick_config())

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


class TestEvaluateGrid:
    def test_single_point_matches_direct_evaluation(self, sim_table):
        hp = KernelHyperparams(theta_ag=5.0, theta_yr=5.0, eta_sq=0.4, sigma_sq=1e-4)
        [point] = evaluate_grid(sim_table, SQEXP, MeanBasis.INTERCEPT, [hp])
        assert point.ok
        assert point.log_likelihood == log_marginal_likelihood(sim_table, SQEXP, hp)

    def test_grid_containing_mle_is_maximized_there(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        others = [
            KernelHyperparams(result.hp.theta_ag * f, result.hp.theta_yr * f, result.hp.eta_sq, result.hp.sigma_sq)
            for f in (0.2, 0.5, 2.0, 5.0)
        ]
        points = evaluate_grid(sim_table, SQEXP, MeanBasis.INTERCEPT, [result.hp, *others])
        values = [p.log_likelihood for p in points]
        assert values[0] == max(values)

    def test_ridge_rises_then_falls_across_theta(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        factors = np.array([0.1, 0.4, 1.0, 2.5, 10.0])
        grid = [
            KernelHyperparams(result.hp.theta_ag * f, result.hp.theta_yr, result.hp.eta_sq, result.hp.sigma_sq)
            for f in factors
        ]
        values = np.array([p.log_likelihood for p in evaluate_grid(sim_table, SQEXP, MeanBasis.INTERCEPT, grid)])
        peak = int(np.argmax(values))
        assert peak == 2  # the fitted optimum
        assert np.all(np.diff(values[: peak + 1]) > 0)
        assert np.all(np.diff(values[peak:]) < 0)

    def test_empty_grid_rejected(self, sim_table):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_grid(sim_table, SQEXP, MeanBasis.INTERCEPT, [])


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
    assert grid.grid is not None and dense.grid is None
    return grid, dense


def noise_ratio_ok(v):
    # below this noise-to-signal ratio conditioning alone moves the likelihood past the tolerance
    return v[3] - v[2] >= math.log(1e-6)


GRID_SHAPES = {
    "paper_35x16": (range(50, 85), range(1999, 2015)),
    "uneven_10x5": ([0, 1, 5, 10, 20, 35, 50, 65, 80, 100], [1980, 1990, 2000, 2005, 2010]),
    "3x12": ([60, 61, 62], range(2000, 2012)),
}


class TestKroneckerRoute:
    """On a full grid with constant noise the objective uses K = eta^2 K_yr (x) K_ag."""

    def test_full_grid_with_constant_noise_takes_grid_route(self, monkeypatch, sim_table):
        fun, _, _ = capture_objective(monkeypatch, sim_table, SQEXP, MeanBasis.INTERCEPT, "constant")
        assert fun.grid is not None
        assert not hasattr(fun, "separations")  # no n x n arrays

    @pytest.mark.parametrize("case", ["zero_death_cell", "subset2", "delta_noise"])
    def test_other_inputs_take_dense_route(self, monkeypatch, sim_table, case):
        noise = "constant"
        if case == "zero_death_cell":
            cells = list(sim_table)
            cells[17] = MortalityCell(age=cells[17].age, year=cells[17].year, deaths=0.0, exposure=cells[17].exposure)
            with pytest.warns(UserWarning, match="zero-death"):
                table = MortalityTable(cells)
        elif case == "subset2":
            table = subset(grid_table(range(50, 85), range(1999, 2015)), SUBSET_PRESETS["subset2"])
        else:
            table, noise = sim_table, DeltaMethodNoise(1.5)
        fun, _, _ = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        assert fun.grid is None

    @pytest.mark.parametrize("shape", list(GRID_SHAPES))
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route_and_log_marginal_likelihood(self, monkeypatch, family, basis, shape):
        table = grid_table(*GRID_SHAPES[shape])
        fun, x0, bounds = capture_objective(monkeypatch, table, family, basis, "constant")
        assert fun.grid is not None
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
