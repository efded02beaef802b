import itertools
import json
import math
import time
import warnings
from pathlib import Path

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
    fit_gls,
    fit_mle,
    log_marginal_likelihood,
    noise_diagonal,
    subset,
)
from mortgp.data import SUBSET_PRESETS
from mortgp.means import basis_dim, design

from conftest import HOLE_MASKS, joined, rows_of, simulate_gp_table, simulate_grid_table, simulate_masked_table, table_from_surface, traced_memory

SQEXP = KernelFamily.SQUARED_EXPONENTIAL

TRUE_HP = KernelHyperparams(theta_ag=6.0, theta_yr=6.0, eta_sq=0.5, sigma_sq=4e-4)


@pytest.fixture(scope="module")
def sim_table():
    table, _, _ = simulate_gp_table(range(50, 65), range(2000, 2010), TRUE_HP, seed=101)
    return table


NELDER_MEAD_OPTIMA = json.loads((Path(__file__).parent / "data" / "nelder_mead_optima.json").read_text())


def white_noise_table():
    """Log rates with no structure beyond noise: the fit ends on a bound of the search box."""
    rng = np.random.default_rng(55)
    return table_from_surface(range(60, 70), range(2000, 2010), lambda a, y: -4.0 + 0.05 * rng.standard_normal())


def quick_config(**kw):
    defaults = dict(n_restarts=2, seed=0)
    defaults.update(kw)
    return FitConfig(**defaults)


class TestFitMle:
    def test_reproducible_given_seed(self, sim_table):
        r1 = fit_mle(sim_table, config=quick_config())
        r2 = fit_mle(sim_table, config=quick_config())
        assert r1.model.hp == r2.model.hp
        assert r1.model.log_likelihood == r2.model.log_likelihood
        np.testing.assert_array_equal(r1.model.beta, r2.model.beta)
        assert [t.log_likelihood for t in r1.restart_trace] == [t.log_likelihood for t in r2.restart_trace]

    def test_reported_value_is_best_restart(self, sim_table):
        result = fit_mle(sim_table, config=quick_config(n_restarts=3))
        values = [t.log_likelihood for t in result.restart_trace]
        assert max(values) == pytest.approx(result.model.log_likelihood, abs=1e-6)

    def test_reevaluation_reproduces_log_likelihood(self, sim_table):
        result = fit_mle(sim_table, basis=MeanBasis.INTERCEPT, config=quick_config())
        again = log_marginal_likelihood(sim_table, result.model.family, result.model.hp, noise=result.model.noise, basis=result.model.basis)
        assert again == pytest.approx(result.model.log_likelihood, abs=1e-9)

    def test_lengthscale_recovery_on_simulated_data(self):
        table, _, _ = simulate_gp_table(range(50, 75), range(1999, 2012), TRUE_HP, seed=7)
        result = fit_mle(table, config=quick_config())
        assert result.model.hp.theta_ag == pytest.approx(TRUE_HP.theta_ag, rel=0.5)
        assert result.model.hp.theta_yr == pytest.approx(TRUE_HP.theta_yr, rel=0.5)
        assert result.model.hp.sigma_sq == pytest.approx(TRUE_HP.sigma_sq, rel=0.5)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_profiling_consistency_at_optimum(self, sim_table, family):
        result = fit_mle(sim_table, family=family, config=quick_config())
        base = result.model.log_likelihood
        fields = ("theta_ag", "theta_yr", "eta_sq", "sigma_sq")
        for name in fields:
            for bump in (1.01, 0.99):
                kwargs = {f: getattr(result.model.hp, f) for f in fields}
                kwargs[name] = kwargs[name] * bump
                perturbed = log_marginal_likelihood(sim_table, family, KernelHyperparams(**kwargs))
                assert perturbed <= base + 1e-9

    def test_response_shift_moves_only_intercept(self, sim_table):
        r1 = fit_mle(sim_table, config=quick_config())
        shifted = rows_of(sim_table, deaths=sim_table.deaths * math.e)
        r2 = fit_mle(shifted, config=quick_config())
        assert r2.model.hp.theta_ag == pytest.approx(r1.model.hp.theta_ag, rel=1e-3)
        assert r2.model.hp.theta_yr == pytest.approx(r1.model.hp.theta_yr, rel=1e-3)
        assert r2.model.hp.eta_sq == pytest.approx(r1.model.hp.eta_sq, rel=1e-3)
        assert r2.model.beta[0] == pytest.approx(r1.model.beta[0] + 1.0, abs=1e-4)

    def test_white_noise_hits_bounds(self):
        table = white_noise_table()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, config=quick_config())
        assert result.bound_hit
        assert result.converged

    def test_bound_stop_without_success_is_not_converged(self, monkeypatch):
        table = white_noise_table()
        # uncapped, both restarts converge on a bound in 29 and 38 iterations;
        # after 20 the best one is on the bound but not yet converged
        real = hyperfit.minimize
        monkeypatch.setattr(hyperfit, "minimize", lambda *args, options, **kw: real(*args, options={**options, "maxiter": 20}, **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, config=quick_config())
        best = max(result.restart_trace, key=lambda rec: rec.log_likelihood)
        assert best.iterations == 20
        assert result.bound_hit and best.bound_hit
        assert not best.success
        assert not result.converged

    @pytest.mark.parametrize("case", ["interior", "white_noise"])
    def test_restart_records_message_time_and_bound_hit(self, sim_table, case):
        table = white_noise_table() if case == "white_noise" else sim_table
        config = quick_config(n_restarts=3)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_mle(table, config=config)
        elapsed = time.perf_counter() - start
        raw_bounds = {"theta_ag": hyperfit.THETA_BOUNDS, "theta_yr": hyperfit.THETA_BOUNDS}
        raw_bounds.update(eta_sq=hyperfit.ETA_SQ_BOUNDS, sigma_sq=hyperfit.SIGMA_SQ_BOUNDS)
        for rec in result.restart_trace:
            assert type(rec.message) is str and rec.message
            assert type(rec.seconds) is float and rec.seconds > 0.0
            on_bound = any(abs(math.log(v / b)) < hyperfit._BOUND_EPS for k, v in rec.end.items() for b in raw_bounds[k])
            assert rec.bound_hit is on_bound
        assert sum(rec.seconds for rec in result.restart_trace) < elapsed
        best = max(result.restart_trace, key=lambda rec: rec.log_likelihood)
        assert result.bound_hit is best.bound_hit is (case == "white_noise")

    def test_start_that_fails_to_factorize_is_not_converged(self, monkeypatch, sim_table):
        # the first restart's start point fails; L-BFGS-B sees a zero gradient there and stops at once
        real = gp_mod._Covariance.__call__
        first = []

        def fail_at_first_point(cov, hp, noise_diag):
            point = (hp, float(noise_diag[0]))
            first[:] = first or [point]
            if point == first[0]:
                raise np.linalg.LinAlgError("not positive definite")
            return real(cov, hp, noise_diag)

        monkeypatch.setattr(gp_mod._Covariance, "__call__", fail_at_first_point)
        result = fit_mle(sim_table, config=quick_config())
        failed, other = result.restart_trace
        assert failed.log_likelihood == -math.inf
        assert not failed.success
        assert failed.evaluations == 1
        assert other.success and math.isfinite(other.log_likelihood)
        assert result.model.log_likelihood == pytest.approx(other.log_likelihood, abs=1e-9)
        assert result.converged

    def test_restart_with_singular_steps_is_not_converged(self, monkeypatch, sim_table):
        # only the start factorizes: L-BFGS-B does not step back from the infinite values
        # around it and reports success at the start, which is no optimum
        real = gp_mod._Covariance.__call__
        first_points = {}

        def factorize_only_the_first_point(cov, hp, noise_diag):
            # of each covariance: the objective's start, and the refit's one point
            point = (hp, float(noise_diag[0]))
            if first_points.setdefault(cov, point) != point:
                raise np.linalg.LinAlgError("not positive definite")
            return real(cov, hp, noise_diag)

        monkeypatch.setattr(gp_mod._Covariance, "__call__", factorize_only_the_first_point)
        result = fit_mle(sim_table, config=quick_config(n_restarts=1))
        (rec,) = result.restart_trace
        assert not result.converged and not rec.success
        assert 0 < rec.failed_evaluations < rec.evaluations
        assert rec.end == rec.start and math.isfinite(rec.log_likelihood)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_fit_ignores_where_the_inputs_sit(self, sim_table, family):
        # the kernel sees only separations and the trend basis is rescaled, so no input
        # standardization is needed: moved inputs give the same fit, bit for bit
        moved = rows_of(sim_table, age=sim_table.age + 20, year=sim_table.year + 500)
        here, there = (fit_mle(t, family=family, basis=MeanBasis.QUADRATIC_AGE, config=quick_config()) for t in (sim_table, moved))
        assert there.model.hp == here.model.hp
        assert there.model.log_likelihood == here.model.log_likelihood
        assert [rec.evaluations for rec in there.restart_trace] == [rec.evaluations for rec in here.restart_trace]

    def test_every_start_failing_to_factorize_raises(self, monkeypatch, sim_table):
        def fail(cov, hp, noise_diag):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp_mod._Covariance, "__call__", fail)
        with pytest.raises(gp_mod.FactorizationError, match="every restart"):
            fit_mle(sim_table, config=quick_config())

    def test_delta_noise_mode_fixes_sigma(self, sim_table):
        result = fit_mle(sim_table, noise=DeltaMethodNoise(2.0), config=quick_config())
        assert isinstance(result.model.noise, DeltaMethodNoise)
        assert result.model.hp.sigma_sq == 0.0
        assert math.isfinite(result.model.log_likelihood)

    def test_degenerate_table_rejected(self):
        table = table_from_surface(range(60, 62), [2000, 2001], lambda a, y: -4.0)
        with pytest.raises(ValueError, match="at least"):
            fit_mle(table, basis=MeanBasis.QUADRATIC_AGE, config=quick_config())

    @pytest.mark.parametrize("ages, years", [(range(50, 85), [2000]), ([60], range(2000, 2016))], ids=["one_year", "one_age"])
    def test_single_age_or_year_rejected(self, ages, years):
        table = table_from_surface(ages, years, lambda a, y: -4.0 + 0.01 * a - 0.02 * (y - 2000))
        with pytest.raises(ValueError, match="at least 2 distinct ages and 2 distinct years"):
            fit_mle(table, basis=None, config=quick_config())

    def test_unknown_noise_mode_rejected(self, sim_table):
        with pytest.raises(ValueError, match="noise mode"):
            fit_mle(sim_table, noise="heteroskedastic", config=quick_config())

    def test_restart_records_count_evaluations_and_iterations(self, sim_table):
        first, second = (fit_mle(sim_table, config=quick_config(n_restarts=3)) for _ in range(2))
        for rec in first.restart_trace:
            assert type(rec.evaluations) is int and type(rec.iterations) is int
            assert 0 < rec.iterations <= rec.evaluations
            assert rec.failed_evaluations == 0  # no point of these fits is singular
        counts = [[(t.evaluations, t.iterations) for t in r.restart_trace] for r in (first, second)]
        assert counts[0] == counts[1]

    def test_restart_log_likelihoods_are_plain_floats(self, sim_table):
        result = fit_mle(sim_table, config=quick_config(n_restarts=3))
        assert all(type(rec.log_likelihood) is float for rec in result.restart_trace)


class TestNelderMeadOptima:
    """D8: Nelder-Mead stopped restarts at its evaluation cap, short of the optimum.

    The fit must reach at least the best log-likelihood the Nelder-Mead
    optimizer found on each recorded table (1e-6 nat allowed), with every
    restart converged.
    """

    @pytest.mark.parametrize(
        "case", NELDER_MEAD_OPTIMA["cases"], ids=lambda c: f"{c['table']}-{c['seed']}-{c['family']}"
    )
    def test_no_worse_and_every_restart_converges(self, case):
        spec = NELDER_MEAD_OPTIMA["tables"][case["table"]]
        (a0, a1), (y0, y1) = spec["ages"], spec["years"]
        table = simulate_grid_table(range(a0, a1 + 1), range(y0, y1 + 1), KernelHyperparams(*spec["hp"]), case["seed"])
        config = FitConfig(n_restarts=case["n_restarts"], seed=case["config_seed"])
        result = fit_mle(table, family=KernelFamily(case["family"]), basis=MeanBasis(case["basis"]), config=config)
        assert result.model.log_likelihood >= case["log_likelihood"] - 1e-6
        assert len(result.restart_trace) == case["n_restarts"]
        assert all(rec.success for rec in result.restart_trace)


class TestLikelihoodSurface:
    def test_grid_containing_mle_is_maximized_there(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        others = [
            KernelHyperparams(result.model.hp.theta_ag * f, result.model.hp.theta_yr * f, result.model.hp.eta_sq, result.model.hp.sigma_sq)
            for f in (0.2, 0.5, 2.0, 5.0)
        ]
        values = [log_marginal_likelihood(sim_table, SQEXP, hp, basis=MeanBasis.INTERCEPT) for hp in [result.model.hp, *others]]
        assert values[0] == max(values)

    def test_ridge_rises_then_falls_across_theta(self, sim_table):
        result = fit_mle(sim_table, config=quick_config())
        factors = np.array([0.1, 0.4, 1.0, 2.5, 10.0])
        values = np.array(
            [
                log_marginal_likelihood(
                    sim_table,
                    SQEXP,
                    KernelHyperparams(result.model.hp.theta_ag * f, result.model.hp.theta_yr, result.model.hp.eta_sq, result.model.hp.sigma_sq),
                    basis=MeanBasis.INTERCEPT,
                )
                for f in factors
            ]
        )
        peak = int(np.argmax(values))
        assert peak == 2  # the fitted optimum
        assert np.all(np.diff(values[: peak + 1]) > 0)
        assert np.all(np.diff(values[peak:]) < 0)


class TestLazyMinimize:
    """``hyperfit.minimize`` loads scipy.optimize at its first call, not at import, and forwards to it."""

    def test_returns_scipy_result_on_a_quadratic(self):
        import scipy.optimize

        def fun(v):
            r = v - np.array([1.5, -2.0])
            return float(r @ r), 2 * r

        res = hyperfit.minimize(fun, np.zeros(2), jac=True, method="L-BFGS-B")
        expected = scipy.optimize.minimize(fun, np.zeros(2), jac=True, method="L-BFGS-B")
        np.testing.assert_array_equal(res.x, expected.x)
        assert res.fun == expected.fun and res.nfev == expected.nfev
        np.testing.assert_allclose(res.x, [1.5, -2.0], atol=1e-8)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            hyperfit.no_such_name

    def test_fit_mle_calls_the_module_attribute(self, monkeypatch, sim_table):
        import scipy.optimize

        starts = []

        def recording_minimize(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return scipy.optimize.minimize(fun, x0, **kwargs)

        monkeypatch.delitem(vars(hyperfit), "minimize", raising=False)
        monkeypatch.setattr(hyperfit, "minimize", recording_minimize, raising=False)
        result = fit_mle(sim_table, config=quick_config(n_restarts=2))
        assert len(starts) == len(result.restart_trace) == 2
        for x0, rec in zip(starts, result.restart_trace):
            np.testing.assert_allclose(np.exp(x0), list(rec.start.values()), rtol=1e-12)


class _Captured(Exception):
    pass


def capture_objective(monkeypatch, table, family, basis, noise):
    """The objective, start and log-space bounds fit_mle hands to the optimizer."""
    seen = {}

    def fake_minimize(fun, x0, jac, method, bounds, options):
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
            hp = KernelHyperparams(math.exp(v[0]), math.exp(v[1]), math.exp(v[2]), sigma_sq)
            model_noise = ConstantNoise(sigma_sq) if delta_diag is None else noise
            expected = log_marginal_likelihood(sim_table, family, hp, noise=model_noise, basis=basis)
            assert fun.loglik(v) == pytest.approx(expected, rel=1e-8)


def grid_table(ages, years, seed=0):
    """Every (age, year) pair of the given ages and years, all cells trainable."""
    rng = np.random.default_rng(seed)
    return table_from_surface(
        ages, years, lambda a, y: -4.0 + 0.04 * (a - 60) - 0.01 * (y - 2000) + 0.05 * rng.standard_normal()
    )


def row_order_objectives(table, family, basis, noise="constant"):
    """The objective on the table's rows, and on the rows reversed with the grid rule switched off.

    Distinct cells in any order take the grid route, so only the switch makes
    the second take the dense route over the same data.
    """
    x = table.inputs()
    y = table.responses()
    diag = None if noise == "constant" else noise_diagonal(noise, table)
    reversed_diag = None if diag is None else diag[::-1]
    in_order = hyperfit._ProfiledLikelihood(family, x, y, basis, diag)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_mod, "_grid_cells", lambda axes: None)
        return in_order, hyperfit._ProfiledLikelihood(family, x[::-1], y[::-1], basis, reversed_diag)


def permuted_objective(table, family, basis, noise="constant", seed=0):
    """The objective on the table's rows in a random order."""
    order = np.random.default_rng(seed).permutation(table.inputs().shape[0])
    diag = None if noise == "constant" else noise_diagonal(noise, table)[order]
    return hyperfit._ProfiledLikelihood(family, table.inputs()[order], table.responses()[order], basis, diag)


def grid_and_dense_objectives(table, family, basis):
    grid, dense = row_order_objectives(table, family, basis)
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
    """(table, noise) for a route case.  With constant noise each takes the grid route, with holes unless it is the
    full grid; delta-method noise takes the dense route."""
    if case == "subset2":
        return subset(grid_table(range(50, 85), range(1999, 2015)), SUBSET_PRESETS["subset2"]), "constant"
    if case == "zero_death_cell":
        deaths = sim_table.deaths.copy()
        deaths[17] = 0.0
        with pytest.warns(UserWarning, match="zero-death"):
            return rows_of(sim_table, deaths=deaths), "constant"
    if case == "delta_noise":
        return sim_table, DeltaMethodNoise(1.5)
    if case == "partial_year":
        # a full grid plus some ages of the next year, as a partial-year update leaves it
        return joined(grid_table(range(50, 62), range(2000, 2008)), grid_table(range(50, 56), [2008], seed=1)), "constant"
    return sim_table, "constant"


class TestKroneckerRoute:
    """On a full grid with constant noise the objective uses K = eta^2 K_yr (x) K_ag."""

    def test_full_grid_with_constant_noise_takes_grid_route(self, monkeypatch, sim_table):
        fun, x0, _ = capture_objective(monkeypatch, sim_table, SQEXP, MeanBasis.INTERCEPT, "constant")
        assert fun.cov.shape is not None
        value, grad = fun(x0)
        assert math.isfinite(value) and np.isfinite(grad).all()
        assert fun.cov.buffer is None and fun.cov.grad_buffer is None  # no n x n arrays

    @pytest.mark.parametrize("case", ["zero_death_cell", "subset2", "partial_year"])
    def test_notched_inputs_take_grid_route_with_holes(self, monkeypatch, sim_table, case):
        table, noise = route_case(sim_table, case)
        fun, x0, _ = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        assert fun.cov.shape is not None and fun.cov.cells is not None
        value, grad = fun(x0)
        assert math.isfinite(value) and np.isfinite(grad).all()
        assert fun.cov.buffer is None and fun.cov.grad_buffer is None  # no n x n arrays

    @pytest.mark.parametrize("case", ["delta_noise"])
    def test_other_inputs_take_dense_route(self, monkeypatch, sim_table, case):
        table, noise = route_case(sim_table, case)
        fun, x0, _ = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        assert math.isfinite(fun(x0)[0])
        buffer, grad_buffer = fun.cov.buffer, fun.cov.grad_buffer  # the dense buffers, made on the first dense evaluation
        assert buffer is not None and grad_buffer is not None
        assert math.isfinite(fun(x0 + 0.1)[0])
        assert fun.cov.buffer is buffer and fun.cov.grad_buffer is grad_buffer  # and reused by the next

    @pytest.mark.parametrize("case", ["full_grid", "subset2", "zero_death_cell", "delta_noise", "partial_year"])
    def test_same_whitener_kind_as_fit_gls(self, monkeypatch, sim_table, case):
        table, noise = route_case(sim_table, case)
        fun, x0, bounds = capture_objective(monkeypatch, table, SQEXP, MeanBasis.INTERCEPT, noise)
        kinds = []
        real_call = gp_mod._Covariance.__call__

        def recording_call(cov, hp, noise_diag):
            whitener, jitter = real_call(cov, hp, noise_diag)
            kinds.append(type(whitener))
            return whitener, jitter

        monkeypatch.setattr(gp_mod._Covariance, "__call__", recording_call)
        rng = np.random.default_rng(3)
        expected = gp_mod._CholeskyWhitener if case == "delta_noise" else gp_mod._GridWhitener
        for v in [x0, *(rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(4))]:
            sigma_sq = math.exp(v[3]) if noise == "constant" else 0.0
            hp = KernelHyperparams(math.exp(v[0]), math.exp(v[1]), math.exp(v[2]), sigma_sq)
            kinds.clear()
            fun.loglik(v)
            fit_gls(table, SQEXP, hp, noise=None if noise == "constant" else noise, basis=MeanBasis.INTERCEPT)
            assert kinds == [expected, expected]

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_grid_eigenvalue_failure_falls_back_to_dense(self, monkeypatch, sim_table, family):
        # as in fit_gls, a failed grid factorization hands the point to the dense Cholesky
        def no_grid(*args):
            raise np.linalg.LinAlgError("covariance has a non-positive eigenvalue")

        fun, x0, _ = capture_objective(monkeypatch, sim_table, family, MeanBasis.INTERCEPT, "constant")
        monkeypatch.setattr(gp_mod._GridWhitener, "__init__", no_grid)
        hp = KernelHyperparams(*np.exp(x0))
        expected = log_marginal_likelihood(sim_table, family, hp, basis=MeanBasis.INTERCEPT)
        assert math.isfinite(expected)
        assert fun.loglik(x0) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("shape", list(GRID_SHAPES))
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route_and_log_marginal_likelihood(self, monkeypatch, family, basis, shape):
        table = grid_table(*GRID_SHAPES[shape])
        fun, x0, bounds = capture_objective(monkeypatch, table, family, basis, "constant")
        assert fun.cov.shape is not None
        _, dense = grid_and_dense_objectives(table, family, basis)
        rng = np.random.default_rng(9)
        draws = [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(16)]
        corners = [np.array(c) for c in itertools.product(*bounds)]
        points = [v for v in [x0, *draws, *corners] if noise_ratio_ok(v)]
        assert len(points) > 12
        for v in points:
            value = fun.loglik(v)
            hp = KernelHyperparams(*np.exp(v))
            assert value == pytest.approx(dense.loglik(v), rel=1e-8)
            assert value == pytest.approx(log_marginal_likelihood(table, family, hp, basis=basis), rel=1e-8)

    @pytest.mark.parametrize("basis", [None, MeanBasis.INTERCEPT], ids=["none", "intercept"])
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_non_positive_eigenvalue_gives_minus_inf(self, sim_table, family, basis):
        # past the search box: near-constant factors have eigenvalues at roundoff,
        # some negative, and the noise is too small to lift them
        grid, dense = grid_and_dense_objectives(sim_table, family, basis)
        sd_ag, sd_yr = design(None, sim_table.inputs())[2]
        v = np.log([1e3 * sd_ag, 1e3 * sd_yr, 1e2, 1e-300])
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


def finite_difference_gradient(loglik, v, fourth_order=False, h=1e-4):
    steps = np.eye(v.size) * h
    if fourth_order:
        return np.array([(8 * (loglik(v + e) - loglik(v - e)) - loglik(v + 2 * e) + loglik(v - 2 * e)) / (12 * h) for e in steps])
    return np.array([(loglik(v + e) - loglik(v - e)) / (2 * h) for e in steps])


def assert_gradient_matches(obj, v, fourth_order=False):
    """The objective's gradient against central differences of ``loglik``, within 1e-5 of the largest entry."""
    value, grad = obj(v)
    assert value == -obj.loglik(v)
    fd = finite_difference_gradient(obj.loglik, v, fourth_order)
    np.testing.assert_allclose(-grad, fd, rtol=0.0, atol=1e-5 * np.abs(fd).max())
    return grad


class TestGradient:
    """The analytic gradient of the profiled likelihood (GPML eq. 5.9) against finite differences."""

    @pytest.mark.parametrize("noise", ["constant", DeltaMethodNoise(1.5)], ids=["constant", "delta"])
    @pytest.mark.parametrize("route", ["in_order", "reversed", "permuted"])
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_finite_differences(self, monkeypatch, sim_table, family, basis, route, noise):
        _, x0, bounds = capture_objective(monkeypatch, sim_table, family, basis, noise)
        if route == "permuted":
            obj = permuted_objective(sim_table, family, basis, noise)
            assert obj.cov.cells is not None and obj.cov.cells.size == obj.noise_diag.size  # a full grid, out of order
        else:
            obj = row_order_objectives(sim_table, family, basis, noise)[route == "reversed"]
        # rows in any order with constant noise take the grid route; the reversed rows have the grid rule switched off
        assert (obj.cov.shape is not None and noise == "constant") == (route != "reversed" and noise == "constant")
        smallest_noise = float(obj.noise_diag.min())
        rng = np.random.default_rng(12)
        draws = [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(10)]
        corners = [np.array(c) for c in itertools.product(*bounds)]
        points = [v for v in [x0, *draws, *corners] if (math.exp(v[3]) if noise == "constant" else smallest_noise) / math.exp(v[2]) >= 1e-6]
        assert len(points) > 8
        for v in points:
            # with delta-method noise, roundoff in the likelihood needs the fourth-order difference
            assert_gradient_matches(obj, v, fourth_order=noise != "constant")

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_dense_gradient_adds_one_n_by_n_buffer(self, sim_table, family):
        table, _ = route_case(sim_table, "subset2")
        obj = row_order_objectives(table, family, MeanBasis.QUADRATIC_AGE)[1]  # reversed rows: dense
        assert obj.cov.shape is None
        v = np.array([0.1, 0.2, 0.3, -7.0]) + np.log([*design(None, table.inputs())[2], 1.0, 1.0])
        nbytes = 8 * table.inputs().shape[0] ** 2
        obj.loglik(v)  # makes the factor's buffer
        held, peak = traced_memory(lambda: obj(v))
        # the gradient's own buffer, plus one 256-row block of the gather's year factor
        # (about half of n = 504 rows); potri works in place
        assert 0.99 < held / nbytes < 1.05
        assert peak / nbytes < 1.65

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True),
        years=st.lists(st.integers(1950, 2020), min_size=2, max_size=12, unique=True),
        family=st.sampled_from(list(KernelFamily)),
        basis=st.sampled_from([None, *MeanBasis]),
        fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=4),
        seed=st.integers(0, 1000),
    )
    def test_grid_route_over_search_box(self, ages, years, family, basis, fractions, seed):
        assume(basis is not MeanBasis.QUADRATIC_AGE or len(ages) >= 3)
        assume(len(ages) * len(years) >= basis_dim(basis) + 2)
        table = grid_table(sorted(ages), sorted(years), seed)
        with pytest.MonkeyPatch.context() as mp:
            _, _, bounds = capture_objective(mp, table, family, basis, "constant")
        grid, dense = grid_and_dense_objectives(table, family, basis)
        for u in fractions:
            v = bounds[:, 0] + np.array(u) * (bounds[:, 1] - bounds[:, 0])
            if noise_ratio_ok(v):
                grad = assert_gradient_matches(grid, v)
                np.testing.assert_allclose(grad, dense(v)[1], rtol=0.0, atol=1e-8 * np.abs(grad).max())


def masked_table(shape, seed=1):
    """A ``HOLE_MASKS`` grid drawn at the published hyperparameters, holes left out."""
    ages, years, drop = HOLE_MASKS[shape]
    return simulate_masked_table(ages, years, KernelHyperparams(15.8, 15.5, 1.85, 2.8e-4), seed, drop)


def box_points(bounds, x0, n_draws, seed):
    """The start, random points of the search box and its corners, where the noise is at least 1e-6 of eta^2."""
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(n_draws)]
    corners = [np.array(c) for c in itertools.product(*bounds)]
    return [v for v in [x0, *draws, *corners] if noise_ratio_ok(v)]


class TestHolesRoute:
    """Inputs missing m <= n / 4 cells of their grid: the objective whitens through the full grid's W with the
    partitioned-inverse correction, and must agree with the dense route."""

    @pytest.mark.parametrize("shape", list(HOLE_MASKS))
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_matches_dense_route_and_log_marginal_likelihood(self, monkeypatch, family, basis, shape):
        table = masked_table(shape)
        fun, x0, bounds = capture_objective(monkeypatch, table, family, basis, "constant")
        assert fun.cov.cells is not None
        _, dense = row_order_objectives(table, family, basis)
        assert dense.cov.shape is None
        points = box_points(bounds, x0, 8, seed=9)
        assert len(points) > 10
        for v in points:
            value = fun.loglik(v)
            hp = KernelHyperparams(*np.exp(v))
            assert value == pytest.approx(dense.loglik(v), rel=1e-8)
            assert value == pytest.approx(log_marginal_likelihood(table, family, hp, basis=basis), rel=1e-8)
        assert fun.cov.buffer is None and fun.failures == 0

    @pytest.mark.parametrize("shape", list(HOLE_MASKS))
    @pytest.mark.parametrize("basis", [None, *MeanBasis], ids=lambda b: getattr(b, "value", "none"))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_gradient_matches_finite_differences(self, monkeypatch, family, basis, shape):
        table = masked_table(shape)
        fun, x0, bounds = capture_objective(monkeypatch, table, family, basis, "constant")
        _, dense = row_order_objectives(table, family, basis)
        for v in box_points(bounds, x0, 4, seed=12):
            grad = assert_gradient_matches(fun, v)
            np.testing.assert_allclose(grad, dense(v)[1], rtol=0.0, atol=1e-8 * np.abs(grad).max())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        ages=st.lists(st.integers(0, 100), min_size=2, max_size=12, unique=True),
        years=st.lists(st.integers(1950, 2020), min_size=2, max_size=12, unique=True),
        family=st.sampled_from(list(KernelFamily)),
        basis=st.sampled_from([None, *MeanBasis]),
        fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=4),
        holes=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=28),
        seed=st.integers(0, 1000),
    )
    def test_agrees_with_dense_route_over_random_masks(self, ages, years, family, basis, fractions, holes, seed):
        cells = grid_table(sorted(ages), sorted(years), seed)
        dropped = {int(h * len(cells)) for h in holes[: len(cells) // 5]}  # m <= N / 5, so m <= n / 4
        table = rows_of(cells, [i not in dropped for i in range(len(cells))])
        x = table.inputs()
        assume(np.unique(x[:, 0]).size >= 2 + (basis is MeanBasis.QUADRATIC_AGE) and np.unique(x[:, 1]).size >= 2)
        assume(x.shape[0] >= basis_dim(basis) + 2)
        with pytest.MonkeyPatch.context() as mp:
            holes_obj, _, bounds = capture_objective(mp, table, family, basis, "constant")
        assume(holes_obj.cov.cells is not None)  # no hole took a whole age or year
        _, dense = row_order_objectives(table, family, basis)
        for u in fractions:
            v = bounds[:, 0] + np.array(u) * (bounds[:, 1] - bounds[:, 0])
            if noise_ratio_ok(v):
                assert holes_obj.loglik(v) == pytest.approx(dense.loglik(v), rel=1e-8)
                assert_gradient_matches(holes_obj, v)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_failed_cholesky_of_missing_cells_falls_back_to_dense(self, monkeypatch, family):
        table = masked_table("subset2")
        fun, x0, _ = capture_objective(monkeypatch, table, family, MeanBasis.QUADRATIC_AGE, "constant")
        expected = fun.loglik(x0)
        real_cholesky = np.linalg.cholesky

        def fail_on_m(a):
            if a.shape == (56, 56):  # M over the 56 cells the notch leaves out
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fail_on_m)
        value, grad = fun(x0)
        assert fun.cov.buffer is not None  # the dense factorization took the point
        assert -value == pytest.approx(expected, rel=1e-8) and np.isfinite(grad).all()
        assert fun.failures == 0
