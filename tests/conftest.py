import math
import tracemalloc

import numpy as np
import pytest

from mortgp import KernelFamily, MortalityTable, cov_matrix
from mortgp.data import REQUIRED_COLUMNS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = str(getattr(rep, "nodeid", ""))
            if "test_acceptance" not in nodeid or getattr(rep, "when", "call") not in ("call", "setup"):
                continue
            name = nodeid.split("::")[-1]
            lines.setdefault(name, status.upper())
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")


def traced_memory(fn) -> tuple[int, int]:
    """(bytes still allocated, peak bytes) traced by tracemalloc, NumPy's buffers included, over a call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def table_from_surface(ages, years, log_rate_fn, exposure=1e5):
    """Build a table whose log rates equal log_rate_fn(age, year) up to float roundoff; log_rate_fn is called year-major."""
    age, year = (column.ravel() for column in np.meshgrid(ages, years))
    deaths = [np.exp(log_rate_fn(a, y)) * exposure for a, y in zip(age.tolist(), year.tolist())]
    return MortalityTable(age, year, deaths, np.full(age.size, exposure))


def simulate_gp_table(ages, years, hp, seed, mean=-4.0, family=KernelFamily.SQUARED_EXPONENTIAL, exposure=1e7):
    """Draw one surface from the prior GP plus iid noise and wrap it as a table."""
    ages = np.asarray(ages)
    years = np.asarray(years)
    x = np.array([[a, y] for y in years for a in ages], dtype=float)
    k = cov_matrix(family, hp, x) + 1e-12 * np.eye(x.shape[0])
    rng = np.random.default_rng(seed)
    f = mean + np.linalg.cholesky(k) @ rng.standard_normal(x.shape[0])
    y_obs = f + np.sqrt(hp.sigma_sq) * rng.standard_normal(x.shape[0])
    return MortalityTable(x[:, 0], x[:, 1], np.exp(y_obs) * exposure, np.full(y_obs.size, exposure)), x, y_obs


def simulate_grid_table(ages, years, hp, seed, mean=-4.0):
    """Draw a squared-exponential prior surface plus iid noise, as ``simulate_gp_table`` does, on a full grid.

    The draw goes through square roots of the two 1-D kernel factors, which
    are too small for the BLAS to split across threads, so the table is the
    same whatever the thread count.
    """
    ages = np.asarray(ages, dtype=float)
    years = np.asarray(years, dtype=float)

    def sqrt_factor(points, theta):
        w, v = np.linalg.eigh(np.exp(-0.5 * ((points[:, None] - points) / theta) ** 2))
        return v * np.sqrt(np.clip(w, 0.0, None))

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((years.size, ages.size))
    f = mean + math.sqrt(hp.eta_sq) * sqrt_factor(years, hp.theta_yr) @ z @ sqrt_factor(ages, hp.theta_ag).T
    y_obs = f + math.sqrt(hp.sigma_sq) * rng.standard_normal(f.shape)
    return table_from_surface(ages, years, lambda a, y: y_obs[years == y, ages == a][0], exposure=1e7)


@pytest.fixture
def small_table():
    """10x10 grid with a smooth age/year trend and mild noise."""
    rng = np.random.default_rng(42)

    def f(age, year):
        return -4.5 + 0.08 * (age - 60) - 0.012 * (year - 2000) + 0.01 * rng.standard_normal()

    return table_from_surface(range(60, 70), range(2000, 2010), f)


def simulate_masked_table(ages, years, hp, seed, drop):
    """``simulate_grid_table`` without the cells where ``drop(age, year)`` holds: a grid with holes."""
    table = simulate_grid_table(ages, years, hp, seed)
    return rows_of(table, [not drop(a, y) for a, y in zip(table.age.tolist(), table.year.tolist())])


def rows_of(table, keep=slice(None), **columns):
    """A table of ``table``'s rows where ``keep`` holds, with any of its four columns replaced by ``columns``."""
    return MortalityTable(*(np.asarray(columns.get(name, getattr(table, name)))[keep] for name in REQUIRED_COLUMNS))


def joined(*tables):
    """One table of the rows of all ``tables``."""
    return MortalityTable(*(np.concatenate([getattr(table, name) for table in tables]) for name in REQUIRED_COLUMNS))


# hole masks over (ages, years): the subset2 notch, scattered cells of an uneven grid, part of a last year
HOLE_MASKS = {
    "subset2": (range(50, 85), range(1999, 2015), lambda a, y: y > 2010 and a > 70),
    "scattered_10x5": (
        [0, 1, 5, 10, 20, 35, 50, 65, 80, 100],
        [1980, 1990, 2000, 2005, 2010],
        lambda a, y: (a, y) in {(10, 1980), (100, 1980), (50, 1990), (1, 2000), (65, 2000), (10, 2005), (100, 2005), (50, 2010)},
    ),
    "partial_year_3x12": ([60, 61, 62], range(2000, 2012), lambda a, y: y == 2011 and a > 60),
}
