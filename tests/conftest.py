import tracemalloc

import numpy as np
import pytest

from mortgp import KernelFamily, MortalityCell, MortalityTable, cov_matrix


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


def table_from_surface(ages, years, log_rate_fn, exposure=1e5, **labels):
    """Build a table whose log rates equal log_rate_fn(age, year) up to float roundoff."""
    cells = []
    for year in years:
        for age in ages:
            rate = np.exp(log_rate_fn(age, year))
            cells.append(MortalityCell(age=int(age), year=int(year), deaths=float(rate * exposure), exposure=float(exposure)))
    return MortalityTable(cells, **labels)


def simulate_gp_table(ages, years, hp, seed, mean=-4.0, family=KernelFamily.SQUARED_EXPONENTIAL, exposure=1e7):
    """Draw one surface from the prior GP plus iid noise and wrap it as a table."""
    ages = np.asarray(ages)
    years = np.asarray(years)
    x = np.array([[a, y] for y in years for a in ages], dtype=float)
    k = cov_matrix(family, hp, x) + 1e-12 * np.eye(x.shape[0])
    rng = np.random.default_rng(seed)
    f = mean + np.linalg.cholesky(k) @ rng.standard_normal(x.shape[0])
    y_obs = f + np.sqrt(hp.sigma_sq) * rng.standard_normal(x.shape[0])
    cells = [
        MortalityCell(age=int(a), year=int(yr), deaths=float(np.exp(v) * exposure), exposure=float(exposure))
        for (a, yr), v in zip(x, y_obs)
    ]
    return MortalityTable(cells), x, y_obs


@pytest.fixture
def small_table():
    """10x10 grid with a smooth age/year trend and mild noise."""
    rng = np.random.default_rng(42)

    def f(age, year):
        return -4.5 + 0.08 * (age - 60) - 0.012 * (year - 2000) + 0.01 * rng.standard_normal()

    return table_from_surface(range(60, 70), range(2000, 2010), f)
