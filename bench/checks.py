"""Checks of every command's outputs against the reference or a property.

Each function returns a list of failure messages; an empty list means the
outputs passed.  Nothing here imports mortgp: outputs are read as the files
a user would read.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from reference import Hyper, UniversalKriging, profiled_loglik, z_value

# Search box of `mortgp fit` (FitConfig defaults), raw units.
FIT_BOUNDS = {"theta_ag": (0.5, 100.0), "theta_yr": (0.5, 100.0), "eta_sq": (1e-6, 1e2), "sigma_sq": (1e-10, 1.0)}
STEP = 0.01  # single-coordinate step in log space for the optimality check
LOGLIK_ATOL = 1e-6  # nat, reference vs reported log-likelihood
MEAN_ATOL = 1e-7  # log-rate units
SD_RTOL = 1e-5


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def model_hyper(path: Path) -> Hyper:
    hp = json.loads(Path(path).read_text())["hyperparams"]
    return Hyper(hp["theta_ag"], hp["theta_yr"], hp["eta_sq"], hp["sigma_sq"])


def _close(label: str, got: np.ndarray, want: np.ndarray, atol: float, rtol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(np.isfinite(got)) or np.any(err > 0):
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [f"{label}: {float(got.flat[i])!r} vs reference {float(want.flat[i])!r} at index {i}"]
    return []


def check_fit(outdir: Path, x: np.ndarray, y: np.ndarray) -> tuple[list[str], float, UniversalKriging]:
    """fit.csv and model.json: likelihood, trend and optimality against the reference.

    theta_ag and theta_yr are read from model.json: their fit.csv rows are
    written as ``np.float64(...)`` and do not parse.
    """
    errors = []
    rows = {r["parameter"]: r["estimate"] for r in read_rows(outdir / "fit.csv")}
    model = json.loads((outdir / "model.json").read_text())
    hp = model_hyper(outdir / "model.json")
    numeric = {}
    for name, text in rows.items():
        if name in ("theta_ag", "theta_yr"):
            continue
        if name in ("converged", "bound_hit"):
            if text not in ("true", "false"):
                errors.append(f"fit.csv {name} = {text!r}, expected true or false")
            continue
        try:
            numeric[name] = float(text)
        except ValueError:
            errors.append(f"fit.csv {name} = {text!r} does not parse as a number")
    for name in ("eta_sq", "sigma_sq"):
        if numeric.get(name) != model["hyperparams"][name]:
            errors.append(f"fit.csv {name} {numeric.get(name)!r} differs from model.json {model['hyperparams'][name]!r}")
    errors += _close("model.json inputs", np.asarray(model["inputs"]), x, 0.0)
    errors += _close("model.json y", np.asarray(model["y"]), y, 1e-12)

    uk = UniversalKriging(x, y, hp)
    loglik = numeric.get("log_likelihood", math.nan)
    errors += _close("fit log_likelihood", loglik, uk.loglik, LOGLIK_ATOL, 1e-12)
    beta = np.array([numeric.get(k, math.nan) for k in ("beta_0", "beta_age", "beta_year", "beta_age_sq")])
    raw_design = np.column_stack([np.ones(len(x)), x[:, 0], x[:, 1], x[:, 0] ** 2])
    errors += _close("fit trend h(x) beta", raw_design @ beta, uk.trend.design(x) @ uk.beta, 1e-6)

    for k, name in enumerate(("theta_ag", "theta_yr", "eta_sq", "sigma_sq")):
        lo, hi = FIT_BOUNDS[name]
        value = hp.astuple()[k]
        if math.log(value / lo) < STEP or math.log(hi / value) < STEP:
            continue  # on a search bound: a step outward leaves the box
        for sign in (-1.0, 1.0):
            factors = [1.0] * 4
            factors[k] = math.exp(sign * STEP)
            stepped = profiled_loglik(x, y, hp.scaled(factors))
            if stepped > uk.loglik + LOGLIK_ATOL:
                errors.append(f"fit: a {sign * STEP:+.0%} step in {name} raises the log-likelihood by {stepped - uk.loglik:.3g} nat")
    return errors, loglik, uk


def check_posterior(path: Path, xs: np.ndarray, mean: np.ndarray, var: np.ndarray, level: float) -> list[str]:
    """A smooth/forecast CSV: inputs, mean, sd and the band mean -/+ z sd."""
    rows = read_rows(path)
    label = path.name
    errors = _close(f"{label} age/year", np.column_stack([column(rows, "age"), column(rows, "year")]), xs, 0.0)
    if errors:
        return errors
    m, sd = column(rows, "mean_log"), column(rows, "sd_log")
    errors += _close(f"{label} mean_log", m, mean, MEAN_ATOL)
    errors += _close(f"{label} sd_log", sd, np.sqrt(var), 1e-10, SD_RTOL)
    z = z_value(level)
    errors += _close(f"{label} lo", column(rows, "lo"), m - z * sd, 1e-12, 1e-13)
    errors += _close(f"{label} hi", column(rows, "hi"), m + z * sd, 1e-12, 1e-13)
    return errors


def two_year_blocks(uk: UniversalKriging, ages: np.ndarray, y0: float, y1: float):
    """Per-age means (A, 2) and 2 x 2 posterior covariance blocks (A, 2, 2)."""
    pts = np.column_stack([np.repeat(ages, 2), np.tile([y0, y1], ages.size)]).astype(float)
    mean, cov = uk.mean_cov(pts)
    idx = np.arange(ages.size)
    blocks = np.stack([cov[2 * idx, 2 * idx], cov[2 * idx, 2 * idx + 1], cov[2 * idx + 1, 2 * idx + 1]], axis=1)
    return mean.reshape(-1, 2), blocks  # blocks: var0, cov01, var1


def check_improve(outdirs: dict, uk: UniversalKriging, ages: np.ndarray, year: int, n_samples: int, level: float) -> list[str]:
    errors = []
    z = z_value(level)

    rows = read_rows(outdirs["centered"] / "improvement.csv")
    m2, b = two_year_blocks(uk, ages, year - 1.0, year + 1.0)
    mean = -(m2[:, 1] - m2[:, 0]) / 2.0
    sd = np.sqrt((b[:, 0] + b[:, 2] - 2.0 * b[:, 1]) / 4.0)
    errors += _close("centered ages", column(rows, "age"), ages, 0.0)
    errors += _close("centered mean", column(rows, "mean"), mean, 1e-9)
    errors += _close("centered sd", column(rows, "sd"), sd, 1e-10, SD_RTOL)
    errors += _close("centered lo", column(rows, "lo"), column(rows, "mean") - z * column(rows, "sd"), 1e-12, 1e-13)
    errors += _close("centered hi", column(rows, "hi"), column(rows, "mean") + z * column(rows, "sd"), 1e-12, 1e-13)

    # instantaneous improvement: central difference of the reference surface
    rows = read_rows(outdirs["diff"] / "improvement.csv")
    delta = 1e-2
    m2, b = two_year_blocks(uk, ages, year - delta, year + delta)
    mean = -(m2[:, 1] - m2[:, 0]) / (2.0 * delta)
    sd = np.sqrt((b[:, 0] + b[:, 2] - 2.0 * b[:, 1]) / (4.0 * delta * delta))
    errors += _close("diff ages", column(rows, "age"), ages, 0.0)
    errors += _close("diff mean", column(rows, "mean"), mean, 1e-6)
    errors += _close("diff sd", column(rows, "sd"), sd, 1e-8, 1e-3)
    errors += _close("diff lo", column(rows, "lo"), column(rows, "mean") - z * column(rows, "sd"), 1e-12, 1e-13)
    errors += _close("diff hi", column(rows, "hi"), column(rows, "mean") + z * column(rows, "sd"), 1e-12, 1e-13)

    # backward ratio 1 - exp(d), d ~ N(mu, s^2): log-normal closed form
    rows = read_rows(outdirs["back"] / "improvement.csv")
    m2, b = two_year_blocks(uk, ages, year - 1.0, float(year))
    mu = m2[:, 1] - m2[:, 0]
    s = np.sqrt(b[:, 0] + b[:, 2] - 2.0 * b[:, 1])
    scale = np.exp(mu + 0.5 * s * s)
    sd_cf = scale * np.sqrt(np.expm1(s * s))
    errors += _close("back ages", column(rows, "age"), ages, 0.0)
    errors += _close("back mean", column(rows, "mean"), 1.0 - scale, 5.0 * sd_cf / math.sqrt(n_samples))
    errors += _close("back sd", column(rows, "sd"), sd_cf, 0.0, 0.05)
    # band quantiles mapped back to d; the 0.1 s tolerance is about 6 standard errors at 10 000 draws
    errors += _close("back lo as d", np.log(1.0 - column(rows, "lo")), mu + z * s, 0.1 * s.max())
    errors += _close("back hi as d", np.log(1.0 - column(rows, "hi")), mu - z * s, 0.1 * s.max())
    return errors


def check_sample(dirs: list[Path], uk: UniversalKriging, ages: np.ndarray, year: int, n_paths: int) -> list[str]:
    errors = []
    first = (dirs[0] / "paths.csv").read_bytes()
    for d in dirs[1:]:
        if (d / "paths.csv").read_bytes() != first:
            errors.append(f"sample: {d / 'paths.csv'} differs from {dirs[0] / 'paths.csv'} under the same seed")
    data = np.loadtxt(dirs[0] / "paths.csv", delimiter=",", skiprows=1)
    if data.shape != (n_paths * ages.size, 4):
        return errors + [f"sample: paths.csv has shape {data.shape}, expected {(n_paths * ages.size, 4)}"]
    errors += _close("sample ages", data[: ages.size, 1], ages, 0.0)
    errors += _close("sample years", data[:, 2], np.full(len(data), float(year)), 0.0)
    paths = data[:, 3].reshape(n_paths, ages.size)
    mean, cov = uk.mean_cov(np.column_stack([ages, np.full(ages.size, float(year))]))
    errors += _close("sample path mean", paths.mean(axis=0), mean, 5.0 * np.sqrt(np.diag(cov) / n_paths))
    # E||S - C||_F^2 = (||C||_F^2 + tr(C)^2) / N for the sample covariance S of N Gaussian draws
    emp = np.cov(paths, rowvar=False)
    fro = np.linalg.norm(cov, "fro")
    rel = np.linalg.norm(emp - cov, "fro") / fro
    tol = 4.0 * math.sqrt((fro**2 + np.trace(cov) ** 2) / n_paths) / fro
    if not rel < tol:
        errors.append(f"sample: covariance relative Frobenius error {rel:.3g} exceeds {tol:.3g}")
    return errors


def check_update(outdir: Path, before: UniversalKriging, after: UniversalKriging, probes: np.ndarray) -> list[str]:
    rows = read_rows(outdir / "update_report.csv")
    errors = _close("update probes", np.column_stack([column(rows, "age"), column(rows, "year")]), probes, 0.0)
    if errors:
        return errors
    for label, uk in (("before", before), ("after", after)):
        mean, var = uk.mean_var(probes)
        errors += _close(f"update mean_{label}", column(rows, f"mean_{label}"), mean, MEAN_ATOL)
        errors += _close(f"update sd_{label}", column(rows, f"sd_{label}"), np.sqrt(var), 1e-10, SD_RTOL)
    delta = column(rows, "sd_delta")
    errors += _close("update sd_delta", delta, column(rows, "sd_before") - column(rows, "sd_after"), 1e-15, 1e-12)
    if delta.min() < -1e-10:
        errors.append(f"update: posterior sd rose by {-delta.min():.3g} at a probe")
    model = json.loads((outdir / "model_updated.json").read_text())
    if model_hyper(outdir / "model_updated.json") != before.hp:
        errors.append("update: hyperparameters changed")
    errors += _close("model_updated.json log_likelihood", model["log_likelihood"], after.loglik, LOGLIK_ATOL, 1e-12)
    return errors
