#!/usr/bin/env python3
"""Benchmark of the mortgp pipeline: fit, smooth, forecast, improve, sample, update.

    python3 bench/run.py --workload paper_fit --seed 1 --seconds 50 --trace 0

Run from the repository root.  For one workload and seed it

1. writes the workload's CSV inputs from a seeded generator (and, for
   ``large_grid``, a model.json at fixed hyperparameters);
2. runs the ``mortgp`` CLI commands in-process through ``mortgp.cli.main``
   in a fresh interpreter (``worker.py``), one closed-loop caller, whole
   rounds until ``--seconds`` is spent;
3. times fresh interpreters running ``import mortgp.cli``;
4. checks every output against a dense numpy reference (``reference.py``)
   or a property the method must have (``checks.py``);
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

BLAS and mortgp threads are pinned to one for every process.
"""

from __future__ import annotations

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "MORTGP_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from reference import Hyper, UniversalKriging  # noqa: E402
from workloads import (  # noqa: E402
    ETA_SQ,
    FORECAST_YEARS,
    N_PATHS,
    N_SAMPLES,
    SIGMA_SQ,
    THETA_AG,
    THETA_YR,
    WORKLOADS,
    Workload,
    generate,
    in_blocks,
)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import mortgp.cli; print(time.perf_counter() - t)"
WORKER_TIMEOUT_S = 150
LEVEL = 0.95  # smooth/forecast --level default
IMPROVE_LEVEL = 0.80  # improve --level default


def read_cells(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(age, year) inputs and log rates of a CSV the generator wrote."""
    a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return a[:, :2].copy(), np.log(a[:, 2] / a[:, 3])


def write_model(path: Path, uk: UniversalKriging) -> None:
    """model.json (schema 1) for a quadratic-trend, constant-noise model."""
    hp = uk.hp
    payload = {
        "schema_version": 1,
        "family": "squared_exponential",
        "hyperparams": {"theta_ag": hp.theta_ag, "theta_yr": hp.theta_yr, "eta_sq": hp.eta_sq, "sigma_sq": hp.sigma_sq},
        "noise": {"kind": "constant", "sigma_sq": hp.sigma_sq},
        "basis": "quadratic",
        "beta": uk.trend.raw_coefficients(uk.beta).tolist(),
        "inputs": uk.x.tolist(),
        "y": uk.y.tolist(),
        "noise_diag": [hp.sigma_sq] * uk.n,
        "log_likelihood": uk.loglik,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sample_dirs(w: Workload, out: Path) -> list[Path]:
    """Successive sample calls alternate between these, so two outputs can be compared byte for byte."""
    return [out / "sample_a", out / "sample_b"] if w.repeats > 1 else [out / "sample_a"]


def build_plan(w: Workload, work: Path, data: Path, new: Path, seconds: float, trace: bool, src: Path) -> dict:
    out = work / "out"
    ages = f"{w.ages[0]}-{w.ages[1]}"
    last = w.years[1]
    model = out / "fit" / "model.json" if w.model_from_fit else work / "model.json"
    fit = ["fit", "--data", data, "--subset", w.fit_subset, "--mean", "quadratic", "--restarts", str(w.restarts), "--out", out / "fit"]

    def group(metric, *variants):
        """A timed call: one or more CLI invocations; successive calls cycle through the variants."""
        return {"metric": metric, "variants": [[[str(a) for a in argv] for argv in v] for v in variants]}

    improve = [
        ["improve", "--model", model, "--kind", kind, "--year", str(last), "--out", out / f"improve_{kind}"]
        + (["--n-samples", str(N_SAMPLES)] if kind == "back" else [])
        for kind in ("back", "diff", "centered")
    ]
    sample = ["sample", "--model", model, "--year", str(last + 1), "--ages", ages, "--n-paths", str(N_PATHS), "--out"]
    forecast = ["forecast", "--model", model, "--years", f"{last + 1}-{last + FORECAST_YEARS}", "--ages", ages]
    return {
        "src": str(src),
        "trace": trace,
        "seconds": seconds,
        "repeats": w.repeats,
        "fit": group("fit", [fit]),
        "groups": [
            group("smooth", [["smooth", "--model", model, "--out", out / "smooth"]]),
            group("forecast", [forecast + ["--out", out / "forecast"]]),
            group("improve", improve),
            group("sample", *[[sample + [d]] for d in sample_dirs(w, out)]),
            group("update", [["update", "--model", model, "--new-data", new, "--out", out / "update"]]),
        ],
        "lml": {"data": str(data), "subset": w.fit_subset, "model": str(out / "fit" / "model.json")},
    }


def time_setup(env: dict, root: Path) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing mortgp.cli, and the import alone."""
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"import mortgp.cli failed:\n{done.stderr}")
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    return walls, imports


def run_checks(w: Workload, work: Path, data: Path, new: Path, model_uk: UniversalKriging | None) -> tuple[list[str], float]:
    out = work / "out"
    x_all, y_all = read_cells(data)
    fit_rows = np.array([in_blocks(w.fit_blocks, int(a), int(yr)) for a, yr in x_all])
    errors, loglik, fit_uk = checks.check_fit(out / "fit", x_all[fit_rows], y_all[fit_rows])
    uk = fit_uk if w.model_from_fit else model_uk
    mean, var = uk.train_mean_var()
    errors += checks.check_posterior(out / "smooth" / "smooth.csv", uk.x, mean, var, LEVEL)
    last = w.years[1]
    grid = np.array([[a, yr] for yr in range(last + 1, last + FORECAST_YEARS + 1) for a in w.age_grid], dtype=float)
    mean, var = uk.mean_var(grid)
    errors += checks.check_posterior(out / "forecast" / "forecast.csv", grid, mean, var, LEVEL)
    ages = np.unique(uk.x[:, 0])
    improve_dirs = {k: out / f"improve_{k}" for k in ("back", "diff", "centered")}
    errors += checks.check_improve(improve_dirs, uk, ages, last, N_SAMPLES, IMPROVE_LEVEL)
    errors += checks.check_sample(sample_dirs(w, out), uk, w.age_grid.astype(float), last + 1, N_PATHS)
    x_new, y_new = read_cells(new)
    after = UniversalKriging(np.vstack([uk.x, x_new]), np.concatenate([uk.y, y_new]), uk.hp)
    errors += checks.check_update(out / "update", uk, after, x_new)
    return errors, loglik


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true", help="keep the run's inputs and outputs under .bench_run/")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mortgp" / "cli.py").is_file():
        print(f"error: {src / 'mortgp'} not found; run from the repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    runs = root / ".bench_run"
    work = runs / f"{w.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    # untimed: inputs, and the fixed-hyperparameter model for large_grid
    data, new = generate(w, args.seed, work)
    model_uk = None
    if not w.model_from_fit:
        model_uk = UniversalKriging(*read_cells(data), Hyper(THETA_AG, THETA_YR, ETA_SQ, SIGMA_SQ))
        write_model(work / "model.json", model_uk)

    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(build_plan(w, work, data, new, args.seconds, bool(args.trace), src)))
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), str(result_path)],
        env=env, cwd=root, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=True,
    )
    result = json.loads(result_path.read_text())
    setup_walls, import_times = time_setup(env, root)

    errors, loglik = run_checks(w, work, data, new, model_uk)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    calls = result["calls"]
    attempted = sum(len(c[2]) for c in calls)
    failed = sum(1 for c in calls for code in c[2] if code != 0)

    if args.trace:
        spans_path = runs / f"trace-{w.name}-s{args.seed}.json"
        spans_path.write_text(json.dumps({"calls": calls, "spans": result["spans"]}))
        metrics = layers.per_layer(calls, result["spans"], import_times)
    else:
        by_metric: dict[str, list[float]] = {}
        for metric, seconds, *_ in calls:
            by_metric.setdefault(metric, []).append(seconds)
        metrics = {f"{m}_s": {"value": layers.warm_median(v), "unit": "s"} for m, v in by_metric.items()}
        metrics["fit_loglik"] = {"value": loglik, "unit": "nat"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_walls), "unit": "s"}
    if not args.keep:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
