"""Command-line interface.

Each subcommand reads CSV/JSON inputs, runs one stage of the analysis, and
writes plot-ready CSVs plus a manifest recording every resolved option, so a
run is reproducible byte-for-byte from its manifest.  No plotting happens
in-process.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import glm as glm_mod
from . import gp as gp_mod
from . import improvement as imp_mod
from . import updating as upd_mod
from .data import SUBSET_PRESETS, TEST_PRESETS, MortalityTable, SubsetSpec, load_table, subset
from .hyperfit import FitConfig, fit_mle
from .kernels import DeltaMethodNoise, KernelFamily
from .means import MeanBasis
from .serialize import load_model, save_model

KERNEL_NAMES = {
    "sqexp": KernelFamily.SQUARED_EXPONENTIAL,
    "squared_exponential": KernelFamily.SQUARED_EXPONENTIAL,
    "matern52": KernelFamily.MATERN52,
}

MEAN_NAMES = {
    "intercept": MeanBasis.INTERCEPT,
    "linear": MeanBasis.LINEAR,
    "quadratic": MeanBasis.QUADRATIC_AGE,
    "none": None,
}

BETA_LABELS = {
    None: [],
    MeanBasis.INTERCEPT: ["beta_0"],
    MeanBasis.LINEAR: ["beta_0", "beta_age", "beta_year"],
    MeanBasis.QUADRATIC_AGE: ["beta_0", "beta_age", "beta_year", "beta_age_sq"],
}


def _parse_subset(text: str) -> SubsetSpec | None:
    if text == "all":
        return None
    if text in SUBSET_PRESETS:
        return SUBSET_PRESETS[text]
    return SubsetSpec.parse(text)


def _noise_model(text: str):
    """``fit_mle``'s noise argument for a ``--noise`` value; ValueError when malformed."""
    if text == "constant":
        return "constant"
    if text.startswith("delta:"):
        return DeltaMethodNoise(float(text.split(":", 1)[1]))
    raise ValueError(text)


def _parse_noise(text: str) -> str:
    # checks the form but keeps the string, which manifest.json records
    try:
        _noise_model(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected constant|delta:K with K > 0, got {text!r}") from None
    return text


def _parse_level(text: str) -> float:
    try:
        level = float(text)
    except ValueError:
        level = math.nan
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"expected a credible level in (0, 1), got {text!r}")
    return level


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO-HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text!r} has lo > hi")
    return lo, hi


def _parse_probes(text: str) -> tuple[tuple[int, int], ...]:
    try:
        return tuple((int(age), int(year)) for age, year in (part.split(":") for part in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected AGE:YEAR[,AGE:YEAR...], got {text!r}") from None


def _load_training_table(args) -> MortalityTable:
    table = load_table(args.data)
    spec = _parse_subset(args.subset)
    return subset(table, spec) if spec is not None else table


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, args) -> None:
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        options[key] = str(value) if isinstance(value, Path) else value
    payload = {"command": command, "options": options, "version": __version__}
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # rows hold Python ints, floats (written as their repr), strings and None (an empty cell)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _posterior_rows(xs: np.ndarray, post: gp_mod.PosteriorSummary, level: float):
    lo, hi = post.band(level)
    cells = xs.astype(int)
    return zip(cells[:, 0].tolist(), cells[:, 1].tolist(), post.mean.tolist(), post.sd.tolist(), lo.tolist(), hi.tolist())


POSTERIOR_HEADER = ["age", "year", "mean_log", "sd_log", "lo", "hi"]


def _print_fit(result) -> None:
    rows = [
        ("theta_ag", result.hp.theta_ag),
        ("theta_yr", result.hp.theta_yr),
        ("eta_sq", result.hp.eta_sq),
        ("sigma_sq", result.hp.sigma_sq),
    ]
    rows += list(zip(BETA_LABELS[result.basis], result.beta))
    rows.append(("log_likelihood", result.log_likelihood))
    width = max(len(name) for name, _ in rows)
    print(f"{'parameter':<{width}}  estimate")
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")
    if result.bound_hit:
        print("warning: optimizer stopped at a hyperparameter bound")


def cmd_fit(args) -> int:
    out = _outdir(args)
    table = _load_training_table(args)
    config = FitConfig(n_restarts=args.restarts, seed=args.seed)
    result = fit_mle(table, family=KERNEL_NAMES[args.kernel], basis=MEAN_NAMES[args.mean], noise=_noise_model(args.noise), config=config)
    save_model(result.model, out / "model.json")
    rows = [
        ["theta_ag", result.hp.theta_ag],
        ["theta_yr", result.hp.theta_yr],
        ["eta_sq", result.hp.eta_sq],
        ["sigma_sq", result.hp.sigma_sq],
        *zip(BETA_LABELS[result.basis], result.beta.tolist()),
        ["log_likelihood", result.log_likelihood],
        ["converged", str(result.converged).lower()],
        ["bound_hit", str(result.bound_hit).lower()],
    ]
    _write_csv(out / "fit.csv", ["parameter", "estimate"], rows)
    _write_manifest(out, "fit", args)
    _print_fit(result)
    return 0


def _write_posterior(out: Path, stem: str, xs: np.ndarray, post: gp_mod.PosteriorSummary, level: float) -> None:
    _write_csv(out / f"{stem}.csv", POSTERIOR_HEADER, _posterior_rows(xs, post, level))
    (out / f"{stem}.json").write_text(json.dumps(post.to_dict(level), indent=2, sort_keys=True) + "\n")


def cmd_smooth(args) -> int:
    out = _outdir(args)
    gp = load_model(args.model)
    post = gp_mod.predict(gp, gp.x)
    _write_posterior(out, "smooth", gp.x, post, args.level)
    _write_manifest(out, "smooth", args)
    print(f"wrote in-sample surface for {gp.n} cells to {out / 'smooth.csv'}")
    return 0


def cmd_forecast(args) -> int:
    out = _outdir(args)
    gp = load_model(args.model)
    ages = np.arange(args.ages[0], args.ages[1] + 1)
    years = np.arange(args.years[0], args.years[1] + 1)
    grid = np.array([[a, y] for y in years for a in ages], dtype=float)
    post = gp_mod.predict_observation(gp, grid) if args.observation else gp_mod.predict(gp, grid)
    _write_posterior(out, "forecast", grid, post, args.level)
    _write_manifest(out, "forecast", args)
    print(f"wrote {grid.shape[0]} forecast cells to {out / 'forecast.csv'}")
    return 0


def _curve_rows(curve: imp_mod.ImprovementCurve):
    n = curve.ages.size
    sd, lo, hi = (v.tolist() if v is not None else [None] * n for v in (curve.sd, curve.lo, curve.hi))
    return zip(curve.ages.astype(int).tolist(), [int(curve.year)] * n, [curve.kind] * n, curve.mean.tolist(), sd, lo, hi)


def cmd_improve(args) -> int:
    out = _outdir(args)
    if args.kind == "obs":
        if args.data is None:
            raise ValueError("--kind obs requires --data")
        table = _load_training_table(args)
        ages = np.arange(args.ages[0], args.ages[1] + 1) if args.ages else None
        curve = imp_mod.mi_back_observed(table, args.year, ages=ages)
    else:
        if args.model is None:
            raise ValueError(f"--kind {args.kind} requires --model")
        gp = load_model(args.model)
        if args.ages:
            ages = np.arange(args.ages[0], args.ages[1] + 1)
        else:
            ages = np.unique(gp.x[:, 0]).astype(int)
        if args.kind == "back":
            curve = imp_mod.mi_back_gp(gp, ages, args.year, n_samples=args.n_samples, seed=args.seed, level=args.level)
        elif args.kind == "diff":
            curve = imp_mod.mi_diff_gp(gp, ages, args.year, level=args.level)
        else:
            curve = imp_mod.mi_centered(gp, ages, args.year, h=args.h, level=args.level)
    _write_csv(out / "improvement.csv", ["age", "year", "kind", "mean", "sd", "lo", "hi"], _curve_rows(curve))
    _write_manifest(out, "improve", args)
    print(f"wrote {curve.ages.size} improvement factors ({curve.kind}) to {out / 'improvement.csv'}")
    return 0


def cmd_sample(args) -> int:
    out = _outdir(args)
    gp = load_model(args.model)
    ages = np.arange(args.ages[0], args.ages[1] + 1)
    pts = np.column_stack([ages, np.full(ages.size, args.year)]).astype(float)
    paths = gp_mod.sample_paths(gp, pts, args.n_paths, args.seed)
    ages_list = ages.tolist()
    rows = ([k, age, args.year, v] for k, path in enumerate(paths.tolist()) for age, v in zip(ages_list, path))
    _write_csv(out / "paths.csv", ["path", "age", "year", "value"], rows)
    _write_manifest(out, "sample", args)
    print(f"wrote {args.n_paths} paths over {ages.size} ages to {out / 'paths.csv'}")
    return 0


def cmd_update(args) -> int:
    out = _outdir(args)
    gp = load_model(args.model)
    new_cells = load_table(args.new_data)
    if not new_cells.training_cells():
        raise ValueError(f"new data {args.new_data} has no trainable cells (deaths > 0)")
    updated = upd_mod.update(gp, new_cells)
    probes = np.asarray(args.probes, dtype=float) if args.probes else new_cells.inputs()
    report = upd_mod.update_report(gp, updated, probes)
    save_model(updated, out / "model_updated.json")
    cells = probes.astype(int)
    columns = (report.before.mean, report.before.sd, report.after.mean, report.after.sd, report.sd_delta)
    rows = zip(cells[:, 0].tolist(), cells[:, 1].tolist(), *(c.tolist() for c in columns))
    _write_csv(out / "update_report.csv", ["age", "year", "mean_before", "sd_before", "mean_after", "sd_after", "sd_delta"], rows)
    _write_manifest(out, "update", args)
    print(f"updated model with {len(new_cells)} cells; report at {out / 'update_report.csv'}")
    return 0


def cmd_glm(args) -> int:
    out = _outdir(args)
    table = _load_training_table(args)
    basis = MEAN_NAMES[args.mean]
    if basis is None:
        raise ValueError("GLM requires a mean basis (intercept, linear, or quadratic)")
    fit = glm_mod.fit_poisson_glm(table, basis)
    rows = [*zip(BETA_LABELS[basis], fit.beta.tolist())]
    rows += [["deviance", fit.deviance], ["iterations", fit.iterations], ["converged", str(fit.converged).lower()]]
    _write_csv(out / "glm.csv", ["parameter", "estimate"], rows)
    payload = {
        "basis": basis.value,
        "beta": fit.beta.tolist(),
        "deviance": fit.deviance,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    (out / "glm.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "glm", args)
    width = max(len(r[0]) for r in rows)
    print(f"{'parameter':<{width}}  estimate")
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _experiment_protocols(text: str) -> list[tuple[str, str]]:
    if text == "table6":
        return [(s, m) for s in ("subset3", "subset1", "all") for m in ("intercept", "quadratic")]
    name, _, mean = text.rpartition("-")
    if mean not in MEAN_NAMES or (name not in SUBSET_PRESETS and name != "all"):
        raise ValueError(
            f"unknown protocol {text!r}; use <all|subset1|subset2|subset3>-<intercept|linear|quadratic> or table6"
        )
    return [(name, mean)]


def cmd_experiment(args) -> int:
    out = _outdir(args)
    full = load_table(args.data)
    summary_rows = []
    for subset_name, mean_name in _experiment_protocols(args.protocol):
        spec = SUBSET_PRESETS.get(subset_name)
        train = subset(full, spec) if spec is not None else full
        config = FitConfig(n_restarts=args.restarts, seed=args.seed)
        result = fit_mle(train, basis=MEAN_NAMES[mean_name], config=config)
        gp = result.model

        probe_year = args.probe_year
        probes = np.array([[a, probe_year] for a in args.probe_ages], dtype=float)
        post = gp_mod.predict(gp, probes)
        for i, age in enumerate(args.probe_ages):
            observed = None
            if full.has_cell(int(age), probe_year):
                observed = float(full.cell(int(age), probe_year).log_rate)
            summary_rows.append([subset_name, mean_name, int(age), probe_year, post.mean[i].item(), post.sd[i].item(), observed])

        test_spec = TEST_PRESETS.get(subset_name)
        if test_spec is not None:
            try:
                test = subset(full, test_spec)
            except ValueError:
                test = None
            if test is not None:
                xs = test.inputs()
                test_post = gp_mod.predict(gp, xs)
                _write_csv(
                    out / f"predictions_{subset_name}_{mean_name}.csv",
                    POSTERIOR_HEADER,
                    _posterior_rows(xs, test_post, args.level),
                )
                rmse = float(np.sqrt(np.mean((test_post.mean - test.responses()) ** 2)))
                print(f"{subset_name}-{mean_name}: test RMSE (log rate) over {xs.shape[0]} cells = {rmse:.5f}")

    _write_csv(out / "experiment.csv", ["train_set", "mean", "age", "year", "mean_log", "sd_log", "observed_log"], summary_rows)
    _write_manifest(out, "experiment", args)
    print(f"{'train':<9} {'mean':<10} {'age':>4} {'year':>5}  {'m*':>9}  {'s*':>8}  observed")
    for row in summary_rows:
        obs = f"{row[6]:9.4f}" if row[6] is not None else "        -"
        print(f"{row[0]:<9} {row[1]:<10} {row[2]:>4} {row[3]:>5}  {row[4]:9.4f}  {row[5]:8.4f} {obs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mortgp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mortgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False, model=False):
        p.add_argument("--out", default="mortgp_out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--level", type=_parse_level, default=0.95, help="credible level for bands, in (0, 1)")
        if data:
            p.add_argument("--data", required=True, help="mortality CSV (age,year,deaths,exposure)")
            p.add_argument("--subset", default="all", help="all, subset1..3, or Y0-Y1:A0-A1[,...] blocks")
        if model:
            p.add_argument("--model", required=True, help="fitted model JSON from `mortgp fit`")

    p = sub.add_parser("fit", help="estimate hyperparameters by maximum likelihood")
    add_common(p, data=True)
    p.add_argument("--mean", choices=sorted(MEAN_NAMES), default="intercept")
    p.add_argument("--kernel", choices=sorted(KERNEL_NAMES), default="sqexp")
    p.add_argument("--noise", type=_parse_noise, default="constant", help="constant or delta:K (overdispersion factor K)")
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("smooth", help="in-sample smoothed surface at the training cells")
    add_common(p, model=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("forecast", help="posterior surface over an age/year grid")
    add_common(p, model=True)
    p.add_argument("--years", type=_parse_range, required=True, metavar="Y0-Y1")
    p.add_argument("--ages", type=_parse_range, required=True, metavar="A0-A1")
    p.add_argument("--observation", action="store_true", help="widen bands by the observation noise")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("improve", help="mortality improvement factors by age")
    add_common(p)
    p.add_argument("--data", help="mortality CSV (required for --kind obs)")
    p.add_argument("--subset", default="all")
    p.add_argument("--model", help="fitted model JSON (required for back/diff/centered)")
    p.add_argument("--kind", choices=["obs", "back", "diff", "centered"], required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--ages", type=_parse_range, default=None, metavar="A0-A1")
    p.add_argument("--h", type=float, default=1.0, help="step for --kind centered")
    p.add_argument("--n-samples", type=int, default=10_000)
    p.set_defaults(func=cmd_improve, level=0.80)

    p = sub.add_parser("sample", help="joint posterior trajectories across ages")
    add_common(p, model=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--ages", type=_parse_range, required=True, metavar="A0-A1")
    p.add_argument("--n-paths", type=int, default=100)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("update", help="fold new cells into a fitted model (fixed hyperparameters)")
    add_common(p, model=True)
    p.add_argument("--new-data", required=True, help="CSV of new cells")
    p.add_argument("--probes", type=_parse_probes, default=None, help="AGE:YEAR[,AGE:YEAR...] probe points (default: the new cells)")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("glm", help="Poisson GLM baseline with exposure offset")
    add_common(p, data=True)
    p.add_argument("--mean", choices=["intercept", "linear", "quadratic"], default="quadratic")
    p.set_defaults(func=cmd_glm)

    p = sub.add_parser("experiment", help="train/test replication over the named subsets")
    add_common(p, data=True)
    p.add_argument("--protocol", required=True, help="<subset>-<mean>, e.g. subset3-quadratic, or table6")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--probe-year", type=int, default=2014)
    p.add_argument("--probe-ages", type=int, nargs="+", default=[70, 80])
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # propagate module errors as a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
