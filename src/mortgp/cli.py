"""Command-line interface.

Each subcommand reads CSV/JSON inputs, runs one stage of the analysis, and
writes plot-ready CSVs to ``--out``.  Once they are written, ``main`` adds
``manifest.json``, recording every resolved option, so a run is reproducible
byte-for-byte from it; a command that fails writes none.  No plotting here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import glm as glm_mod
from . import gp as gp_mod
from . import improvement as imp_mod
from . import updating as upd_mod
from .data import SUBSET_PRESETS, TEST_PRESETS, MortalityTable, SubsetSpec, _write_csv, load_table, subset
from .hyperfit import fit_mle
from .kernels import DeltaMethodNoise, KernelFamily
from .means import MeanBasis
from .serialize import load_model, save_model

KERNEL_NAMES = {
    "sqexp": KernelFamily.SQUARED_EXPONENTIAL,
    "squared_exponential": KernelFamily.SQUARED_EXPONENTIAL,
    "matern52": KernelFamily.MATERN52,
}

MEAN_NAMES = {**{basis.value: basis for basis in MeanBasis}, "none": None}

# the coefficients of a basis of dimension p are the first p of these; zip with beta stops there
BETA_LABELS = ("beta_0", "beta_age", "beta_year", "beta_age_sq")


def _parse_subset(text: str) -> SubsetSpec | None:
    if text == "all":
        return None
    if text in SUBSET_PRESETS:
        return SUBSET_PRESETS[text]
    return SubsetSpec.parse(text)


def _noise_model(text: str) -> DeltaMethodNoise | None:
    """``fit_mle``'s noise argument for a ``--noise`` value: None (a constant variance, estimated) for constant."""
    try:
        if text == "constant":
            return None
        if text.startswith("delta:"):
            return DeltaMethodNoise(float(text.split(":", 1)[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected constant|delta:K with K > 0, got {text!r}")


def _parse_noise(text: str) -> str:
    _noise_model(text)  # raises on a bad value; the parser keeps the string, which manifest.json records
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the file's zero-death cells: fit and improve name the training table's own
        table = load_table(args.data)
    spec = _parse_subset(args.subset)
    return subset(table, spec) if spec is not None else table


def _write_manifest(out: Path, args) -> None:
    options = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        options[key] = str(value) if isinstance(value, Path) else value
    payload = {"command": args.command, "options": options, "version": __version__}
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_posterior_csv(path: Path, xs: np.ndarray, post: gp_mod.PosteriorSummary, level: float) -> None:
    lo, hi = post.band(level)
    cells = xs.astype(int)
    block = (cells[:, 0].tolist(), cells[:, 1].tolist(), post.mean.tolist(), post.sd.tolist(), lo.tolist(), hi.tolist())
    _write_csv(path, ["age", "year", "mean_log", "sd_log", "lo", "hi"], [block])


def _write_estimates(path: Path, rows) -> None:
    """Write ``(parameter, estimate)`` rows as CSV and print them as a table, numbers to 6 significant digits."""
    _write_csv(path, ["parameter", "estimate"], [list(zip(*rows))])
    width = max(len(name) for name, _ in rows)
    print(f"{'parameter':<{width}}  estimate")
    for name, value in rows:
        print(f"{name:<{width}}  {value if isinstance(value, str) else format(value, '.6g')}")


def cmd_fit(args, out: Path) -> None:
    table = _load_training_table(args)
    table._warn_zero_deaths()  # the GP leaves them out; glm fits them, so it does not warn
    noise = _noise_model(args.noise)
    result = fit_mle(table, KERNEL_NAMES[args.kernel], MEAN_NAMES[args.mean], noise, n_restarts=args.restarts, seed=args.seed)
    model = result.model
    save_model(model, out / "model.json")
    rows = [
        ["theta_ag", model.hp.theta_ag],
        ["theta_yr", model.hp.theta_yr],
        ["eta_sq", model.hp.eta_sq],
        ["sigma_sq", model.hp.sigma_sq],
        *zip(BETA_LABELS, model.beta.tolist()),
        ["log_likelihood", model.log_likelihood],
        ["converged", str(result.converged).lower()],
        ["bound_hit", str(result.bound_hit).lower()],
    ]
    _write_estimates(out / "fit.csv", rows)


def cmd_smooth(args, out: Path) -> None:
    gp = load_model(args.model)
    post = gp_mod.predict(gp, gp.x)
    _write_posterior_csv(out / "smooth.csv", gp.x, post, args.level)
    print(f"wrote in-sample surface for {gp.n} cells to {out / 'smooth.csv'}")


def cmd_forecast(args, out: Path) -> None:
    gp = load_model(args.model)
    ages = np.arange(args.ages[0], args.ages[1] + 1)
    years = np.arange(args.years[0], args.years[1] + 1)
    grid = np.column_stack((np.tile(ages, years.size), np.repeat(years, ages.size))).astype(float)  # year-major
    post = gp_mod.predict_observation(gp, grid) if args.observation else gp_mod.predict(gp, grid)
    _write_posterior_csv(out / "forecast.csv", grid, post, args.level)
    print(f"wrote {grid.shape[0]} forecast cells to {out / 'forecast.csv'}")


def _curve_block(curve: imp_mod.ImprovementCurve):
    n = curve.ages.size
    sd, lo, hi = (v.tolist() if v is not None else [""] * n for v in (curve.sd, curve.lo, curve.hi))
    return curve.ages.astype(int).tolist(), [int(curve.year)] * n, [curve.kind] * n, curve.mean.tolist(), sd, lo, hi


# the options each improve --kind reads, besides --year and --ages, and their defaults (None: required)
_MODEL_KIND = {"model": None, "level": 0.80}
IMPROVE_OPTIONS = {"obs": {"data": None, "subset": "all"}, "back": _MODEL_KIND, "diff": _MODEL_KIND, "centered": {**_MODEL_KIND, "h": 1.0}}


class _ImproveKind(argparse.Action):
    """Stores ``--kind`` and defaults the options it reads; the others stay None, so ``cmd_improve`` sees any given."""

    def __call__(self, parser, namespace, kind, option_string=None):
        namespace.kind = kind
        for name, default in IMPROVE_OPTIONS[kind].items():
            if getattr(namespace, name) is None:
                setattr(namespace, name, default)


def cmd_improve(args, out: Path) -> None:
    reads = IMPROVE_OPTIONS[args.kind]
    for name in ("data", "subset", "model", "level", "h"):
        if (name in reads) == (getattr(args, name) is None):  # an option it reads is missing, or one it does not is given
            raise ValueError(f"--kind {args.kind} {'requires' if name in reads else 'does not read'} --{name}")
    if args.kind == "obs":
        table = _load_training_table(args)
        table._warn_zero_deaths()
        ages = np.arange(args.ages[0], args.ages[1] + 1) if args.ages else None
        curve = imp_mod.mi_back_observed(table, args.year, ages=ages)
    else:
        gp = load_model(args.model)
        ages = np.arange(args.ages[0], args.ages[1] + 1) if args.ages else np.unique(gp.x[:, 0]).astype(int)
        if args.kind == "back":
            curve = imp_mod.mi_back_gp(gp, ages, args.year, level=args.level)
        elif args.kind == "diff":
            curve = imp_mod.mi_diff_gp(gp, ages, args.year, level=args.level)
        else:
            curve = imp_mod.mi_centered(gp, ages, args.year, h=args.h, level=args.level)
    _write_csv(out / "improvement.csv", ["age", "year", "kind", "mean", "sd", "lo", "hi"], [_curve_block(curve)])
    print(f"wrote {curve.ages.size} improvement factors ({curve.kind}) to {out / 'improvement.csv'}")


def cmd_sample(args, out: Path) -> None:
    gp = load_model(args.model)
    ages = np.arange(args.ages[0], args.ages[1] + 1)
    pts = np.column_stack([ages, np.full(ages.size, args.year)]).astype(float)
    paths = gp_mod.sample_paths(gp, pts, args.n_paths, args.seed)
    # one block per path; the ages and the year are formatted once, the path index once per path
    age_col = [str(age) for age in ages.tolist()]
    year_col = [str(args.year)] * ages.size
    blocks = (([str(k)] * ages.size, age_col, year_col, path.tolist()) for k, path in enumerate(paths))
    _write_csv(out / "paths.csv", ["path", "age", "year", "value"], blocks)
    print(f"wrote {args.n_paths} paths over {ages.size} ages to {out / 'paths.csv'}")


def cmd_update(args, out: Path) -> None:
    gp = load_model(args.model)
    new_cells = load_table(args.new_data)
    if not new_cells.trainable.any():
        raise ValueError(f"new data {args.new_data} has no trainable cells (deaths > 0)")
    updated = upd_mod.update(gp, new_cells)
    probes = np.asarray(args.probes, dtype=float) if args.probes else new_cells.inputs()
    report = upd_mod.update_report(gp, updated, probes)
    save_model(updated, out / "model_updated.json")
    cells = probes.astype(int)
    columns = (report.before.mean, report.before.sd, report.after.mean, report.after.sd, report.sd_delta)
    block = (cells[:, 0].tolist(), cells[:, 1].tolist(), *(c.tolist() for c in columns))
    _write_csv(out / "update_report.csv", ["age", "year", "mean_before", "sd_before", "mean_after", "sd_after", "sd_delta"], [block])
    print(f"updated model with {len(new_cells)} cells; report at {out / 'update_report.csv'}")


def cmd_glm(args, out: Path) -> None:
    table = _load_training_table(args)
    basis = MEAN_NAMES[args.mean]
    fit = glm_mod.fit_poisson_glm(table, basis)
    rows = [*zip(BETA_LABELS, fit.beta.tolist())]
    rows += [["deviance", fit.deviance], ["iterations", fit.iterations], ["converged", "true"]]  # fit_poisson_glm raises unless IRLS converges
    _write_estimates(out / "glm.csv", rows)


def _experiment_protocols(text: str) -> list[tuple[str, str]]:
    if text == "table6":
        return [(s, m) for s in ("subset3", "subset1", "all") for m in ("intercept", "quadratic")]
    name, _, mean = text.rpartition("-")
    if mean not in MEAN_NAMES or (name not in SUBSET_PRESETS and name != "all"):
        raise ValueError(
            f"unknown protocol {text!r}; use <all|subset1|subset2|subset3>-<intercept|linear|quadratic> or table6"
        )
    return [(name, mean)]


def cmd_experiment(args, out: Path) -> None:
    full = load_table(args.data)
    summary_rows = []
    for subset_name, mean_name in _experiment_protocols(args.protocol):
        spec = SUBSET_PRESETS.get(subset_name)
        train = subset(full, spec) if spec is not None else full
        result = fit_mle(train, basis=MEAN_NAMES[mean_name], n_restarts=args.restarts, seed=args.seed)
        gp = result.model

        probe_year = args.probe_year
        probes = np.array([[a, probe_year] for a in args.probe_ages], dtype=float)
        post = gp_mod.predict(gp, probes)
        for i, age in enumerate(args.probe_ages):
            hit = full.log_rate[(full.age == age) & (full.year == probe_year)]
            observed = float(hit[0]) if hit.size else ""
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
                _write_posterior_csv(out / f"predictions_{subset_name}_{mean_name}.csv", xs, test_post, args.level)
                rmse = float(np.sqrt(np.mean((test_post.mean - test.responses()) ** 2)))
                print(f"{subset_name}-{mean_name}: test RMSE (log rate) over {xs.shape[0]} cells = {rmse:.5f}")

    header = ["train_set", "mean", "age", "year", "mean_log", "sd_log", "observed_log"]
    _write_csv(out / "experiment.csv", header, [list(zip(*summary_rows))])
    print(f"{'train':<9} {'mean':<10} {'age':>4} {'year':>5}  {'m*':>9}  {'s*':>8}  observed")
    for row in summary_rows:
        obs = f"{row[6]:9.4f}" if row[6] != "" else "        -"
        print(f"{row[0]:<9} {row[1]:<10} {row[2]:>4} {row[3]:>5}  {row[4]:9.4f}  {row[5]:8.4f} {obs}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mortgp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mortgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # options of several commands; each command takes only those it reads
        "--out": dict(default="mortgp_out", help="output directory"),
        "--data": dict(required=True, help="mortality CSV (age,year,deaths,exposure)"),
        "--subset": dict(default="all", help="all, subset1..3, or Y0-Y1:A0-A1[,...] blocks"),
        "--model": dict(required=True, help="fitted model JSON from `mortgp fit`"),
        "--seed": dict(type=int, default=0),
        "--level": dict(type=_parse_level, default=0.95, help="credible level for bands, in (0, 1)"),
    }

    def add_common(p, *names):
        for name in ("--out", *names):
            p.add_argument(name, **shared[name])

    p = sub.add_parser("fit", help="estimate hyperparameters by maximum likelihood")
    add_common(p, "--data", "--subset", "--seed")
    p.add_argument("--mean", choices=sorted(MEAN_NAMES), default="intercept")
    p.add_argument("--kernel", choices=sorted(KERNEL_NAMES), default="sqexp")
    p.add_argument("--noise", type=_parse_noise, default="constant", help="constant or delta:K (overdispersion factor K)")
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("smooth", help="in-sample smoothed surface at the training cells")
    add_common(p, "--model", "--level")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("forecast", help="posterior surface over an age/year grid")
    add_common(p, "--model", "--level")
    p.add_argument("--years", type=_parse_range, required=True, metavar="Y0-Y1")
    p.add_argument("--ages", type=_parse_range, required=True, metavar="A0-A1")
    p.add_argument("--observation", action="store_true", help="widen bands by the observation noise")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("improve", help="mortality improvement factors by age")
    add_common(p, "--subset", "--level")
    p.add_argument("--data", help="mortality CSV (required for --kind obs)")
    p.add_argument("--model", help="fitted model JSON (required for back/diff/centered)")
    p.add_argument("--kind", choices=list(IMPROVE_OPTIONS), required=True, action=_ImproveKind)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--ages", type=_parse_range, default=None, metavar="A0-A1")
    p.add_argument("--h", type=float, help="step for --kind centered (default 1.0)")
    p.add_argument("--n-samples", type=int, default=10_000, help="no effect; kept so older scripts still parse")
    p.set_defaults(func=cmd_improve, subset=None, level=None)  # --kind defaults the options it reads

    p = sub.add_parser("sample", help="joint posterior trajectories across ages")
    add_common(p, "--model", "--seed")
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--ages", type=_parse_range, required=True, metavar="A0-A1")
    p.add_argument("--n-paths", type=int, default=100)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("update", help="fold new cells into a fitted model (fixed hyperparameters)")
    add_common(p, "--model")
    p.add_argument("--new-data", required=True, help="CSV of new cells")
    p.add_argument("--probes", type=_parse_probes, default=None, help="AGE:YEAR[,AGE:YEAR...] probe points (default: the new cells)")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("glm", help="Poisson GLM baseline with exposure offset")
    add_common(p, "--data", "--subset")
    p.add_argument("--mean", choices=[basis.value for basis in MeanBasis], default="quadratic")
    p.set_defaults(func=cmd_glm)

    p = sub.add_parser("experiment", help="train/test replication over the named subsets")
    add_common(p, "--data", "--seed", "--level")
    p.add_argument("--protocol", required=True, help="<subset>-<mean>, e.g. subset3-quadratic, or table6")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--probe-year", type=int, default=2014)
    p.add_argument("--probe-ages", type=int, nargs="+", default=[70, 80])
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning that reaches stderr is one line about the input, not the library line that issued it
    format_warning, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        _write_manifest(out, args)
    except Exception as exc:  # propagate module errors as a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning
    return 0


if __name__ == "__main__":
    sys.exit(main())
