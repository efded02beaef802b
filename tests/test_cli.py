import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mortgp
import mortgp.gp as gp_mod
from mortgp import KernelFamily, KernelHyperparams, MeanBasis, fit_gls, load_model, load_table, save_model, save_table, subset
from mortgp.cli import _write_csv, build_parser, main
from mortgp.data import SUBSET_PRESETS, SubsetSpec

from conftest import simulate_grid_table, table_from_surface, traced_memory


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Full-range synthetic dataset covering the named subsets."""

    def f(age, year):
        return -9.2 + 0.085 * age - 0.012 * (year - 1999) + 0.02 * np.sin(0.7 * age)

    table = table_from_surface(range(50, 85), range(1999, 2015), f)
    path = tmp_path_factory.mktemp("data") / "mortality.csv"
    save_table(table, path)
    return path


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("fit")
    rc = main(
        [
            "fit",
            "--data", str(data_csv),
            "--subset", "subset3",
            "--mean", "linear",
            "--restarts", "2",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestFit:
    def test_outputs_exist(self, model_dir):
        for name in ("model.json", "fit.csv", "manifest.json"):
            assert (model_dir / name).exists()

    def test_fit_table_layout(self, model_dir, capsys):
        rows = read_csv(model_dir / "fit.csv")
        names = [r["parameter"] for r in rows]
        for expected in ("theta_ag", "theta_yr", "eta_sq", "sigma_sq", "beta_0", "beta_age", "beta_year", "log_likelihood"):
            assert expected in names

    def test_fit_table_estimates_parse_as_floats(self, model_dir):
        rows = read_csv(model_dir / "fit.csv")
        flags = {"converged", "bound_hit"}
        for row in rows:
            if row["parameter"] in flags:
                assert row["estimate"] in ("true", "false")
            else:
                float(row["estimate"])
        assert flags < {row["parameter"] for row in rows}

    def test_manifest_records_options_and_version(self, model_dir):
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["options"]["subset"] == "subset3"
        assert manifest["options"]["seed"] == 1
        assert "version" in manifest

    def test_reproducible_byte_identical(self, data_csv, tmp_path):
        args = ["fit", "--data", str(data_csv), "--subset", "subset3", "--mean", "intercept", "--restarts", "1", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "fit.csv").read_bytes() == (out2 / "fit.csv").read_bytes()

    def test_delta_noise_mode(self, data_csv, tmp_path):
        out = tmp_path / "delta"
        rc = main(
            [
                "fit", "--data", str(data_csv), "--subset", "subset3",
                "--noise", "delta:2.0", "--restarts", "1", "--seed", "0", "--out", str(out),
            ]
        )
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["noise"] == {"kind": "delta_method", "overdispersion": 2.0}
        assert json.loads((out / "manifest.json").read_text())["options"]["noise"] == "delta:2.0"


class TestDownstreamCommands:
    def test_smooth(self, model_dir, tmp_path):
        out = tmp_path / "smooth"
        assert main(["smooth", "--model", str(model_dir / "model.json"), "--out", str(out)]) == 0
        rows = read_csv(out / "smooth.csv")
        assert len(rows) == 12 * 21  # subset3 training cells
        for row in rows[:5]:
            assert float(row["lo"]) <= float(row["mean_log"]) <= float(row["hi"])
        z = NormalDist().inv_cdf(0.975)  # the default --level 0.95, which manifest.json records
        for row in rows:
            assert float(row["hi"]) - float(row["mean_log"]) == pytest.approx(z * float(row["sd_log"]), rel=1e-12, abs=1e-15)
        assert json.loads((out / "manifest.json").read_text())["options"]["level"] == 0.95
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "smooth.csv"]

    def test_forecast_latent_vs_observation(self, model_dir, tmp_path):
        base = ["forecast", "--model", str(model_dir / "model.json"), "--years", "2011-2014", "--ages", "50-84"]
        out_f, out_o = tmp_path / "f", tmp_path / "o"
        assert main(base + ["--out", str(out_f)]) == 0
        assert main(base + ["--observation", "--out", str(out_o)]) == 0
        latent = read_csv(out_f / "forecast.csv")
        observed = read_csv(out_o / "forecast.csv")
        assert len(latent) == len(observed) == 4 * 35
        assert all(float(o["sd_log"]) > float(l["sd_log"]) for o, l in zip(observed, latent))

    @pytest.mark.parametrize("kind", ["back", "diff", "centered"])
    def test_improve_model_kinds(self, model_dir, tmp_path, kind):
        base = [
            "improve", "--model", str(model_dir / "model.json"),
            "--kind", kind, "--year", "2010", "--ages", "50-70", "--level", "0.80",
        ]
        out = tmp_path / kind
        rc = main(base + ["--seed", "2", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "improvement.csv")
        assert len(rows) == 21
        for row in rows:
            assert row["kind"] in ("backward_gp", "derivative_gp", "centered")
            assert float(row["lo"]) <= float(row["mean"]) <= float(row["hi"])
        if kind == "back":  # exact: --n-samples and --seed are parsed but change no byte
            written = []
            for i, extra in enumerate([[], ["--n-samples", "10000"], ["--n-samples", "2", "--seed", "7"]]):
                assert main(base + extra + ["--out", str(tmp_path / f"back{i}")]) == 0
                written.append((tmp_path / f"back{i}" / "improvement.csv").read_bytes())
            assert written[0] == written[1] == written[2] == (out / "improvement.csv").read_bytes()

    def test_improve_observed(self, data_csv, tmp_path):
        out = tmp_path / "obs"
        rc = main(["improve", "--data", str(data_csv), "--kind", "obs", "--year", "2014", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "improvement.csv")
        assert len(rows) == 35
        assert all(row["sd"] == "" for row in rows)

    def test_sample_paths(self, model_dir, tmp_path):
        out = tmp_path / "paths"
        rc = main(
            [
                "sample", "--model", str(model_dir / "model.json"),
                "--year", "2012", "--ages", "50-59", "--n-paths", "7", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "paths.csv")
        assert len(rows) == 7 * 10
        assert {row["path"] for row in rows} == {str(k) for k in range(7)}

    def test_sample_reproducible_byte_identical(self, model_dir, tmp_path):
        args = ["sample", "--model", str(model_dir / "model.json"), "--year", "2013", "--ages", "50-55", "--n-paths", "3", "--seed", "9"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()

    def test_update(self, model_dir, data_csv, tmp_path):
        # new cells: year 2011 for the trained ages
        full = load_table(data_csv)
        from mortgp import SubsetSpec, subset

        new = subset(full, SubsetSpec.rectangle((2011, 2011), (50, 70)))
        new_path = tmp_path / "new.csv"
        save_table(new, new_path)
        out = tmp_path / "upd"
        rc = main(
            [
                "update", "--model", str(model_dir / "model.json"),
                "--new-data", str(new_path), "--probes", "60:2013,60:2000", "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "model_updated.json").exists()
        rows = read_csv(out / "update_report.csv")
        assert len(rows) == 2
        assert all(float(row["sd_delta"]) >= -1e-10 for row in rows)

    def test_glm(self, data_csv, tmp_path):
        out = tmp_path / "glm"
        rc = main(["glm", "--data", str(data_csv), "--subset", "subset3", "--mean", "quadratic", "--out", str(out)])
        assert rc == 0
        estimates = {row["parameter"]: row["estimate"] for row in read_csv(out / "glm.csv")}
        assert estimates["converged"] == "true"
        assert [name for name in estimates if name.startswith("beta_")] == ["beta_0", "beta_age", "beta_year", "beta_age_sq"]
        assert sorted(p.name for p in out.iterdir()) == ["glm.csv", "manifest.json"]

    def test_experiment(self, data_csv, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(
            [
                "experiment", "--data", str(data_csv), "--protocol", "subset3-intercept",
                "--restarts", "1", "--seed", "0", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "experiment.csv")
        assert [(r["age"], r["year"]) for r in rows] == [("70", "2014"), ("80", "2014")]
        assert (out / "predictions_subset3_intercept.csv").exists()
        assert "test RMSE" in capsys.readouterr().out

    def test_experiment_probe_outside_the_table_has_empty_observed_cell(self, data_csv, tmp_path, capsys):
        out = tmp_path / "exp"
        argv = ["experiment", "--data", str(data_csv), "--protocol", "subset3-intercept", "--restarts", "1"]
        assert main(argv + ["--probe-ages", "70", "99", "--out", str(out)]) == 0
        rows = read_csv(out / "experiment.csv")
        assert rows[0]["observed_log"] != "" and rows[1]["observed_log"] == ""
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].endswith("        -") and not printed[-2].endswith("-")

    def test_csv_values_are_exact_float_reprs(self, model_dir, tmp_path):
        # each float cell is the repr of the library's number, so it reads back bit for bit; 11 paths
        # over ages 8-12 take the path index and the age labels from one digit to two
        model = model_dir / "model.json"
        out = tmp_path / "paths"
        argv = ["sample", "--model", str(model), "--year", "2012", "--ages", "8-12", "--n-paths", "11", "--seed", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        pts = np.column_stack([np.arange(8, 13), np.full(5, 2012)]).astype(float)
        expected = gp_mod.sample_paths(load_model(model), pts, 11, 4)
        rows = read_csv(out / "paths.csv")
        assert [row["value"] for row in rows] == [repr(v) for v in expected.ravel().tolist()]
        assert [(row["path"], row["age"], row["year"]) for row in rows] == [
            (str(k), str(age), "2012") for k in range(11) for age in range(8, 13)
        ]
        out = tmp_path / "smooth"
        assert main(["smooth", "--model", str(model), "--out", str(out)]) == 0
        gp = load_model(model)
        post = gp_mod.predict(gp, gp.x)
        rows = read_csv(out / "smooth.csv")
        assert [row["mean_log"] for row in rows] == [repr(v) for v in post.mean.tolist()]
        assert [(row["age"], row["year"]) for row in rows] == [(str(int(a)), str(int(y))) for a, y in gp.x]

    def test_sample_csv_peak_is_one_path_at_a_time(self, model_dir, tmp_path):
        # 1,000 paths x 101 ages: a whole-file join peaks near 23 MB, one block per path near 3 MB
        argv = ["sample", "--model", str(model_dir / "model.json"), "--year", "2012", "--ages", "0-100", "--n-paths", "1000"]
        codes = []
        _, peak = traced_memory(lambda: codes.append(main(argv + ["--out", str(tmp_path)])))
        assert codes == [0]
        assert len((tmp_path / "paths.csv").read_text().splitlines()) == 1 + 1000 * 101
        assert peak < 6e6


# cells of the kinds the commands write: ints, floats with their edge cases, empty cells and labels
CSV_CELLS = st.one_of(
    st.integers(-(10**6), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-300, 1e16, math.nan, math.inf, -math.inf]),
    st.just(""),
    st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=12),
)


@st.composite
def csv_blocks(draw):
    # every command's CSV has at least two columns; csv.writer quotes a row that is one empty cell
    n_cols = draw(st.integers(2, 7))
    blocks = []
    for n_rows in draw(st.lists(st.integers(0, 6), max_size=4)):
        blocks.append([draw(st.lists(CSV_CELLS, min_size=n_rows, max_size=n_rows)) for _ in range(n_cols)])
    return n_cols, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=csv_blocks())
def test_write_csv_matches_csv_writer(drawn, tmp_path_factory):
    n_cols, blocks = drawn
    header = [f"col{j}" for j in range(n_cols)]
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    _write_csv(path, header, blocks)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for columns in blocks:
        writer.writerows(zip(*columns))
    assert path.read_bytes() == expected.getvalue().encode()


# valid arguments, apart from --out, for every subcommand
MANIFEST_COMMANDS = {
    "fit": lambda model, data, new: ["fit", "--data", str(data), "--subset", "subset3", "--restarts", "1"],
    "smooth": lambda model, data, new: ["smooth", "--model", str(model)],
    "forecast": lambda model, data, new: ["forecast", "--model", str(model), "--years", "2015-2016", "--ages", "60-62"],
    "improve": lambda model, data, new: ["improve", "--model", str(model), "--kind", "diff", "--year", "2010", "--ages", "50-55"],
    "sample": lambda model, data, new: ["sample", "--model", str(model), "--year", "2015", "--ages", "60-62"],
    "update": lambda model, data, new: ["update", "--model", str(model), "--new-data", str(new), "--probes", "60:2013"],
    "glm": lambda model, data, new: ["glm", "--data", str(data), "--subset", "subset3"],
    "experiment": lambda model, data, new: ["experiment", "--data", str(data), "--protocol", "subset3-intercept", "--restarts", "1"],
}


class TestManifest:
    """``main`` writes manifest.json after every command that succeeds (the failing ones are in TestErrors)."""

    @pytest.fixture(scope="class")
    def new_csv(self, data_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("new") / "new.csv"
        save_table(subset(load_table(data_csv), SubsetSpec.rectangle((2011, 2011), (50, 70))), path)
        return path

    @pytest.mark.parametrize("command", list(MANIFEST_COMMANDS))
    def test_records_command_and_parsed_options(self, model_dir, data_csv, new_csv, tmp_path, command):
        argv = MANIFEST_COMMANDS[command](model_dir / "model.json", data_csv, new_csv) + ["--out", str(tmp_path / "out")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        parsed = {k: v for k, v in vars(build_parser().parse_args(argv)).items() if k not in ("func", "command")}
        assert manifest["command"] == command
        assert manifest["options"] == json.loads(json.dumps(parsed))
        assert manifest["version"] == mortgp.__version__

    def test_every_subcommand_is_covered(self):
        assert set(build_parser()._subparsers._group_actions[0].choices) == set(MANIFEST_COMMANDS)


class TestGridModelMemory:
    """A constant-noise model on a grid, full or with holes, goes through every command without an n x n array."""

    AGES, YEARS = range(0, 50), range(1975, 2015)
    N_BY_N = (len(AGES) * len(YEARS)) ** 2 * 8  # bytes of one n x n float array, 32 MB
    # the same grid without ages 31-49 in 2011-2014: n = 1924 and m = 76; U is N x m, so a quarter is too tight
    HOLES = SubsetSpec(blocks=(((1975, 2010), (0, 49)), ((2011, 2014), (0, 30))))
    HOLES_N_BY_N = (len(AGES) * len(YEARS) - 19 * 4) ** 2 * 8

    @classmethod
    def model_files(cls, root, spec=None):
        def f(age, year):
            return -9.0 + 0.08 * age - 0.012 * (year - 1975) + 0.02 * np.sin(0.7 * age + 0.3 * year)

        table = table_from_surface(cls.AGES, cls.YEARS, f)
        hp = KernelHyperparams(theta_ag=15.8, theta_yr=15.5, eta_sq=1.85, sigma_sq=2.8e-4)
        model = fit_gls(table if spec is None else subset(table, spec), KernelFamily.SQUARED_EXPONENTIAL, hp, basis=MeanBasis.QUADRATIC_AGE)
        save_model(model, root / "model.json")
        save_table(table_from_surface(cls.AGES, [2015], f), root / "new.csv")
        return root

    @pytest.fixture(scope="class")
    def grid_files(self, tmp_path_factory):
        return self.model_files(tmp_path_factory.mktemp("grid"))

    @pytest.fixture(scope="class")
    def holes_files(self, tmp_path_factory):
        return self.model_files(tmp_path_factory.mktemp("holes"), self.HOLES)

    COMMANDS = {
        "smooth": ["smooth"],
        "forecast": ["forecast", "--years", "2015-2020", "--ages", "0-49"],
        "improve-back": ["improve", "--kind", "back", "--year", "2014", "--n-samples", "2000"],
        "improve-diff": ["improve", "--kind", "diff", "--year", "2014"],
        "improve-centered": ["improve", "--kind", "centered", "--year", "2014"],
        "sample": ["sample", "--year", "2015", "--ages", "0-49", "--n-paths", "200"],
        "update": ["update", "--new-data", "new.csv"],
    }

    def command_peak(self, files, out, command):
        args = [str(files / a) if a.endswith(".csv") else a for a in self.COMMANDS[command]]
        argv = args[:1] + ["--model", str(files / "model.json"), "--out", str(out)] + args[1:]
        codes = []
        _, peak = traced_memory(lambda: codes.append(main(argv)))
        assert codes == [0]
        return peak

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_peak_below_an_n_by_n_array(self, grid_files, tmp_path, command):
        assert self.command_peak(grid_files, tmp_path, command) < self.N_BY_N / 4

    def test_load_model_peak_below_an_n_by_n_array(self, grid_files):
        assert traced_memory(lambda: load_model(grid_files / "model.json"))[1] < self.N_BY_N / 4

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_with_holes_peak_below_half_an_n_by_n_array(self, holes_files, tmp_path, command):
        assert self.command_peak(holes_files, tmp_path, command) < self.HOLES_N_BY_N / 2

    def test_load_model_with_holes_peak_below_half_an_n_by_n_array(self, holes_files):
        models = []
        assert traced_memory(lambda: models.append(load_model(holes_files / "model.json")))[1] < self.HOLES_N_BY_N / 2
        assert models[0].n == 1924 and models[0].whitener.u.shape == (2000, 76)


# valid arguments, apart from --level, for every command that takes --level
LEVEL_COMMANDS = {
    "fit": lambda model, data: ["fit", "--data", str(data)],
    "smooth": lambda model, data: ["smooth", "--model", str(model)],
    "forecast": lambda model, data: ["forecast", "--model", str(model), "--years", "2015-2016", "--ages", "60-62"],
    "improve-back": lambda model, data: ["improve", "--model", str(model), "--kind", "back", "--year", "2014"],
    "improve-diff": lambda model, data: ["improve", "--model", str(model), "--kind", "diff", "--year", "2014"],
    "improve-centered": lambda model, data: ["improve", "--model", str(model), "--kind", "centered", "--year", "2014"],
    "improve-obs": lambda model, data: ["improve", "--data", str(data), "--kind", "obs", "--year", "2014"],
    "sample": lambda model, data: ["sample", "--model", str(model), "--year", "2015", "--ages", "60-62"],
    "update": lambda model, data: ["update", "--model", str(model), "--new-data", str(data)],
    "glm": lambda model, data: ["glm", "--data", str(data)],
    "experiment": lambda model, data: ["experiment", "--data", str(data), "--protocol", "subset3-intercept"],
}


class TestErrors:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_improve_obs_without_data(self, tmp_path, capsys):
        rc = main(["improve", "--kind", "obs", "--year", "2014", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "requires --data" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("rows", [[], ["60,2015,0,100000", "61,2015,0,100000"]], ids=["header_only", "zero_deaths"])
    def test_update_without_trainable_cells_names_new_data(self, model_dir, tmp_path, capsys, rows):
        new = tmp_path / "new.csv"
        new.write_text("\n".join(["age,year,deaths,exposure", *rows]) + "\n")
        out = tmp_path / "x"
        rc = main(["update", "--model", str(model_dir / "model.json"), "--new-data", str(new), "--out", str(out)])
        assert rc == 1
        assert f"new data {new} has no trainable cells" in capsys.readouterr().err
        assert not (out / "model_updated.json").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: {**d, "y": [math.nan, *d["y"][1:]]}, "responses must be finite"),
            (lambda d: {**d, "inputs": [[60.0, math.inf], *d["inputs"][1:]]}, "inputs must be finite"),
            (lambda d: {**d, "noise_diag": [math.nan, *d["noise_diag"][1:]]}, "noise variances must be finite"),
            (lambda d: {k: v for k, v in d.items() if k != "inputs"}, "model file lacks the field(s) inputs"),
            (lambda d: [d], "a model file holds a JSON object, not a JSON list"),
        ],
        ids=["nan_response", "inf_input", "nan_noise", "missing_field", "not_an_object"],
    )
    @pytest.mark.parametrize("command", [["smooth"], ["forecast", "--years", "2011-2012", "--ages", "50-52"]], ids=["smooth", "forecast"])
    def test_corrupt_model_is_an_error_not_numbers(self, model_dir, tmp_path, capsys, corrupt, message, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(corrupt(json.loads((model_dir / "model.json").read_text()))))
        out = tmp_path / "x"
        rc = main([*command, "--model", str(model), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    def test_model_with_noise_lacking_kind_names_field_and_file(self, model_dir, tmp_path, capsys):
        payload = json.loads((model_dir / "model.json").read_text())
        del payload["noise"]["kind"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "x"
        rc = main(["smooth", "--model", str(model), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: model file {model} lacks the field noise.kind\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("probes", ["60", "a:b"])
    def test_malformed_probes_name_flag_and_form(self, model_dir, data_csv, tmp_path, capsys, probes):
        args = ["update", "--model", str(model_dir / "model.json"), "--new-data", str(data_csv), "--probes", probes]
        with pytest.raises(SystemExit) as err:
            main(args + ["--out", str(tmp_path / "x")])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--probes" in message
        assert "AGE:YEAR[,AGE:YEAR...]" in message
        assert "unpack" not in message

    @pytest.mark.parametrize("noise", ["delta:abc", "delta:-1", "delta", "poisson"])
    def test_malformed_noise_names_flag_and_form(self, data_csv, tmp_path, capsys, noise):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--data", str(data_csv), "--noise", noise, "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--noise" in message
        assert "constant|delta:K" in message
        assert "could not convert" not in message

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "nan"])
    @pytest.mark.parametrize("command", sorted(LEVEL_COMMANDS))
    def test_bad_level_rejected_before_any_work(self, model_dir, data_csv, tmp_path, capsys, command, level):
        # D6: an earlier smooth.csv keeps its bytes; D7: improve --kind obs exits 2 too
        out = tmp_path / "out"
        out.mkdir()
        earlier = b"age,year,mean_log,sd_log,lo,hi\n60,2000,-4.0,0.1,-4.2,-3.8\n"
        (out / "smooth.csv").write_bytes(earlier)
        args = LEVEL_COMMANDS[command](model_dir / "model.json", data_csv)
        with pytest.raises(SystemExit) as err:
            main(args + ["--level", level, "--out", str(out)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--level" in message and "(0, 1)" in message
        assert (out / "smooth.csv").read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == ["smooth.csv"]

    def test_every_command_with_level_is_covered(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        with_level = {name for name, p in subparsers.items() if any("--level" in a.option_strings for a in p._actions)}
        assert with_level == {args(Path("m"), Path("d"))[0] for args in LEVEL_COMMANDS.values()}

    def test_emitted_table_csv_reingestable(self, data_csv):
        table = load_table(data_csv)
        assert len(table) == 35 * 16


# Runs in a fresh interpreter: imports mortgp, then mortgp.cli, then calls
# mortgp.cli.main on each argv of the JSON {label: argv} in argv[1]; prints,
# as JSON, the scipy modules loaded after each step.
SCIPY_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import mortgp
steps = [["import mortgp", loaded()]]
import mortgp.cli
steps.append(["import mortgp.cli", loaded()])
for label, argv in json.loads(sys.argv[1]).items():
    assert mortgp.cli.main(argv) == 0, argv
    steps.append([label, loaded()])
print(json.dumps(steps))
"""


def scipy_modules_by_step(argvs: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(mortgp.__file__).parents[1])}
    cmd = [sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    return dict(json.loads(out.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def grid_model_files(tmp_path_factory):
    """A full-grid model (grid whitener), its data and a full next year of new cells."""
    root = tmp_path_factory.mktemp("grid_model")

    def f(age, year):
        return -9.0 + 0.08 * age - 0.01 * (year - 2005) + 0.02 * np.sin(0.6 * age)

    table = table_from_surface(range(60, 70), range(2005, 2015), f)
    save_table(table, root / "data.csv")
    save_table(table_from_surface(range(60, 70), [2015], f), root / "new.csv")
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.5, sigma_sq=1e-4)
    save_model(fit_gls(table, KernelFamily.SQUARED_EXPONENTIAL, hp, basis=MeanBasis.QUADRATIC_AGE), root / "model.json")
    assert isinstance(load_model(root / "model.json").whitener, gp_mod._GridWhitener)
    return root


@pytest.fixture(scope="module")
def subset2_model_files(tmp_path_factory):
    """A model of the notched subset2 cells (grid whitener with holes) and the 2011 cells of the notch."""
    root = tmp_path_factory.mktemp("subset2_model")

    def f(age, year):
        return -9.0 + 0.08 * age - 0.01 * (year - 2005) + 0.02 * np.sin(0.6 * age)

    table = subset(table_from_surface(range(50, 85), range(1999, 2015), f), SUBSET_PRESETS["subset2"])
    save_table(table_from_surface(range(71, 85), [2011], f), root / "new.csv")
    hp = KernelHyperparams(theta_ag=8.0, theta_yr=8.0, eta_sq=0.5, sigma_sq=1e-4)
    save_model(fit_gls(table, KernelFamily.SQUARED_EXPONENTIAL, hp, basis=MeanBasis.QUADRATIC_AGE), root / "model.json")
    whitener = load_model(root / "model.json").whitener
    assert isinstance(whitener, gp_mod._GridWhitener) and whitener.cells is not None
    return root


def downstream_argvs(root: Path, out: str, year: int, ages: str) -> dict:
    """{label: argv} of every command that reads the model in root, for the last table year and these ages."""
    model, new = str(root / "model.json"), str(root / "new.csv")
    return {
        "smooth": ["smooth", "--model", model, "--out", out],
        "forecast": ["forecast", "--model", model, "--years", f"{year + 1}-{year + 2}", "--ages", ages, "--out", out],
        **{f"improve {kind}": ["improve", "--model", model, "--kind", kind, "--year", str(year), "--out", out] for kind in ("back", "diff", "centered")},
        "sample": ["sample", "--model", model, "--year", str(year + 1), "--ages", ages, "--out", out],
        "update": ["update", "--model", model, "--new-data", new, "--out", out],
    }


def test_cli_import_leaves_out_scipy_stats(grid_model_files, tmp_path):
    # no scipy at import, nor on any downstream command over a full-grid model
    argvs = downstream_argvs(grid_model_files, str(tmp_path), 2014, "60-69")
    steps = scipy_modules_by_step(argvs)
    assert list(steps) == ["import mortgp", "import mortgp.cli", *argvs]
    assert steps == {step: [] for step in steps}


def test_cli_on_subset2_model_leaves_out_scipy(subset2_model_files, tmp_path):
    # the grid whitener with holes factors the missing cells' M with numpy.linalg
    argvs = downstream_argvs(subset2_model_files, str(tmp_path), 2014, "50-84")
    steps = scipy_modules_by_step(argvs)
    assert list(steps) == ["import mortgp", "import mortgp.cli", *argvs]
    assert steps == {step: [] for step in steps}


def test_cli_fit_loads_scipy_optimize(grid_model_files, tmp_path):
    # the lazy route is taken: fit is what loads the optimizer
    steps = scipy_modules_by_step({"fit": ["fit", "--data", str(grid_model_files / "data.csv"), "--restarts", "1", "--out", str(tmp_path)]})
    assert steps["import mortgp.cli"] == []
    assert "scipy.optimize" in steps["fit"]


@pytest.fixture(scope="module")
def zero_death_csv(tmp_path_factory):
    """A 10 x 10 GP draw from 2000 on, with zero deaths at (60, 2003), (61, 2005) and (69, 2009)."""
    table = simulate_grid_table(range(60, 70), range(2000, 2010), KernelHyperparams(8.0, 6.0, 0.3, 1e-3), seed=3)
    zero = {(60, 2003), (61, 2005), (69, 2009)}
    cells = zip(table.age.tolist(), table.year.tolist(), table.deaths.tolist(), table.exposure.tolist())
    rows = [(a, y, 0.0 if (a, y) in zero else d, e) for a, y, d, e in cells]
    path = tmp_path_factory.mktemp("zero_death") / "data.csv"
    path.write_text("age,year,deaths,exposure\n" + "".join(f"{a},{y},{d!r},{e!r}\n" for a, y, d, e in rows))
    return path


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m mortgp.cli`` in a fresh interpreter, with Python's default warning filters."""
    env = {**os.environ, "PYTHONPATH": str(Path(mortgp.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "mortgp.cli", *argv], capture_output=True, text=True, env=env)


class TestWarnings:
    """A warning reaches stderr as one ``warning: <message>`` line, without the library's path or source line."""

    def test_fit_on_zero_death_cells(self, zero_death_csv, tmp_path):
        done = run_cli("fit", "--data", str(zero_death_csv), "--restarts", "2", "--out", str(tmp_path))
        assert done.returncode == 0
        assert done.stderr == "warning: 3 zero-death cell(s) flagged: (age 60, 2003), (age 61, 2005), (age 69, 2009); they are excluded from training\n"

    def test_improve_obs_omits_ages_in_one_warning(self, zero_death_csv, tmp_path):
        done = run_cli("improve", "--kind", "obs", "--data", str(zero_death_csv), "--year", "2005", "--out", str(tmp_path))
        assert done.returncode == 0
        assert done.stderr == (
            "warning: 3 zero-death cell(s) flagged: (age 60, 2003), (age 61, 2005), (age 69, 2009); they are excluded from training\n"
            "warning: a zero-death cell in 2005 or 2004; omitted age(s) 61\n"
        )
        assert [int(row["age"]) for row in read_csv(tmp_path / "improvement.csv")] == [60, *range(62, 70)]

    def test_fit_on_a_subset_names_only_its_zero_death_cells(self, zero_death_csv, tmp_path):
        done = run_cli("fit", "--data", str(zero_death_csv), "--subset", "2004-2009:61-69", "--restarts", "2", "--out", str(tmp_path))
        assert done.returncode == 0
        assert done.stderr == "warning: 2 zero-death cell(s) flagged: (age 61, 2005), (age 69, 2009); they are excluded from training\n"

    def test_improve_obs_on_a_subset_names_only_its_zero_death_cells(self, zero_death_csv, tmp_path):
        argv = ["--data", str(zero_death_csv), "--year", "2005", "--out", str(tmp_path)]
        done = run_cli("improve", "--kind", "obs", "--subset", "2003-2006:60-65", *argv)
        assert done.returncode == 0
        assert done.stderr == (
            "warning: 2 zero-death cell(s) flagged: (age 60, 2003), (age 61, 2005); they are excluded from training\n"
            "warning: a zero-death cell in 2005 or 2004; omitted age(s) 61\n"
        )
        done = run_cli("improve", "--kind", "obs", "--subset", "2000-2009:62-68", *argv)  # none of the three
        assert done.returncode == 0 and done.stderr == ""

    def test_improve_obs_in_the_first_year_fails_without_warnings(self, data_csv, tmp_path):
        done = run_cli("improve", "--kind", "obs", "--data", str(data_csv), "--year", "1999", "--out", str(tmp_path))
        assert done.returncode == 1
        assert done.stderr == "error: no age has cells in both 1998 and 1999\n"
        assert not (tmp_path / "manifest.json").exists()

    def test_warnings_are_still_warnings_in_process(self, zero_death_csv, tmp_path):
        argv = ["improve", "--kind", "obs", "--data", str(zero_death_csv), "--year", "2005", "--out", str(tmp_path)]
        format_warning = warnings.formatwarning
        with pytest.warns(UserWarning) as record:
            assert main(argv) == 0
        assert [str(w.message) for w in record] == [
            "3 zero-death cell(s) flagged: (age 60, 2003), (age 61, 2005), (age 69, 2009); they are excluded from training",
            "a zero-death cell in 2005 or 2004; omitted age(s) 61",
        ]
        assert warnings.formatwarning is format_warning  # main restores the formatter it replaced
