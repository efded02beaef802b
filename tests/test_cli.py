import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mortgp
import mortgp.gp as gp_mod
from mortgp import KernelFamily, KernelHyperparams, MeanBasis, fit_gls, load_model, load_table, save_model
from mortgp.cli import build_parser, main

from conftest import table_from_surface, traced_memory


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Full-range synthetic dataset covering the named subsets."""

    def f(age, year):
        return -9.2 + 0.085 * age - 0.012 * (year - 1999) + 0.02 * np.sin(0.7 * age)

    table = table_from_surface(range(50, 85), range(1999, 2015), f)
    path = tmp_path_factory.mktemp("data") / "mortality.csv"
    table.save(path)
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
        payload = json.loads((out / "smooth.json").read_text())
        assert len(payload["mean_log"]) == 12 * 21
        assert payload["level"] == 0.95

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
        out = tmp_path / kind
        rc = main(
            [
                "improve", "--model", str(model_dir / "model.json"),
                "--kind", kind, "--year", "2010", "--ages", "50-70",
                "--level", "0.80", "--seed", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out / "improvement.csv")
        assert len(rows) == 21
        for row in rows:
            assert row["kind"] in ("backward_gp", "derivative_gp", "centered")
            assert float(row["lo"]) <= float(row["mean"]) <= float(row["hi"])

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
        new.save(new_path)
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
        payload = json.loads((out / "glm.json").read_text())
        assert payload["converged"]
        assert len(payload["beta"]) == 4

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
        # each float cell is the repr of the library's number, so it reads back bit for bit
        model = model_dir / "model.json"
        out = tmp_path / "paths"
        argv = ["sample", "--model", str(model), "--year", "2012", "--ages", "50-53", "--n-paths", "3", "--seed", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        pts = np.column_stack([np.arange(50, 54), np.full(4, 2012)]).astype(float)
        expected = gp_mod.sample_paths(load_model(model), pts, 3, 4).ravel().tolist()
        assert [row["value"] for row in read_csv(out / "paths.csv")] == [repr(v) for v in expected]
        out = tmp_path / "smooth"
        assert main(["smooth", "--model", str(model), "--out", str(out)]) == 0
        gp = load_model(model)
        post = gp_mod.predict(gp, gp.x)
        rows = read_csv(out / "smooth.csv")
        assert [row["mean_log"] for row in rows] == [repr(v) for v in post.mean.tolist()]
        assert [(row["age"], row["year"]) for row in rows] == [(str(int(a)), str(int(y))) for a, y in gp.x]


class TestGridModelMemory:
    """A full-grid, constant-noise model goes through every command without an n x n array."""

    AGES, YEARS = range(0, 50), range(1975, 2015)
    N_BY_N = (len(AGES) * len(YEARS)) ** 2 * 8  # bytes of one n x n float array, 32 MB

    @pytest.fixture(scope="class")
    def grid_files(self, tmp_path_factory):
        def f(age, year):
            return -9.0 + 0.08 * age - 0.012 * (year - 1975) + 0.02 * np.sin(0.7 * age + 0.3 * year)

        root = tmp_path_factory.mktemp("grid")
        table = table_from_surface(self.AGES, self.YEARS, f)
        hp = KernelHyperparams(theta_ag=15.8, theta_yr=15.5, eta_sq=1.85, sigma_sq=2.8e-4)
        save_model(fit_gls(table, KernelFamily.SQUARED_EXPONENTIAL, hp, basis=MeanBasis.QUADRATIC_AGE), root / "model.json")
        table_from_surface(self.AGES, [2015], f).save(root / "new.csv")
        return root

    COMMANDS = {
        "smooth": ["smooth"],
        "forecast": ["forecast", "--years", "2015-2020", "--ages", "0-49"],
        "improve-back": ["improve", "--kind", "back", "--year", "2014", "--n-samples", "2000"],
        "improve-diff": ["improve", "--kind", "diff", "--year", "2014"],
        "improve-centered": ["improve", "--kind", "centered", "--year", "2014"],
        "sample": ["sample", "--year", "2015", "--ages", "0-49", "--n-paths", "200"],
        "update": ["update", "--new-data", "new.csv"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_peak_below_an_n_by_n_array(self, grid_files, tmp_path, command):
        args = [str(grid_files / a) if a.endswith(".csv") else a for a in self.COMMANDS[command]]
        argv = args[:1] + ["--model", str(grid_files / "model.json"), "--out", str(tmp_path)] + args[1:]
        codes = []
        _, peak = traced_memory(lambda: codes.append(main(argv)))
        assert codes == [0] and peak < self.N_BY_N / 4

    def test_load_model_peak_below_an_n_by_n_array(self, grid_files):
        assert traced_memory(lambda: load_model(grid_files / "model.json"))[1] < self.N_BY_N / 4


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

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_improve_obs_without_data(self, tmp_path, capsys):
        rc = main(["improve", "--kind", "obs", "--year", "2014", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "requires --data" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [[], ["60,2015,0,100000", "61,2015,0,100000"]], ids=["header_only", "zero_deaths"])
    def test_update_without_trainable_cells_names_new_data(self, model_dir, tmp_path, capsys, rows):
        new = tmp_path / "new.csv"
        new.write_text("\n".join(["age,year,deaths,exposure", *rows]) + "\n")
        out = tmp_path / "x"
        rc = main(["update", "--model", str(model_dir / "model.json"), "--new-data", str(new), "--out", str(out)])
        assert rc == 1
        assert f"new data {new} has no trainable cells" in capsys.readouterr().err
        assert not (out / "model_updated.json").exists()

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


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, mortgp.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mortgp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
