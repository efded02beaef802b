import json

import numpy as np
import pytest

from mortgp import (
    ConstantNoise,
    DeltaMethodNoise,
    KernelFamily,
    KernelHyperparams,
    MeanBasis,
    fit_gls,
    load_model,
    predict,
    save_model,
)
from mortgp.serialize import model_from_dict, model_to_dict

from conftest import table_from_surface

SQEXP = KernelFamily.SQUARED_EXPONENTIAL


def fitted_model(noise=None, basis=MeanBasis.LINEAR):
    table = table_from_surface(range(55, 70), range(2000, 2011), lambda a, y: -5.0 + 0.04 * a - 0.01 * (y - 2000))
    hp = KernelHyperparams(theta_ag=7.0, theta_yr=7.0, eta_sq=0.3, sigma_sq=2e-4)
    return fit_gls(table, SQEXP, hp, noise=noise, basis=basis)


class TestRoundTrip:
    def test_predictions_identical_after_reload(self, tmp_path):
        gp = fitted_model()
        path = tmp_path / "model.json"
        save_model(gp, path)
        loaded = load_model(path)
        probes = np.array([[57.5, 2005.0], [66.0, 2013.0]])
        a = predict(gp, probes, want_covariance=True)
        b = predict(loaded, probes, want_covariance=True)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_round_trip_without_mean_basis(self, tmp_path):
        gp = fitted_model(basis=None)
        save_model(gp, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.basis is None
        np.testing.assert_array_equal(loaded.y, gp.y)

    def test_delta_noise_round_trip(self):
        gp = fitted_model(noise=DeltaMethodNoise(overdispersion=2.0))
        loaded = model_from_dict(model_to_dict(gp))
        assert isinstance(loaded.noise, DeltaMethodNoise)
        assert loaded.noise.overdispersion == 2.0
        np.testing.assert_array_equal(loaded.noise_diag, gp.noise_diag)

    def test_constant_noise_round_trip(self):
        gp = fitted_model(noise=ConstantNoise(5e-4))
        loaded = model_from_dict(model_to_dict(gp))
        assert loaded.noise == ConstantNoise(5e-4)

    def test_file_is_one_line_with_sorted_keys(self, tmp_path):
        gp = fitted_model()
        path = tmp_path / "model.json"
        save_model(gp, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == model_to_dict(gp)
        assert text == json.dumps(model_to_dict(gp), sort_keys=True) + "\n"
        assert json.loads(text)["schema_version"] == 1

    def test_schema_fields_present(self):
        payload = model_to_dict(fitted_model())
        for key in ("schema_version", "family", "hyperparams", "noise", "basis", "beta", "inputs", "y", "noise_diag"):
            assert key in payload
        json.dumps(payload)  # JSON-serializable

    def test_unknown_schema_version_rejected(self):
        payload = model_to_dict(fitted_model())
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            model_from_dict(payload)

    def test_tampered_beta_warns(self):
        payload = model_to_dict(fitted_model())
        payload["beta"] = [0.0, 0.0, 0.0]
        with pytest.warns(UserWarning, match="stored coefficients"):
            model_from_dict(payload)


class TestNestedFields:
    """A ``noise`` or ``hyperparams`` object with a field missing or unknown is named, with the file."""

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda d: d["noise"].pop("kind"), "lacks the field noise.kind"),
            (lambda d: d["noise"].pop("sigma_sq"), "lacks the field noise.sigma_sq"),
            (lambda d: d["noise"].update(scale=2.0), "has the unknown field noise.scale"),
            (lambda d: d["hyperparams"].pop("theta_ag"), "lacks the field hyperparams.theta_ag"),
            (lambda d: d["hyperparams"].update(theta_sex=3.0), "has the unknown field hyperparams.theta_sex"),
            (lambda d: d.update(hyperparams=[7.0, 7.0]), "hyperparams is not a JSON object"),
        ],
        ids=["noise_kind", "noise_parameter", "noise_extra", "hyperparams_missing", "hyperparams_extra", "hyperparams_list"],
    )
    def test_load_model_names_field_and_file(self, tmp_path, edit, problem):
        payload = model_to_dict(fitted_model())
        edit(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as caught:
            load_model(path)
        separator = ": " if problem.endswith("object") else " "
        assert str(caught.value) == f"model file {path}{separator}{problem}"

    def test_delta_noise_without_its_factor(self):
        payload = model_to_dict(fitted_model(noise=DeltaMethodNoise(2.0)))
        del payload["noise"]["overdispersion"]
        with pytest.raises(ValueError, match=r"^model lacks the field noise\.overdispersion$"):
            model_from_dict(payload)

    def test_unknown_noise_kind_still_named(self):
        payload = model_to_dict(fitted_model())
        payload["noise"] = {"kind": "poisson"}
        with pytest.raises(ValueError, match="unknown noise kind 'poisson'"):
            model_from_dict(payload)
