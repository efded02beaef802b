"""JSON round-trip for fitted models.

The file stores the training arrays, kernel hyperparameters, noise model,
basis choice, and fitted coefficients under an explicit schema version, as
one line of JSON with sorted keys (schema 1; earlier builds indented it, and
both load alike).  Loading refits through ``gp.fit_gls_xy``, which picks the
whitener the original fit used: on a grid with constant noise, full or missing
at most a quarter of n cells (a ``subset2`` model, zero-death holes), two small
eigendecompositions and, with holes, an m x m factor, and no n x n array;
otherwise the dense Cholesky factor.  So a loaded model reproduces the
original's predictions exactly, and a file written by a dense-only build (also
schema 1) loads with the grid whitener and predicts within 1e-10 of what that
build predicted.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from . import gp as gp_mod
from .gp import FittedGP
from .kernels import ConstantNoise, DeltaMethodNoise, KernelFamily, KernelHyperparams
from .means import MeanBasis

SCHEMA_VERSION = 1
_FIELDS = ("basis", "beta", "family", "hyperparams", "inputs", "noise", "noise_diag", "y")
_HYPERPARAMS = ("theta_ag", "theta_yr", "eta_sq", "sigma_sq")
_NOISE = {"constant": (ConstantNoise, "sigma_sq"), "delta_method": (DeltaMethodNoise, "overdispersion")}


def _fields(obj, name: str, keys, source: str) -> dict:
    """``obj`` if it is an object with exactly ``keys``; else a ValueError naming ``source`` and the field amiss."""
    if not isinstance(obj, dict):
        raise ValueError(f"{source}: {name} is not a JSON object")
    missing, extra = [k for k in keys if k not in obj], sorted(set(obj) - set(keys))
    if missing or extra:
        raise ValueError(f"{source} {'lacks the' if missing else 'has the unknown'} field {name}.{(missing or extra)[0]}")
    return obj


def _noise_from_json(obj, source: str):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in _NOISE:
        raise ValueError(f"{source} lacks the field noise.kind" if kind is None else f"unknown noise kind {kind!r}")
    cls, param = _NOISE[kind]
    return cls(_fields(obj, "noise", ("kind", param), source)[param])


def model_to_dict(gp: FittedGP) -> dict:
    ((kind, param),) = [(kind, param) for kind, (cls, param) in _NOISE.items() if isinstance(gp.noise, cls)]
    return {
        "schema_version": SCHEMA_VERSION,
        "family": gp.family.value,
        "hyperparams": {name: getattr(gp.hp, name) for name in _HYPERPARAMS},
        "noise": {"kind": kind, param: getattr(gp.noise, param)},
        "basis": gp.basis.value if gp.basis is not None else None,
        "beta": gp.beta.tolist(),
        "inputs": gp.x.tolist(),
        "y": gp.y.tolist(),
        "noise_diag": gp.noise_diag.tolist(),
        "log_likelihood": gp.log_likelihood,
    }


def model_from_dict(obj: dict, source: str = "model") -> FittedGP:
    """Refit the model a ``model_to_dict`` payload describes; ``source`` names it in errors about nested fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"a model file holds a JSON object, not a JSON {type(obj).__name__}")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version!r}")
    missing = [name for name in _FIELDS if name not in obj]
    if missing:
        raise ValueError(f"model file lacks the field(s) {', '.join(missing)}")
    hp = KernelHyperparams(**_fields(obj["hyperparams"], "hyperparams", _HYPERPARAMS, source))
    family = KernelFamily(obj["family"])
    basis = MeanBasis(obj["basis"]) if obj["basis"] is not None else None
    noise = _noise_from_json(obj["noise"], source)
    gp = gp_mod.fit_gls_xy(
        np.asarray(obj["inputs"], dtype=float),
        np.asarray(obj["y"], dtype=float),
        family,
        hp,
        basis=basis,
        noise=noise,
        noise_diag=np.asarray(obj["noise_diag"], dtype=float),
    )
    stored_beta = np.asarray(obj["beta"], dtype=float)
    if stored_beta.size and not np.allclose(stored_beta, gp.beta, rtol=1e-6, atol=1e-10):
        warnings.warn("stored coefficients disagree with the refit; using recomputed values", stacklevel=2)
    return gp


def save_model(gp: FittedGP, path: Union[str, Path]) -> None:
    """Write the model as one line of JSON with sorted keys: without ``indent`` the stdlib uses its C encoder."""
    Path(path).write_text(json.dumps(model_to_dict(gp), sort_keys=True) + "\n")


def load_model(path: Union[str, Path]) -> FittedGP:
    return model_from_dict(json.loads(Path(path).read_text()), source=f"model file {path}")
