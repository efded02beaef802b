"""The public names, and the attributes the benchmark's tracer wraps, all resolve.

A deleted or renamed function that ``bench/tracing.py`` still wraps would
break a traced benchmark run; these tests fail first.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mortgp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def wrapped_attributes():
    """``(module, attribute)`` of each entry of the ``WRAPPED`` tuple in bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACING} defines no WRAPPED tuple")


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from mortgp import *", namespace)  # raises AttributeError on a name in __all__ that mortgp lacks
    assert set(mortgp.__all__) <= namespace.keys()
    assert len(set(mortgp.__all__)) == len(mortgp.__all__)


@pytest.mark.parametrize("module,attr", wrapped_attributes(), ids=lambda v: v)
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
