"""The benchmark's per-layer span names still name live nega3 functions.

perfbench/run.py reads call counts from spans named after public nega3
functions.  A renamed or deleted function would silently read 0, so each
such name is checked against the package here, and so is each gf3.Code
method that perfbench/tracer.py wraps.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from nega3.gf3 import Code

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer():
    return _load("run").PER_LAYER


def test_call_counts_name_public_functions():
    names = [key[: -len(".calls")] for key in _per_layer()
             if key.endswith(".calls") and not key.startswith("gf3.Code.")]
    assert names
    for name in names:
        module, attr = name.split(".")
        assert not attr.startswith("_"), name
        value = getattr(importlib.import_module(f"nega3.{module}"), attr, None)
        assert inspect.isfunction(value), name


def test_traced_code_methods_exist():
    # the tracer wraps Code.__dict__[method] for each, so a missing one
    # would crash every traced run
    methods = _load("tracer")._CODE_METHODS
    assert methods
    for method in methods:
        assert method in Code.__dict__, method
