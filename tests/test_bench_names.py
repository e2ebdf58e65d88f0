"""The benchmark's per-layer span names still name live nega3 functions.

perfbench/run.py reads call counts from spans named after public nega3
functions.  A renamed or deleted function would silently read 0, so each
such name is checked against the package here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _per_layer():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.PER_LAYER


def test_call_counts_name_public_functions():
    names = [key[: -len(".calls")] for key in _per_layer()
             if key.endswith(".calls") and not key.startswith("gf3.Code.")]
    assert names
    for name in names:
        module, attr = name.split(".")
        assert not attr.startswith("_"), name
        value = getattr(importlib.import_module(f"nega3.{module}"), attr, None)
        assert inspect.isfunction(value), name
