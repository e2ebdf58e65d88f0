"""The benchmark's per-layer span names still name live nega3 functions.

perfbench/run.py reads call counts from spans named after public nega3
functions.  A renamed or deleted function would silently read 0, so each
such name is checked against the package here, and so is each gf3.Code
method that perfbench/tracer.py wraps, and each name perfbench calls
outside the tracer's spans.
"""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import nega3
from nega3 import cli, search, weights
from nega3.gf3 import Code, Gf3Vector

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


def test_observed_and_called_names_exist():
    # perfbench/run.py::_observers prices count_weight with count_cost and
    # reads the second positional argument of min_weight and count_weight;
    # perfbench/workloads.py calls the rest directly
    assert inspect.isfunction(weights.count_cost)
    for fn, names in ((weights.min_weight, ["code", "abort_below"]),
                      (weights.count_weight, ["code", "w"])):
        params = list(inspect.signature(fn).parameters.values())[:2]
        assert [p.name for p in params] == names, fn.__name__
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), fn.__name__
    assert inspect.isclass(nega3.SearchPlan)
    for fn in (nega3.load_registry, nega3.alpha_constraint, search.run_search, cli.main):
        assert inspect.isfunction(fn), fn


def test_observers_run_on_the_package():
    obs = Counter()
    observers = _load("run")._observers(nega3, obs)
    tetracode = Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])
    observers["weights.count_weight"]((tetracode, 3), {}, 8)
    assert obs["count_weight_words"] == weights.count_cost(tetracode, 3)
    observers["weights.min_weight"]((tetracode, 4), {}, 3)
    assert (obs["min_weight_bounded"], obs["min_weight_rejected"]) == (1, 1)


def test_traced_search_counts_each_verified_spec(registry, monkeypatch):
    # the exhaustive-24 shard verifies 1,547 specs, of which 1,470 are
    # findings; each is settled once from its first rows, in the tile
    # stacks of search._run_units, and none is built or checked as a Code,
    # so the nega.build_generator and gf3.Code.is_self_dual spans, from
    # which search.specs_verified was read, stay empty
    settled = []
    real = search._tile_stack
    monkeypatch.setattr(search, "_tile_stack",
                        lambda tiles, width: settled.append(len(tiles)) or real(tiles, width))
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        plan = nega3.SearchPlan(block_size=4, partition=(0, 64))
        findings = list(search.run_search(plan, registry=registry))
    finally:
        tracer.uninstall()
    assert len(findings) == 1470
    assert sum(settled) == 1547
    assert tracer.calls["nega.build_generator"] == 0
    assert tracer.calls["gf3.Code.is_self_dual"] == 0
