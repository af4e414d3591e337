"""The public names that the benchmark and the package exports depend on.

`perfbench/run.py --trace 1` reports each per-layer metric of BENCHMARK.json
from the calls of a wrapped function, and fails on a missing one; these tests
catch a renamed or deleted function without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy.linalg
import pytest
import scipy.linalg

import matsync

ROOT = Path(__file__).resolve().parents[1]


def per_layer_functions():
    """(layer, function) of every `<layer>.<function>.self_s|calls` metric."""
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    pairs = set()
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[2] in ("self_s", "calls"):
            pairs.add((parts[0], parts[1]))
    return sorted(pairs)


def test_per_layer_list_names_functions():
    assert len(per_layer_functions()) > 40


@pytest.mark.parametrize("layer, name", per_layer_functions())
def test_per_layer_metric_names_a_traced_function(layer, name):
    if layer == "linalg":
        assert callable(getattr(numpy.linalg, name, None) or getattr(scipy.linalg, name, None))
        return
    module = importlib.import_module(f"matsync.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"matsync.{layer}.{name} is not a function"
    assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


def test_span_hook_targets_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.HOOKS) >= {
        "simulation.simulate_ct", "simulation.simulate_dt", "gains.find_common_P",
    }
    for target in spans.HOOKS:
        layer, name = target.split(".")
        fn = getattr(importlib.import_module(f"matsync.{layer}"), name)
        assert inspect.isfunction(fn) and fn.__module__ == f"matsync.{layer}"


def test_star_import_resolves_all():
    assert len(set(matsync.__all__)) == len(matsync.__all__)
    namespace = {}
    exec("from matsync import *", namespace)
    assert set(matsync.__all__) <= set(namespace)
