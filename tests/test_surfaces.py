"""The public names that the benchmark and the package exports depend on.

`perfbench/run.py --trace 1` reports each per-layer metric of BENCHMARK.json
from the calls of a wrapped function, and fails on a missing one; these tests
catch a renamed or deleted function without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import numpy.linalg
import pytest
import scipy.linalg

import matsync
from conftest import random_complete_cl_spec, random_symmetric_spec
from matsync import cli
from matsync.specdoc import SpecDocument, serialize_spec_document

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


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_hook_targets_exist():
    spans = load_spans()
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


def test_per_layer_metrics_see_the_work(tmp_path):
    # the traced benchmark wraps public names only: each question a command
    # answers must reach its public function, or its metrics read 0
    rng = np.random.default_rng(0)
    specs = {
        "cl": random_complete_cl_spec(rng, q=5, n=3),
        "neutral": random_symmetric_spec(rng, q=4, n=3),
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = tmp_path / f"{name}.spec"
        paths[name].write_text(serialize_spec_document(SpecDocument(spec=spec)))
    runs = [
        ("check", "cl"), ("gains --recipe theorem1", "cl"), ("gains --recipe alg1", "neutral"),
    ]
    rec = load_spans().SpanRecorder()
    rec.install()
    try:
        for command, name in runs:
            argv = [*command.split(), "--spec", str(paths[name]), "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0, argv
    finally:
        rec.uninstall()
    table = rec.table()
    for name in ("spectral.classify_stability", "spectral.neutral_split",
                 "gains.find_common_P", "gains.verify_cl_detectability"):
        assert table[f"{name}.calls"] > 0, name
    assert rec.counts["gains.find_common_P.success"] >= 1


# not twins: gains._condition14 reports a graph with no lambda2 as failing,
# where condition14 takes lambda2 and raises outside (0, 1]
NOT_TWINS = {"gains.condition14"}


def test_no_function_has_a_private_twin():
    for info in pkgutil.iter_modules(matsync.__path__):
        module = importlib.import_module(f"matsync.{info.name}")
        own = {
            name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
        }
        twins = {f"{info.name}.{name}" for name in own if f"_{name}" in own}
        assert twins <= NOT_TWINS, twins
