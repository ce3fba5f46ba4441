"""What the benchmark under perfbench/ relies on from distdom.

perfbench/tracer.py wraps distdom functions under the module attributes
listed in PATCH_POINTS, and perfbench/workloads.py builds AnalyzeConfig
objects at import time.  A rename in distdom breaks both only when a
benchmark runs, so these tests load the two files as the benchmark does.
"""
import importlib.util
import sys
from pathlib import Path

from distdom import chain
from distdom.chain import AnalyzeConfig, CorpusInstance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    # the benchmark runs from perfbench/, whose files import each other
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve(monkeypatch, cycle5):
    tracing = _load("tracer", monkeypatch)
    originals = [getattr(module, attr) for module, attr, _ in tracing.PATCH_POINTS]
    tracer = tracing.Tracer()
    with tracer.installed():
        for (module, attr, _), original in zip(tracing.PATCH_POINTS, originals):
            assert getattr(module, attr) is not original, (module.__name__, attr)
        chain.analyze(CorpusInstance("c5", cycle5, 1))
    for (module, attr, _), original in zip(tracing.PATCH_POINTS, originals):
        assert getattr(module, attr) is original, (module.__name__, attr)
    names = {span[1] for span in tracer.spans}
    assert {"chain.analyze", "lp.solve", "graph.all_balls",
            "independence.sparsify"} <= names
    assert all(span[6] is None for span in tracer.spans)
    tracing.layer_metrics(tracer.spans, 1)


def test_workloads_import(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert sorted(workloads.WORKLOADS) == ["augment-large", "corpus-exact",
                                           "oracle-check", "sparse-float"]
    for name, workload in workloads.WORKLOADS.items():
        if name != "augment-large":
            assert isinstance(workload.cfg, AnalyzeConfig)
    assert (workloads.AugmentWorkload.verify_vertex_limit
            == AnalyzeConfig().verify_vertex_limit)
