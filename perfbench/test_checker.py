"""The benchmark's checker accepts real outputs and rejects corrupted ones.

    python3 -m pytest perfbench/test_checker.py -q
"""
import dataclasses
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from distdom.chain import AnalyzeConfig, CorpusInstance, analyze  # noqa: E402
from distdom.instances import grid_graph, random_degenerate_graph  # noqa: E402
from distdom.ordering import Ordering  # noqa: E402


@pytest.fixture(scope="module")
def grid_case():
    inst = CorpusInstance("grid-4x5-r1", grid_graph(4, 5), 1)
    return inst, analyze(inst, AnalyzeConfig(keep_sets=True))


@pytest.fixture(scope="module")
def augment_case():
    g, _ = random_degenerate_graph(300, 2, 11)
    inst = workloads.AugmentInstance("rdeg-n300-r2", g, 2)
    return inst, workloads.AugmentWorkload().run_one(inst)


def _failures(case, **changes):
    inst, rep = case
    return checker.check_chain_report(inst.graph, inst.r,
                                      dataclasses.replace(rep, **changes))


def test_accepts_correct_report(grid_case):
    assert _failures(grid_case) == []


def test_rejects_dropped_dominator(grid_case):
    inst, rep = grid_case
    h = checker.to_nx(inst.graph)
    xn = set(rep.xn_set)
    # a member that is the only dominator of some vertex
    sole = next(x for x in sorted(xn)
                if any(not (set(h[v]) | {v}) & (xn - {x}) for v in h[x]))
    fails = _failures(grid_case, xn_set=tuple(sorted(xn - {sole})),
                      xn_size=len(xn) - 1)
    assert any("undominated" in f for f in fails), fails


def test_rejects_close_pair_in_y1(grid_case):
    inst, rep = grid_case
    y1 = set(rep.y1_set)
    y = min(y1)
    w = next(u for u in inst.graph.adj[y] if u not in y1)
    fails = _failures(grid_case, y1_set=tuple(sorted(y1 | {w})),
                      y1_size=len(y1) + 1)
    assert any("within distance" in f for f in fails), fails


def test_rejects_perturbed_gamma_star(grid_case):
    _inst, rep = grid_case
    fails = _failures(grid_case, gamma_star=rep.gamma_star + Fraction(1, 7))
    assert any("HiGHS" in f for f in fails), fails
    assert any("!= alpha*" in f for f in fails), fails


def test_accepts_correct_augment_output(augment_case):
    inst, out = augment_case
    assert checker.check_augment_output(inst.graph, inst.r, out,
                                        random.Random(0)) == []


def test_rejects_corrupted_ordering(augment_case):
    inst, out = augment_case
    n = inst.graph.n
    reversed_order = Ordering(tuple(n - 1 - p for p in out.ordering.position))
    bad = dataclasses.replace(out, ordering=reversed_order)
    fails = checker.check_augment_output(inst.graph, inst.r, bad,
                                         random.Random(0))
    assert any("wcol_1" in f for f in fails), fails
    assert any("|Q_" in f for f in fails), fails
