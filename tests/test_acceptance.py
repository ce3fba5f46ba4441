"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line; the whole module shares a single
analysis pass over the default corpus (exact-rational mode, witness sets
kept) so the expensive LP solves run once.
"""
import csv
import io
import json
import math
from pathlib import Path

import pytest

from distdom.chain import AnalyzeConfig, analyze, default_corpus
from distdom.cli import main
from distdom.graph import all_balls, ball_masks, distance
from distdom.instances import (build_h_r, canonical_ordering,
                               clique_hypergraph, covering_hard_hypergraph)
from distdom.lp import FLOAT_TOL, domination_lp, independence_lp, solve
from distdom.oracles import OracleBudget, brute_alpha_2r, exists_r_dominating
from distdom.ordering import wcol_of_ordering

from lp_reference import reference_solve


@pytest.fixture(scope="module")
def corpus_runs():
    cfg = AnalyzeConfig(keep_sets=True)
    return [(inst, analyze(inst, cfg)) for inst in default_corpus(7)]


def _verdict(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {num} ({name}): {status}")
    assert not failures, failures


def test_criterion_01_duality(corpus_runs):
    failures = []
    if len(corpus_runs) < 30:
        failures.append(f"corpus too small: {len(corpus_runs)}")
    for inst, rep in corpus_runs:
        if rep.gamma_star != rep.alpha_star:
            failures.append(f"{inst.id}: exact {rep.gamma_star} != {rep.alpha_star}")
        if not rep.inequalities()["duality_ok"]:
            failures.append(f"{inst.id}: duality certificate failed")
        # gamma* came from the packing dual; an independent two-phase
        # covering solve and a float packing solve must agree with it
        fx = reference_solve(domination_lp(all_balls(inst.graph, inst.r)), "float")
        fy = solve(independence_lp(all_balls(inst.graph, inst.r)), "float")
        for name, value in (("covering", fx.objective), ("packing", fy.objective)):
            if abs(value - rep.gamma_star) > 1e-6:
                failures.append(f"{inst.id}: float {name} {value} != {rep.gamma_star}")
    _verdict(1, "duality", failures)


def test_criterion_02_rounding_guarantee(corpus_runs):
    failures = []
    for inst, rep in corpus_runs:
        g, r = inst.graph, inst.r
        xn = set(rep.xn_set)
        for v in range(g.n):
            if not any(distance(g, v, w) <= r for w in xn):
                failures.append(f"{inst.id}: vertex {v} undominated")
                break
        if rep.xn_size > rep.b * rep.gamma_star:
            failures.append(f"{inst.id}: |Xn|={rep.xn_size} > b*gamma*")
    _verdict(2, "rounding guarantee", failures)


def test_criterion_03_r1_specialization(corpus_runs):
    failures = []
    seen = 0
    for inst, rep in corpus_runs:
        if inst.orientation is None or inst.r != 1:
            continue
        seen += 1
        bound = 2 * inst.d + 1
        if rep.xn_size > bound * rep.gamma_star:
            failures.append(f"{inst.id}: |Xn|={rep.xn_size} > (2d+1)*gamma*")
        if rep.oracle_gamma is not None:
            if not rep.oracle_gamma <= rep.xn_size <= bound * rep.oracle_gamma:
                failures.append(
                    f"{inst.id}: sandwich {rep.oracle_gamma} <= {rep.xn_size} "
                    f"<= {bound * rep.oracle_gamma} fails")
    if seen == 0:
        failures.append("no oriented random-degenerate instances in corpus")
    _verdict(3, "r=1 specialization", failures)


def test_criterion_04_independence_guarantee(corpus_runs):
    failures = []
    for inst, rep in corpus_runs:
        if rep.y_size < math.ceil(rep.alpha_star / 2):
            failures.append(f"{inst.id}: |Y|={rep.y_size} < ceil(alpha*/2)")
        if not rep.y_certified:
            failures.append(f"{inst.id}: (2r,b)-independence certificate failed")
    _verdict(4, "independence guarantee", failures)


def test_criterion_05_sparsification(corpus_runs):
    failures = []
    for inst, rep in corpus_runs:
        g, r = inst.graph, inst.r
        y1 = sorted(rep.y1_set)
        for i, u in enumerate(y1):
            for v in y1[i + 1:]:
                if distance(g, u, v) <= 2 * r:
                    failures.append(f"{inst.id}: {u},{v} within 2r")
        if 2 * rep.d * rep.y1_size < rep.y_size:
            failures.append(f"{inst.id}: |Y1|={rep.y1_size} < |Y|/(2d)")
    _verdict(5, "sparsification", failures)


def test_criterion_06_construction_bounds(corpus_runs):
    lp_values = {rep.instance_id: rep.gamma_star for _i, rep in corpus_runs}
    budget = OracleBudget(max_vertices=120)
    failures = []
    for n in (4, 5, 6):
        for r in (1, 2):
            c = build_h_r(clique_hypergraph(n), r)
            g = c.graph
            tag = f"K{n}^({r})"
            if brute_alpha_2r(g, r, budget).value != 2:
                failures.append(f"{tag}: alpha_2r != 2")
            masks = ball_masks(g, r)
            for size in range(1, math.ceil(n / 2)):
                if exists_r_dominating(masks, size) is not None:
                    failures.append(f"{tag}: dominating set of size {size}")
            ordering = canonical_ordering(c)
            if wcol_of_ordering(g, ordering, 2 * r - 1) > r * r - r + 4:
                failures.append(f"{tag}: wcol_(2r-1) too large")
            if wcol_of_ordering(g, ordering, r - 1) > r * r - r + 3:
                failures.append(f"{tag}: wcol_(r-1) too large")
            value = lp_values[f"clique-hr-n{n}-r{r}"]
            if not n / 2 <= value <= n / 2 + 1:
                failures.append(f"{tag}: LP value {value} outside [n/2, n/2+1]")
    _verdict(6, "construction bounds", failures)


def test_criterion_07_unbounded_gap(corpus_runs):
    lp_values = {rep.instance_id: rep.gamma_star for _i, rep in corpus_runs}
    failures = []
    ratios = []
    for n in (5, 7):
        c = build_h_r(covering_hard_hypergraph(n), 1)
        g = c.graph
        tag = f"covering-hard({n})"
        lower = (n + 1) // 2
        masks = ball_masks(g, 1)
        for size in range(1, lower):
            if exists_r_dominating(masks, size) is not None:
                failures.append(f"{tag}: dominating set of size {size}")
        value = lp_values[f"covering-hard-n{n}-r1"]
        if value > 3:
            failures.append(f"{tag}: gamma* = {value} > 3")
        ratios.append(lower / value)
        if ratios[-1] <= (n + 1) / 6:
            failures.append(f"{tag}: ratio {ratios[-1]} <= (n+1)/6")
        if wcol_of_ordering(g, canonical_ordering(c), 0) > 3:
            failures.append(f"{tag}: wcol_0 > 3")
    if not ratios[0] < ratios[1]:
        failures.append(f"ratio not increasing: {ratios}")
    _verdict(7, "unbounded gap", failures)


def test_criterion_08_oracle_sandwich(corpus_runs):
    failures = []
    seen = 0
    for inst, rep in corpus_runs:
        if rep.oracle_gamma is None:
            continue
        seen += 1
        if not rep.oracle_alpha <= rep.alpha_star <= rep.oracle_gamma:
            failures.append(f"{inst.id}: alpha/gamma sandwich fails")
        if rep.oracle_alpha_b > rep.b * rep.alpha_star:
            failures.append(f"{inst.id}: alpha_(2r,b) > b*alpha*")
    if seen == 0:
        failures.append("no instances within oracle budget")
    _verdict(8, "oracle sandwich", failures)


def test_criterion_09_augmentation_identity(corpus_runs):
    failures = []
    for inst, rep in corpus_runs:
        if not rep.inequalities()["deltas_match"]:
            failures.append(f"{inst.id}: Delta profile != wcol profile")
        if inst.graph.n <= 200 and rep.aug_verified is not True:
            failures.append(f"{inst.id}: augmentation not verified")
    _verdict(9, "augmentation identity", failures)


def test_corpus_reports_match_golden(corpus_runs):
    """Every report field and every X_n/Y/Y1 set equals the stored reports.

    Regenerate tests/data/corpus7_reports.jsonl, from the repository root,
    only for a change that is meant to alter the pipeline's output:

    PYTHONPATH=src python3 -c "import json; from distdom.chain import *
    cfg = AnalyzeConfig(keep_sets=True)
    for inst in default_corpus(7):
        obj = json.loads(analyze(inst, cfg).to_json()); del obj['timings_ms']
        print(json.dumps(obj, separators=(',', ':')))
    " > tests/data/corpus7_reports.jsonl
    """
    path = Path(__file__).parent / "data" / "corpus7_reports.jsonl"
    golden = [json.loads(line) for line in path.read_text().splitlines()]
    actual = []
    for _inst, rep in corpus_runs:
        obj = json.loads(rep.to_json())
        del obj["timings_ms"]
        actual.append(obj)
    assert [o["id"] for o in actual] == [o["id"] for o in golden]
    for got, want in zip(actual, golden):
        assert got == want, got["id"]


def test_corpus_float_reports_match_golden():
    """In float mode, every report field and every X_n/Y/Y1 set equals the
    stored reports; gamma* and alpha* agree within FLOAT_TOL.

    Regenerate tests/data/corpus7_float_reports.jsonl, from the repository
    root, only for a change that is meant to alter the pipeline's output:

    PYTHONPATH=src python3 -c "import json; from distdom.chain import *
    cfg = AnalyzeConfig(mode='float', keep_sets=True)
    for inst in default_corpus(7):
        obj = json.loads(analyze(inst, cfg).to_json()); del obj['timings_ms']
        print(json.dumps(obj, separators=(',', ':')))
    " > tests/data/corpus7_float_reports.jsonl
    """
    path = Path(__file__).parent / "data" / "corpus7_float_reports.jsonl"
    golden = [json.loads(line) for line in path.read_text().splitlines()]
    cfg = AnalyzeConfig(mode="float", keep_sets=True)
    actual = [json.loads(analyze(inst, cfg).to_json())
              for inst in default_corpus(7)]
    assert [o["id"] for o in actual] == [o["id"] for o in golden]
    optima = ("gamma_star", "alpha_star")
    for got, want in zip(actual, golden):
        del got["timings_ms"]
        assert got.keys() == want.keys(), got["id"]
        for key in optima:
            assert abs(float(got[key]) - float(want[key])) <= FLOAT_TOL, got["id"]
        assert ({k: v for k, v in got.items() if k not in optima}
                == {k: v for k, v in want.items() if k not in optima}), got["id"]


def test_criterion_10_determinism(tmp_path):
    failures = []
    outputs = []
    for i in (0, 1):
        path = tmp_path / f"run{i}.csv"
        code = main(["verify-chain", "--seed", "7", "--out", str(path)])
        if code != 0:
            failures.append(f"run {i}: exit code {code}")
        lines = path.read_text().splitlines()
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        outputs.append([lines[0]] + [row[:-1] for row in rows])  # drop t_ms
    if outputs[0] != outputs[1]:
        failures.append("non-timing CSV columns differ between runs")
    _verdict(10, "determinism", failures)
