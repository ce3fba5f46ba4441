import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from distdom import augment, chain, domination, independence, lp
from distdom.augment import AugmentationReport
from distdom.chain import (CSV_COLUMNS, AnalyzeConfig, CorpusInstance, analyze,
                           default_corpus, verify_chain)
from distdom.cli import CSV_HEADER_COMMENT, main
from distdom.graph import from_edges, to_json
from distdom.instances import grid_graph
from distdom.oracles import OracleBudget


@pytest.fixture
def small_cfg():
    return AnalyzeConfig(oracle_budget=OracleBudget(max_vertices=10))


def test_analyze_cycle5(cycle5, small_cfg):
    rep = analyze(CorpusInstance("c5", cycle5, 1), small_cfg)
    assert rep.n == 5 and rep.m == 5
    assert float(rep.gamma_star) == pytest.approx(5 / 3)
    assert rep.oracle_gamma == 2 and rep.oracle_alpha == 1
    assert rep.all_ok()
    checks = rep.inequalities()
    assert all(checks.values()), checks


def test_analyze_orientation_instance(cycle5, small_cfg):
    inst = CorpusInstance("c5-orient", cycle5, 1,
                          orientation=tuple((i, (i + 1) % 5) for i in range(5)),
                          d=1)
    rep = analyze(inst, small_cfg)
    assert not rep.aug_from_ordering
    assert rep.b == 3  # 2d + 1 with max indegree 1
    assert rep.all_ok()


def test_analyze_float_mode(grid33):
    cfg = AnalyzeConfig(mode="float", oracle_budget=OracleBudget(max_vertices=9))
    rep = analyze(CorpusInstance("g33", grid33, 1), cfg)
    assert not rep.exact_mode
    assert rep.all_ok()


def test_report_roundtrip_and_csv(cycle6, small_cfg):
    rep = analyze(CorpusInstance("c6", cycle6, 1), small_cfg)
    row = rep.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    obj = json.loads(rep.to_json())
    assert obj["id"] == "c6" and obj["all_ok"] == 1
    assert "timings_ms" in obj


def test_keep_sets(path5, small_cfg):
    cfg = AnalyzeConfig(oracle_budget=small_cfg.oracle_budget, keep_sets=True)
    rep = analyze(CorpusInstance("p5", path5, 1), cfg)
    obj = json.loads(rep.to_json())
    assert set(obj["y1_set"]) <= set(obj["y_set"])
    assert len(obj["xn_set"]) == rep.xn_size


def test_default_corpus_shape():
    corpus = default_corpus(7)
    ids = [inst.id for inst in corpus]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    assert "clique-hr-n4-r1" in ids and "grid-3x3-r1" in ids
    again = default_corpus(7)
    assert [i.graph.adj for i in again] == [i.graph.adj for i in corpus]


def test_verify_chain_small(small_cfg):
    corpus = [inst for inst in default_corpus(7) if inst.graph.n <= 10]
    assert corpus
    reports, ok = verify_chain(corpus, small_cfg)
    assert ok and len(reports) == len(corpus)


def test_broken_report_fails(cycle5, small_cfg):
    import dataclasses
    rep = analyze(CorpusInstance("c5", cycle5, 1), small_cfg)
    bad = dataclasses.replace(rep, xn_size=10 ** 6)
    assert not bad.inequalities()["rounding_ok"]
    assert not bad.all_ok()


def test_duality_needs_packing_certificate(cycle5, small_cfg):
    import dataclasses
    rep = analyze(CorpusInstance("c5", cycle5, 1), small_cfg)
    assert rep.lp_certified and rep.inequalities()["duality_ok"]
    bad = dataclasses.replace(rep, lp_certified=False)
    assert not bad.inequalities()["duality_ok"]
    assert not bad.all_ok()


@pytest.mark.parametrize("mode", ["exact-rational", "float"])
def test_half_ok_checks_every_report(cycle6, mode):
    import dataclasses
    cfg = AnalyzeConfig(mode=mode, oracle_budget=OracleBudget(max_vertices=10))
    rep = analyze(CorpusInstance("c6", cycle6, 1), cfg)
    assert rep.exact_mode == (mode != "float") and rep.inequalities()["half_ok"]
    # alpha* = 2 on C6 with r = 1; an empty Y and Y1 break only 2|Y| >= alpha*
    bad = dataclasses.replace(rep, y_size=0, y1_size=0)
    checks = bad.inequalities()
    assert not checks["half_ok"]
    assert all(ok for name, ok in checks.items() if name != "half_ok")
    obj = json.loads(bad.to_json())
    assert obj["half_ok"] == 0 and obj["all_ok"] == 0 and not bad.all_ok()


@pytest.mark.parametrize("inst_id", ["rdeg-d2-n14-r1", "cycle6-r2"])
def test_analyze_builds_each_table_once(monkeypatch, small_cfg, inst_id):
    # the r-ball table and the two in-degree profiles are built once, in
    # analyze, and every later stage reads them; counted through the module
    # attributes perfbench/tracer.py patches
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            key = f"{module.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (chain, lp, domination, independence):
        count(module, "all_balls")
    for module in (chain, augment, domination, independence):
        count(module, "indegree_profile")
    inst = next(i for i in default_corpus(7) if i.id == inst_id)
    assert analyze(inst, small_cfg).all_ok()
    assert calls == {"distdom.chain.all_balls": 1,
                     "distdom.chain.indegree_profile": 2}


def test_augmentation_violation_is_reported(tmp_path, monkeypatch, cycle5,
                                            small_cfg):
    failing = AugmentationReport(
        False, ((0, 2, 1, "inneighbor-sum below distance"),))
    monkeypatch.setattr(chain, "verify_augmentation", lambda g, aug: failing)
    rep = analyze(CorpusInstance("c5", cycle5, 1), small_cfg)
    assert rep.aug_verified is False and not rep.all_ok()

    path = tmp_path / "c5.json"
    path.write_text(to_json(cycle5))
    code, out, _ = _run(["analyze", str(path)])
    obj = json.loads(out)
    assert code == 1 and obj["aug_verified"] == 0 and obj["all_ok"] == 0

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c5.json").write_text(to_json(cycle5))
    out_csv = tmp_path / "report.csv"
    code, _, err = _run(["verify-chain", "--corpus", str(corpus),
                         "--out", str(out_csv)])
    assert code == 1 and json.loads(err)["id"] == "c5"
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))[2:]
    assert [row[0] for row in rows] == ["c5"]
    assert rows[0][CSV_COLUMNS.index("aug_verified")] == "0"


def test_uncovered_ball_is_reported(tmp_path, monkeypatch, cycle5, small_cfg):
    # all of x's mass on vertex 0: sum(x) still equals sum(y), but the ball
    # of vertex 2 gets nothing, so the duality certificate fails
    covering_from_packing = lp.covering_from_packing

    def lopsided(balls, y):
        x = covering_from_packing(balls, y)
        values = (x.objective,) + (0,) * (len(balls) - 1)
        return lp.LpSolution("optimal", values, x.objective)

    monkeypatch.setattr(lp, "covering_from_packing", lopsided)
    rep = analyze(CorpusInstance("c5", cycle5, 1), small_cfg)
    assert rep.gamma_star == rep.alpha_star and not rep.lp_certified
    assert not rep.inequalities()["duality_ok"] and not rep.all_ok()

    path = tmp_path / "c5.json"
    path.write_text(to_json(cycle5))
    code, out, _ = _run(["analyze", str(path)])
    obj = json.loads(out)
    assert code == 1 and obj["duality_ok"] == 0 and obj["all_ok"] == 0


def test_uncertified_y_is_reported(tmp_path, monkeypatch, small_cfg):
    # every vertex of a 6-vertex star as Y: the ball of the center meets
    # it 6 > b times, so Y is reported uncertified and not sparsified
    star = from_edges(6, [(0, i) for i in range(1, 6)])
    monkeypatch.setattr(chain, "extract_kmatching",
                        lambda h, k, m: frozenset(range(6)))
    rep = analyze(CorpusInstance("star6", star, 1), small_cfg)
    assert rep.b == 3 and rep.y_size == 6
    assert not rep.y_certified and rep.y1_size == 0 and not rep.all_ok()

    path = tmp_path / "star6.json"
    path.write_text(to_json(star))
    code, out, _ = _run(["analyze", str(path)])
    obj = json.loads(out)
    assert code == 1 and obj["y_certified"] == 0 and obj["all_ok"] == 0

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "star6.json").write_text(to_json(star))
    out_csv = tmp_path / "report.csv"
    code, _, _ = _run(["verify-chain", "--corpus", str(corpus),
                       "--out", str(out_csv)])
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))[2:]
    assert code == 1 and [row[0] for row in rows] == ["star6"]
    assert rows[0][CSV_COLUMNS.index("y_certified")] == "0"


def test_stage_that_cannot_finish_exits_3(tmp_path, monkeypatch, cycle5):
    def stalled(program, mode="exact-rational"):
        raise RuntimeError("simplex pivot limit exceeded")

    monkeypatch.setattr(lp, "solve", stalled)
    path = tmp_path / "c5.json"
    path.write_text(to_json(cycle5))
    code, out, err = _run(["analyze", str(path)])
    assert code == 3 and out == ""
    assert err == ("distdom: could not compute: "
                   "c5.json: lp: simplex pivot limit exceeded\n")


def test_float_grid_4x40_r2(tmp_path):
    # its covering LP once ended float phase 1 in a numerical failure;
    # the packing LP starts from the slack basis and its dual covers
    g = grid_graph(4, 40)
    rep = analyze(CorpusInstance("grid-4x40", g, 2), AnalyzeConfig(mode="float"))
    assert not rep.exact_mode
    assert rep.all_ok(), rep.inequalities()
    path = tmp_path / "grid.json"
    path.write_text(to_json(g))
    code, out, err = _run(["analyze", str(path), "--r", "2", "--no-exact"])
    assert code == 0, err
    assert json.loads(out)["all_ok"] == 1


# ---------------------------------------------------------------------------
# CLI


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_analyze_json(tmp_path, cycle5):
    path = tmp_path / "c5.json"
    path.write_text(to_json(cycle5))
    code, out, _ = _run(["analyze", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_ok"] == 1 and obj["n"] == 5


def test_cli_analyze_csv(tmp_path, path3):
    path = tmp_path / "p3.json"
    path.write_text(to_json(path3))
    code, out, _ = _run(["analyze", str(path), "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(CSV_HEADER_COMMENT)
    assert lines[1].split(",")[0] == "id"
    assert len(lines) == 3


def test_cli_generate_grid(tmp_path):
    out_path = tmp_path / "g.json"
    code, _, _ = _run(["generate", "grid", "--rows", "2", "--cols", "3",
                       "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["n"] == 6


def test_cli_generate_construction():
    code, out, _ = _run(["generate", "clique-hr", "--n", "3", "--r", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 7 and obj["roles"][obj["apex"]] == "apex"


def test_cli_verify_chain_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "grid23.json").write_text(to_json(grid_graph(2, 3)))
    (corpus / "p2.json").write_text(to_json(from_edges(2, [(0, 1)])))
    out_csv = tmp_path / "report.csv"
    code, _, err = _run(["verify-chain", "--corpus", str(corpus),
                         "--out", str(out_csv)])
    assert code == 0 and err == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith(CSV_HEADER_COMMENT)
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0] == CSV_COLUMNS
    assert [row[0] for row in rows[1:]] == ["grid23", "p2"]
    assert all(row[CSV_COLUMNS.index("all_ok")] == "1" for row in rows[1:])


def test_cli_verify_chain_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = _run(["verify-chain", "--corpus", str(empty)])
    assert code == 2 and out == ""
    assert err == f"distdom: error: no .json graphs found in {empty}\n"


def test_cli_budget_flag(tmp_path, cycle5):
    # a budget below n skips the oracles
    path = tmp_path / "c5.json"
    path.write_text(to_json(cycle5))
    code, out, _ = _run(["analyze", str(path), "--budget", "1"])
    assert code == 0
    assert json.loads(out)["oracle_gamma"] == ""


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("mode", ["--exact", "--no-exact"])
def test_cli_analyze_empty_graph(tmp_path, r, mode):
    path = tmp_path / "empty.dimacs"
    path.write_text("p edge 0 0\n")
    code, out, _ = _run(["analyze", str(path), "--r", str(r), mode])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 0 and obj["all_ok"] == 1
    assert obj["w_2r"] == 0 and obj["xn"] == 0 and obj["y1"] == 0


def test_empty_graph_float_optima_are_floats():
    # an LP with no variables still has a float optimum in float mode, so
    # its comparisons get the float tolerance
    rep = analyze(CorpusInstance("empty", from_edges(0, []), 1),
                  AnalyzeConfig(mode="float"))
    assert isinstance(rep.gamma_star, float)
    assert isinstance(rep.alpha_star, float)
    assert lp.tolerance(rep.gamma_star) == lp.FLOAT_TOL
    assert rep.all_ok()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", ["r0", "negative-n", "covering-hard-even",
                                  "missing-file"])
def test_cli_bad_input_is_one_line_exit_2(tmp_path, path3, case):
    graph = _write(tmp_path, "p3.json", to_json(path3))
    if case == "r0":
        argv, expect = ["analyze", graph, "--r", "0"], "r must be positive"
    elif case == "negative-n":
        argv = ["analyze", _write(tmp_path, "neg.col", "p edge -2 0\n")]
        expect = "line 1: negative vertex count"
    elif case == "covering-hard-even":
        argv = ["generate", "covering-hard", "--n", "4"]
        expect = "n must be odd"
    else:
        argv = ["analyze", str(tmp_path / "missing.json")]
        expect = "No such file"
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith("distdom: error: ") and expect in err
    assert err.count("\n") == 1

