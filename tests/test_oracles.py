import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.graph import all_balls, ball_masks, distance, from_edges
from distdom.independence import (Hypergraph, certify_2rb_independent,
                                  is_b_matching)
from distdom.oracles import (BudgetExceeded, OracleBudget, brute_alpha_2r,
                             brute_alpha_2rb, brute_gamma_r, brute_wcol,
                             exists_r_dominating)
from distdom.ordering import wcol_of_ordering

from conftest import graphs
from oracles_reference import brute_bmatching


def test_gamma_c5(cycle5):
    # frozen: two vertices dominate C5 at r=1, none alone
    value, witness = brute_gamma_r(cycle5, 1)
    assert value == 2
    assert all(any(distance(cycle5, v, w) <= 1 for w in witness)
               for v in range(5))


def test_gamma_path5_r2(path5):
    assert brute_gamma_r(path5, 2).value == 1


def test_gamma_empty_graph():
    assert brute_gamma_r(from_edges(0, []), 1).value == 0


def test_alpha_c5(cycle5):
    # frozen: any two vertices of C5 are within distance 2
    assert brute_alpha_2r(cycle5, 1).value == 1


def test_alpha_path5(path5):
    value, witness = brute_alpha_2r(path5, 1)
    assert value == 2
    ws = sorted(witness)
    assert distance(path5, ws[0], ws[1]) > 2


def test_alpha_2rb_c6(cycle6):
    assert brute_alpha_2rb(cycle6, 1, 2).value == 4
    assert brute_alpha_2rb(cycle6, 1, 1).value == 2


def test_wcol_c5(cycle5):
    value, ordering = brute_wcol(cycle5, 2)
    assert value == 4
    assert wcol_of_ordering(cycle5, ordering, 2) == 4


def test_bmatching_triangle(triangle_hypergraph):
    assert brute_bmatching(triangle_hypergraph, 1).value == 1
    value, witness = brute_bmatching(triangle_hypergraph, 2)
    assert value == 3 and is_b_matching(triangle_hypergraph, witness, 2)


def test_exists_r_dominating(cycle6):
    masks = ball_masks(cycle6, 1)
    assert exists_r_dominating(masks, 1) is None
    witness = exists_r_dominating(masks, 2)
    assert witness is not None and len(witness) == 2


def test_budget_refusals(cycle5):
    big = from_edges(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(BudgetExceeded):
        brute_gamma_r(big, 1, OracleBudget(max_vertices=10))
    with pytest.raises(BudgetExceeded):
        brute_wcol(cycle5, 1, OracleBudget(max_vertices=14, max_nodes=10))
    with pytest.raises(BudgetExceeded):
        exists_r_dominating(ball_masks(big, 1), 10, OracleBudget(max_nodes=100))


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_gamma_witness_dominates(g, r):
    value, witness = brute_gamma_r(g, r)
    assert len(witness) == value
    for v in range(g.n):
        assert any(distance(g, v, w) <= r for w in witness)
    if value > 0:
        assert exists_r_dominating(ball_masks(g, r), value - 1) is None


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_alpha_witness_independent(g, r):
    value, witness = brute_alpha_2r(g, r)
    assert len(witness) == value >= 1
    for u in witness:
        for v in witness:
            assert u == v or distance(g, u, v) > 2 * r


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_weak_duality_gamma_alpha(g, r):
    # alpha_2r <= gamma_r: balls of a dominating set cover everything and
    # each ball holds at most one member of a 2r-independent set
    assert brute_alpha_2r(g, r).value <= brute_gamma_r(g, r).value


@given(graphs(min_n=1, max_n=6), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_alpha_2rb_monotone_in_b(g, r, b):
    assert (brute_alpha_2rb(g, r, b).value
            <= brute_alpha_2rb(g, r, b + 1).value)
    assert brute_alpha_2rb(g, r, 1).value == brute_alpha_2r(g, r).value


@given(graphs(min_n=1, max_n=12), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_alpha_oracles_match_ball_bmatching(g, r, b):
    # a (2r,b)-independent set is a b-matching of the hypergraph whose
    # edge v holds the balls that contain v: N_r[v], by symmetry
    balls = all_balls(g, r)
    h = Hypergraph(g.n, tuple(balls))
    for bb, (value, witness) in [(b, brute_alpha_2rb(g, r, b)),
                                 (1, brute_alpha_2r(g, r))]:
        assert value == brute_bmatching(h, bb).value
        assert len(witness) == value
        assert certify_2rb_independent(balls, witness, bb).ok


@pytest.mark.parametrize("call", [
    lambda g, h: brute_alpha_2r(g, 1),
    lambda g, h: brute_alpha_2rb(g, 1, 2),
    lambda g, h: brute_bmatching(h, 1),
    lambda g, h: brute_alpha_2r(g, 1, OracleBudget(max_nodes=2)),
    lambda g, h: brute_alpha_2rb(g, 1, 2, OracleBudget(max_nodes=2)),
    lambda g, h: brute_bmatching(h, 1, OracleBudget(max_nodes=2)),
], ids=["alpha_2r", "alpha_2rb", "bmatching", "alpha_2r-budget",
        "alpha_2rb-budget", "bmatching-budget"])
def test_oracles_leave_no_reference_cycles(grid33, triangle_hypergraph, call):
    # the recursive closures refer to themselves; every exit must break the
    # cycle so that refcounting alone frees them
    import gc
    gc.collect()
    gc.disable()
    try:
        try:
            call(grid33, triangle_hypergraph)
        except BudgetExceeded:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
