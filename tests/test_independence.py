import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.augment import augment_from_ordering, indegree_profile
from distdom.graph import all_balls, distance, from_edges
from distdom.independence import (Hypergraph, _conflict_adjacency,
                                  _greedy_extend, certify_2rb_independent,
                                  extract_kmatching, inneighbor_hypergraph,
                                  is_b_matching,
                                  matching_solution_from_packing,
                                  sparsify_to_independent)
from distdom.lp import LpSolution, independence_lp, ratio, solve, threshold
from distdom.oracles import OracleBudget, brute_alpha_2r, brute_alpha_2rb
from distdom.ordering import heuristic_ordering

from conftest import graphs
from lp_reference import bmatching_lp
from oracles_reference import brute_bmatching


def out_bounded_set(aug, pack):
    """Y as analyze extracts it: a k-matching (k = Delta_r) of the
    inneighbor hypergraph, seeded from the packing optimum."""
    h = inneighbor_hypergraph(aug)
    k = indegree_profile(aug).delta[aug.r]
    m = matching_solution_from_packing(h, pack)
    return extract_kmatching(h, k, m)


def test_inneighbor_hypergraph_path(path3):
    aug = augment_from_ordering(path3, heuristic_ordering(path3), 1)
    h = inneighbor_hypergraph(aug)
    assert h.nv == 3 and len(h.edges) == 3
    for u, members in enumerate(h.edges):
        assert u in members
        assert members == {t for t, _rho in aug.in_arcs[u]}


def test_is_b_matching_triangle(triangle_hypergraph):
    assert is_b_matching(triangle_hypergraph, {0}, 1)
    assert not is_b_matching(triangle_hypergraph, {0, 1}, 1)
    assert is_b_matching(triangle_hypergraph, {0, 1, 2}, 2)


def test_matching_reindex(triangle_hypergraph):
    y = LpSolution("optimal", (ratio(1, 2),) * 3, ratio(3, 2))
    m = matching_solution_from_packing(triangle_hypergraph, y)
    assert m.values == y.values and m.objective == ratio(3, 2)
    with pytest.raises(ValueError):
        matching_solution_from_packing(triangle_hypergraph,
                                       LpSolution("infeasible", None, None))


@pytest.mark.parametrize("nvalues", [2, 4])
def test_matching_needs_one_value_per_edge(triangle_hypergraph, nvalues):
    y = LpSolution("optimal", (ratio(1, 2),) * nvalues, ratio(nvalues, 2))
    with pytest.raises(ValueError, match="one packing value per edge"):
        matching_solution_from_packing(triangle_hypergraph, y)


def test_matching_reindex_keeps_float_optimum():
    # an empty float answer stays a float answer, so its 1/k cut is a float
    y = solve(independence_lp([]), "float")
    m = matching_solution_from_packing(Hypergraph(0, ()), y)
    assert isinstance(threshold(m, 2), float)


def test_threshold_triangle(triangle_hypergraph):
    # m_e = 1/2 for all three edges: the threshold at 1/1 keeps nothing,
    # greedy extension then picks one edge
    m = LpSolution("optimal", (ratio(1, 2),) * 3, ratio(3, 2))
    assert all(val < threshold(m, 1) for val in m.values)
    assert len(_greedy_extend(triangle_hypergraph, 1, set())) == 1
    assert len(extract_kmatching(triangle_hypergraph, 1, m)) == 1


def test_triangle_kmatching(triangle_hypergraph):
    # frozen oracle values: mu_1 = 1, mu_2 = 3, mu*_1 = 3/2
    m = solve(bmatching_lp(triangle_hypergraph, 1))
    assert m.objective == ratio(3, 2)
    assert (len(extract_kmatching(triangle_hypergraph, 1, m))
            == brute_bmatching(triangle_hypergraph, 1).value == 1)
    assert (len(extract_kmatching(triangle_hypergraph, 2, m))
            == brute_bmatching(triangle_hypergraph, 2).value == 3)


@st.composite
def small_edge_hypergraphs(draw):
    """A hypergraph whose edges have at most k members, and that k."""
    nv = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    edges = draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=1,
                                  max_size=k), max_size=12))
    return Hypergraph(nv, tuple([frozenset(e) for e in edges])), k


@given(small_edge_hypergraphs())
@settings(max_examples=150, deadline=None)
def test_maximal_kmatching_has_half_the_fractional_optimum(hk):
    h, k = hk
    m = solve(bmatching_lp(h, 1))
    chosen = extract_kmatching(h, k, m)
    assert is_b_matching(h, chosen, k)
    # maximal: no further edge fits
    for j in range(len(h.edges)):
        assert j in chosen or not is_b_matching(h, chosen | {j}, k)
    assert 2 * len(chosen) >= m.objective


def test_exact_at_least_half_fractional_c5(cycle5):
    ordering = heuristic_ordering(cycle5)
    aug = augment_from_ordering(cycle5, ordering, 1)
    pack = solve(independence_lp(all_balls(cycle5, 1)))
    y = out_bounded_set(aug, pack)
    assert len(y) >= math.ceil(pack.objective / 2)


def test_certify_c6(cycle6):
    # frozen oracle value: alpha_{2,2}(C6) = 4
    assert brute_alpha_2rb(cycle6, 1, 2).value == 4
    balls = all_balls(cycle6, 1)
    cert = certify_2rb_independent(balls, frozenset({0, 1, 3, 4}), 2)
    assert cert.ok and cert.count == 2
    bad = certify_2rb_independent(balls, frozenset({0, 1, 2}), 2)
    assert not bad.ok and bad.worst_vertex == 1 and bad.count == 3


def test_certify_empty():
    g = from_edges(0, [])
    assert certify_2rb_independent(all_balls(g, 1), frozenset(), 1).ok


def _delta_2r(g, r):
    aug2 = augment_from_ordering(g, heuristic_ordering(g), 2 * r)
    return indegree_profile(aug2).delta[2 * r]


def test_sparsify_c6(cycle6):
    y = frozenset({0, 1, 3, 4})
    y1 = sparsify_to_independent(all_balls(cycle6, 1), y, 2,
                                 2 * _delta_2r(cycle6, 1))
    assert y1 and y1 <= y
    for u in y1:
        for v in y1:
            assert u == v or distance(cycle6, u, v) > 2


def test_sparsify_rejects_uncertified(cycle6):
    with pytest.raises(ValueError, match="independent"):
        sparsify_to_independent(all_balls(cycle6, 1), frozenset(range(6)), 1,
                                _delta_2r(cycle6, 1))


@given(graphs(min_n=0, max_n=10), st.data(), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_conflict_adjacency_is_distance_2r(g, data, r):
    # two members share an r-ball iff they are at distance <= 2r
    ys = sorted(data.draw(st.sets(st.integers(0, max(0, g.n - 1)),
                                  max_size=g.n)))
    adj = _conflict_adjacency(all_balls(g, r), ys)
    for i, u in enumerate(ys):
        assert adj[i] == {j for j, v in enumerate(ys)
                          if j != i and distance(g, u, v) <= 2 * r}


def test_hypergraph_validation():
    with pytest.raises(ValueError, match="empty"):
        Hypergraph(2, (frozenset({0}), frozenset()))
    with pytest.raises(ValueError, match="range"):
        Hypergraph(2, (frozenset({5}),))


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_pipeline_properties(g, r):
    ordering = heuristic_ordering(g)
    aug = augment_from_ordering(g, ordering, r)
    aug2 = augment_from_ordering(g, ordering, 2 * r)
    balls = all_balls(g, r)
    k = indegree_profile(aug).delta[r]
    pack = solve(independence_lp(balls))
    y = out_bounded_set(aug, pack)
    h = inneighbor_hypergraph(aug)
    assert is_b_matching(h, y, k)
    assert len(y) >= math.ceil(pack.objective / 2)
    # certified against b = any upper bound on per-ball hits; use the
    # brute count itself to keep the property tight
    b = max((certify_2rb_independent(balls, y, g.n).count, 1))
    y1 = sparsify_to_independent(balls, y, b,
                                 b * indegree_profile(aug2).delta[2 * r])
    for u in y1:
        for v in y1:
            assert u == v or distance(g, u, v) > 2 * r
    alpha = brute_alpha_2r(g, r, OracleBudget(max_vertices=7)).value
    assert len(y1) <= alpha
