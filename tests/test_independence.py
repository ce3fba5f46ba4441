import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.augment import augment_from_ordering, indegree_profile
from distdom.graph import distance, from_edges
from distdom.independence import (Hypergraph, MatchingBudgetExceeded,
                                  certify_2rb_independent, extract_kmatching,
                                  inneighbor_hypergraph, is_b_matching,
                                  matching_solution_from_packing,
                                  sparsify_to_independent)
from distdom.lp import LpSolution, ceil_ratio, independence_lp, ratio, solve
from distdom.oracles import (OracleBudget, brute_alpha_2r, brute_alpha_2rb,
                             brute_bmatching)
from distdom.ordering import heuristic_ordering

from conftest import graphs
from lp_reference import bmatching_lp


def out_bounded_set(aug, strategy, pack):
    """Y as analyze extracts it: a k-matching (k = Delta_r) of the
    inneighbor hypergraph, seeded from the packing optimum."""
    h = inneighbor_hypergraph(aug)
    k = indegree_profile(aug).delta[aug.r]
    m = matching_solution_from_packing(h, pack)
    return frozenset(extract_kmatching(h, k, m, strategy).selected)


def test_inneighbor_hypergraph_path(path3):
    aug = augment_from_ordering(path3, heuristic_ordering(path3), 1)
    h = inneighbor_hypergraph(aug)
    assert h.nv == 3 and len(h.edges) == 3
    for u, members in h.edges:
        assert u in members
        assert members == {t for t, _rho in aug.in_arcs[u]}


def test_is_b_matching_triangle(triangle_hypergraph):
    assert is_b_matching(triangle_hypergraph, {0}, 1)
    assert not is_b_matching(triangle_hypergraph, {0, 1}, 1)
    assert is_b_matching(triangle_hypergraph, {0, 1, 2}, 2)


def test_matching_reindex(triangle_hypergraph):
    y = LpSolution("optimal", (ratio(1, 2),) * 3, ratio(3, 2))
    m = matching_solution_from_packing(
        Hypergraph(3, tuple((lab, mem) for lab, mem in triangle_hypergraph.edges)), y)
    assert m.objective == ratio(3, 2)
    with pytest.raises(ValueError):
        matching_solution_from_packing(triangle_hypergraph,
                                       LpSolution("infeasible", None, None))


def test_threshold_triangle(triangle_hypergraph):
    # m_e = 1/2 for all three edges: the threshold at 1/1 keeps nothing,
    # greedy extension then picks one edge
    m = LpSolution("optimal", (ratio(1, 2),) * 3, ratio(3, 2))
    bm = extract_kmatching(triangle_hypergraph, 1, m, "threshold")
    assert bm.selected == frozenset()
    bm = extract_kmatching(triangle_hypergraph, 1, m, "threshold+greedy")
    assert len(bm.selected) == 1


def test_exact_triangle(triangle_hypergraph):
    # frozen oracle values: mu_1 = 1, mu_2 = 3, mu*_1 = 3/2
    m = solve(bmatching_lp(triangle_hypergraph, 1))
    bm = extract_kmatching(triangle_hypergraph, 1, m, "exact")
    assert len(bm.selected) == brute_bmatching(triangle_hypergraph, 1).value == 1
    bm2 = extract_kmatching(triangle_hypergraph, 2,
                            solve(bmatching_lp(triangle_hypergraph, 1)), "exact")
    assert len(bm2.selected) == brute_bmatching(triangle_hypergraph, 2).value == 3


def test_exact_respects_edge_budget(triangle_hypergraph):
    m = solve(bmatching_lp(triangle_hypergraph, 1))
    with pytest.raises(MatchingBudgetExceeded):
        extract_kmatching(triangle_hypergraph, 1, m, "exact", max_edges_exact=2)


def test_unknown_strategy(triangle_hypergraph):
    m = solve(bmatching_lp(triangle_hypergraph, 1))
    with pytest.raises(ValueError):
        extract_kmatching(triangle_hypergraph, 1, m, "nope")


def test_exact_at_least_half_fractional_c5(cycle5):
    ordering = heuristic_ordering(cycle5)
    aug = augment_from_ordering(cycle5, ordering, 1)
    pack = solve(independence_lp(cycle5, 1))
    y = out_bounded_set(aug, "exact", pack)
    assert len(y) >= ceil_ratio(pack.objective / 2)


def test_certify_c6(cycle6):
    # frozen oracle value: alpha_{2,2}(C6) = 4
    assert brute_alpha_2rb(cycle6, 1, 2).value == 4
    cert = certify_2rb_independent(cycle6, frozenset({0, 1, 3, 4}), 1, 2)
    assert cert.ok and cert.count == 2
    bad = certify_2rb_independent(cycle6, frozenset({0, 1, 2}), 1, 2)
    assert not bad.ok and bad.worst_vertex == 1 and bad.count == 3


def test_certify_empty():
    g = from_edges(0, [])
    assert certify_2rb_independent(g, frozenset(), 1, 1).ok


def test_sparsify_c6(cycle6):
    aug2 = augment_from_ordering(cycle6, heuristic_ordering(cycle6), 2)
    y = frozenset({0, 1, 3, 4})
    y1 = sparsify_to_independent(cycle6, aug2, y, 2)
    assert y1 and y1 <= y
    for u in y1:
        for v in y1:
            assert u == v or distance(cycle6, u, v) > 2


def test_sparsify_rejects_uncertified(cycle6):
    aug2 = augment_from_ordering(cycle6, heuristic_ordering(cycle6), 2)
    with pytest.raises(ValueError, match="independent"):
        sparsify_to_independent(cycle6, aug2, frozenset(range(6)), 1)


def test_sparsify_needs_even_radius(cycle6):
    aug1 = augment_from_ordering(cycle6, heuristic_ordering(cycle6), 1)
    with pytest.raises(ValueError, match="even"):
        sparsify_to_independent(cycle6, aug1, frozenset({0}), 1)


def test_hypergraph_validation():
    with pytest.raises(ValueError, match="distinct"):
        Hypergraph(2, ((0, frozenset({0})), (0, frozenset({1}))))
    with pytest.raises(ValueError, match="empty"):
        Hypergraph(2, ((0, frozenset()),))
    with pytest.raises(ValueError, match="range"):
        Hypergraph(2, ((0, frozenset({5})),))


def test_hypergraph_json(triangle_hypergraph):
    import json
    assert json.loads(triangle_hypergraph.to_json()) == {
        "nv": 3, "edges": [{"label": 0, "members": [0, 1]},
                           {"label": 1, "members": [1, 2]},
                           {"label": 2, "members": [0, 2]}]}


@given(graphs(min_n=1, max_n=7), st.integers(1, 2),
       st.sampled_from(["threshold", "threshold+greedy", "exact"]))
@settings(max_examples=40, deadline=None)
def test_pipeline_properties(g, r, strategy):
    ordering = heuristic_ordering(g)
    aug = augment_from_ordering(g, ordering, r)
    aug2 = augment_from_ordering(g, ordering, 2 * r)
    k = indegree_profile(aug).delta[r]
    pack = solve(independence_lp(g, r))
    y = out_bounded_set(aug, strategy, pack)
    h = inneighbor_hypergraph(aug)
    assert is_b_matching(h, y, k)
    if strategy == "exact":
        assert len(y) >= ceil_ratio(pack.objective / 2)
    # certified against b = any upper bound on per-ball hits; use the
    # brute count itself to keep the property tight
    b = max((certify_2rb_independent(g, y, r, g.n).count, 1))
    y1 = sparsify_to_independent(g, aug2, y, b)
    for u in y1:
        for v in y1:
            assert u == v or distance(g, u, v) > 2 * r
    alpha = brute_alpha_2r(g, r, OracleBudget(max_vertices=7)).value
    assert len(y1) <= alpha
