import json

import pytest

from distdom.graph import distance
from distdom.instances import (ROLE_APEX, ROLE_HYPER_EDGE, ROLE_HYPER_VERTEX,
                               build_h_r, canonical_ordering, clique_hypergraph,
                               covering_hard_hypergraph, grid_graph,
                               random_degenerate_graph)
from distdom.ordering import wcol_of_ordering


def test_clique_hypergraph_counts():
    h = clique_hypergraph(4)
    assert h.nv == 4 and len(h.edges) == 6
    assert all(len(m) == 2 for m in h.edges)


def test_covering_hard_n5():
    # frozen by direct enumeration: C(5,3) = 10 subsets, 5 edges of size
    # C(4,2) = 6
    h = covering_hard_hypergraph(5)
    assert h.nv == 10 and len(h.edges) == 5
    assert all(len(m) == 6 for m in h.edges)
    # any two edges leave subsets avoiding both indices uncovered
    for i in range(5):
        for j in range(i + 1, 5):
            covered = h.edges[i] | h.edges[j]
            assert len(covered) < h.nv


def test_covering_hard_rejects_even():
    with pytest.raises(ValueError):
        covering_hard_hypergraph(4)


def test_k3_construction_r1():
    # frozen by hand: 3 + 3 edge vertices + apex = 7 vertices, 9 edges
    c = build_h_r(clique_hypergraph(3), 1)
    g = c.graph
    assert g.n == 7
    assert sum(len(a) for a in g.adj) // 2 == 9
    assert c.roles.count(ROLE_HYPER_VERTEX) == 3
    assert c.roles.count(ROLE_HYPER_EDGE) == 3
    assert c.roles[c.apex] == ROLE_APEX


def test_k3_construction_r2():
    # 3 + 3 + 6 subdivision + apex + 9 apex-path internals = 22
    c = build_h_r(clique_hypergraph(3), 2)
    assert c.graph.n == 22


@pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (5, 1)])
def test_construction_distances(n, r):
    c = build_h_r(clique_hypergraph(n), r)
    g = c.graph
    # hypergraph vertices sharing an edge sit at distance exactly 2r
    for ev, i in c.hyperedge_map.items():
        members = sorted(clique_hypergraph(n).edges[i])
        for v in members:
            assert distance(g, v, ev) == r
        assert distance(g, members[0], members[1]) == 2 * r
    # the apex reaches every non-hypergraph vertex within r
    for v in range(g.n):
        if c.roles[v] != ROLE_HYPER_VERTEX:
            assert distance(g, c.apex, v) <= r


@pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (5, 1), (5, 2)])
def test_canonical_ordering_wcol(n, r):
    # the block ordering keeps weak reach bounded independently of n
    c = build_h_r(clique_hypergraph(n), r)
    ordering = canonical_ordering(c)
    assert ordering.position[c.apex] == 0
    assert wcol_of_ordering(c.graph, ordering, 2 * r - 1) <= r * r - r + 4
    assert wcol_of_ordering(c.graph, ordering, r - 1) <= r * r - r + 3


def test_grid_graph():
    g = grid_graph(3, 3)
    assert g.n == 9
    assert distance(g, 0, 8) == 4
    with pytest.raises(ValueError):
        grid_graph(0, 3)


def test_random_degenerate_orientation():
    g, orientation = random_degenerate_graph(30, 3, seed=1)
    indeg = [0] * g.n
    covered = set()
    for u, v in orientation:
        indeg[v] += 1
        covered.add((min(u, v), max(u, v)))
    assert max(indeg) <= 3
    assert covered == {(u, v) for u in range(g.n) for v in g.adj[u] if u < v}


def test_random_degenerate_deterministic():
    a = random_degenerate_graph(20, 2, seed=9)[0]
    b = random_degenerate_graph(20, 2, seed=9)[0]
    assert a.adj == b.adj
    c = random_degenerate_graph(20, 2, seed=10)[0]
    assert a.adj != c.adj


def test_construction_json():
    c = build_h_r(clique_hypergraph(3), 1)
    obj = json.loads(c.to_json())
    assert obj["n"] == 7 and obj["apex"] == c.apex
    assert obj["roles"][c.apex] == ROLE_APEX


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_h_r(clique_hypergraph(3), 0)
