import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.graph import from_edges
from distdom.independence import _conflict_adjacency
from distdom.ordering import (Ordering, _peel, degeneracy, heuristic_ordering,
                              wcol_of_ordering, weak_reach)
from distdom.oracles import OracleBudget, brute_wcol

from augment_reference import reference_peel
from conftest import graphs, graphs_with_ordering


def test_weak_reach_path_k1(path3):
    ordering = Ordering.from_rank_sequence([0, 1, 2])
    prof = weak_reach(path3, ordering, 1)
    assert prof.q_set(0, 1) == {0}
    assert prof.q_set(1, 1) == {0, 1}
    assert prof.q_set(2, 1) == {1, 2}
    assert prof.wcol(1) == 2


def test_weak_reach_path_k2(path3):
    # frozen from definitional enumeration: the path 2,1,0 keeps every
    # vertex at rank >= rank(0), so 0 is weakly 2-accessible from 2
    ordering = Ordering.from_rank_sequence([0, 1, 2])
    prof = weak_reach(path3, ordering, 2)
    assert prof.q_set(2, 2) == {0, 1, 2}
    assert prof.wcol(2) == 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_clique_any_ordering(n):
    g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for k in (1, 2):
        assert wcol_of_ordering(g, heuristic_ordering(g), k) == n


def test_tree_degeneracy_order_k1():
    tree = from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert wcol_of_ordering(tree, heuristic_ordering(tree, "degeneracy"), 1) == 2


def test_c5_best_ordering_k2(cycle5):
    # frozen from the exhaustive 120-permutation oracle
    value, witness = brute_wcol(cycle5, 2)
    assert value == 4
    assert wcol_of_ordering(cycle5, witness, 2) == 4


def test_star_degeneracy_center_first():
    # leaves peel before the center, so the center lands at rank 0
    star = from_edges(5, [(4, i) for i in range(4)])  # center 4
    ordering = heuristic_ordering(star, "degeneracy")
    assert ordering.position[4] == 0


def test_star_degeneracy_wcol(star5):
    # id-0 center ties with the last leaf and peels one step early;
    # the weak 1-coloring number is 2 either way
    ordering = heuristic_ordering(star5, "degeneracy")
    assert wcol_of_ordering(star5, ordering, 1) == 2


def test_single_vertex():
    g = from_edges(1, [])
    assert heuristic_ordering(g).by_rank == (0,)


def test_strategies_are_permutations(cycle6):
    for strategy in ("degeneracy", "descending-degree", "input-order"):
        ordering = heuristic_ordering(cycle6, strategy)
        assert sorted(ordering.position) == list(range(6))
    with pytest.raises(ValueError):
        heuristic_ordering(cycle6, "nope")


def test_ordering_json_round_trip(cycle6):
    ordering = heuristic_ordering(cycle6)
    assert Ordering.from_json(ordering.to_json()) == ordering


@given(graphs_with_ordering(), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_wcol_monotone_in_k(gw, k):
    g, ordering = gw
    assert wcol_of_ordering(g, ordering, k) <= wcol_of_ordering(g, ordering, k + 1)


@given(graphs_with_ordering(max_n=6), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_ordering_at_least_exact_wcol(gw, k):
    g, ordering = gw
    exact, _ = brute_wcol(g, k, OracleBudget(max_vertices=6))
    assert wcol_of_ordering(g, ordering, k) >= exact


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=50, deadline=None)
def test_degeneracy_vs_wcol1(g):
    d = degeneracy(g)
    assert wcol_of_ordering(g, heuristic_ordering(g, "degeneracy"), 1) - 1 == d
    assert wcol_of_ordering(g, heuristic_ordering(g, "input-order"), 1) - 1 >= d


def test_q_sets_nested_and_leftward(cycle6):
    ordering = heuristic_ordering(cycle6)
    prof = weak_reach(cycle6, ordering, 3)
    for v in range(6):
        assert prof.q_set(v, 0) == {v}
        for k in range(3):
            assert prof.q_set(v, k) <= prof.q_set(v, k + 1)
        for u in prof.q_set(v, 3):
            assert ordering.position[u] <= ordering.position[v]


# the heap-based peeling against the linear-scan reference

@st.composite
def tie_heavy_adjacency(draw):
    """Adjacency lists on 0..n-1, n = 0-12, neighbors in random order.
    Circulant graphs (all degrees equal) under a random relabeling give
    many degree ties."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        g = draw(graphs(min_n=n, max_n=n))
    else:
        steps = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
        perm = draw(st.permutations(list(range(n))))
        g = from_edges(n, [(perm[i], perm[(i + s) % n]) for i in range(n)
                           for s in steps if (i + s) % n != i])
    return [draw(st.permutations(list(a))) for a in g.adj]


@given(tie_heavy_adjacency())
@settings(max_examples=300, deadline=None)
def test_peel_matches_reference(adj):
    assert _peel(adj) == reference_peel(adj)


@given(graphs(min_n=0, max_n=12), st.data(), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_peel_matches_reference_on_conflict_graphs(g, data, r):
    # the index adjacency that sparsify_to_independent peels
    ys = sorted(data.draw(st.sets(st.integers(0, max(0, g.n - 1)),
                                  max_size=g.n)))
    adj = _conflict_adjacency(g, ys, 2 * r)
    assert _peel(adj) == reference_peel(adj)

