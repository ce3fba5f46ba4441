import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.graph import (GraphParseError, ball, ball_masks, distance, edges,
                           from_edges, parse_graph, to_json)
from distdom.instances import build_h_r, clique_hypergraph

from conftest import graphs


def naive_ball(g, v, r):
    # independent oracle: filter by pairwise BFS distance
    return frozenset(u for u in range(g.n) if distance(g, u, v) <= r)


def test_distance_path(path3):
    assert distance(path3, 0, 2) == 2
    assert distance(path3, 2, 0) == 2


def test_distance_identity(path3):
    for v in range(3):
        assert distance(path3, v, v) == 0


def test_distance_disconnected():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) == math.inf


def test_distance_in_k3_construction():
    # original hypergraph vertices of K3^(1) sit at distance 2r = 2
    c = build_h_r(clique_hypergraph(3), 1)
    assert distance(c.graph, 1, 2) == 2


def test_distance_invalid_vertex(path3):
    with pytest.raises(ValueError):
        distance(path3, 0, 7)


def test_ball_zero_radius(path3):
    assert ball(path3, 1, 0) == {1}


def test_ball_closed_neighborhood(path3):
    assert ball(path3, 1, 1) == {0, 1, 2}


def test_ball_grid_center(grid33):
    # frozen from the BFS-distance oracle: radius 2 from the center hits all 9
    assert naive_ball(grid33, 4, 2) == frozenset(range(9))
    assert ball(grid33, 4, 2) == frozenset(range(9))


def test_parse_dimacs_minimal():
    g = parse_graph(b"p edge 2 1\ne 1 2\n", "dimacs")
    assert g.n == 2 and edges(g) == [(0, 1)]


def test_parse_dimacs_self_loop():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("p edge 2 1\ne 1 1\n", "dimacs")
    assert exc.value.line == 2


def test_parse_dimacs_out_of_range():
    with pytest.raises(GraphParseError):
        parse_graph("p edge 2 1\ne 1 3\n", "dimacs")


def test_parse_dimacs_comments_and_duplicates():
    g = parse_graph("c hello\np edge 3 3\ne 1 2\ne 2 1\ne 2 3\n", "dimacs")
    assert edges(g) == [(0, 1), (1, 2)]


def test_json_round_trip_k4(k4):
    assert parse_graph(to_json(k4), "json").adj == k4.adj


def test_json_extra_keys_are_ignored(k4):
    # labels (here of the wrong length), roles and orientation are not
    # part of the graph
    extra = {"labels": ["a", "b"], "roles": ["x"] * 4,
             "orientation": [[0, 1], [2, 3]]}
    plain = parse_graph(to_json(k4), "json")
    assert parse_graph(to_json(k4, extra), "json") == plain == k4


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        from_edges(2, [(1, 1)])


@given(graphs())
@settings(max_examples=60)
def test_json_round_trip(g):
    g2 = parse_graph(to_json(g), "json")
    assert g2.n == g.n and g2.adj == g.adj


@given(graphs(), st.integers(0, 3))
@settings(max_examples=60)
def test_ball_matches_distance_filter(g, r):
    masks = ball_masks(g, r)
    for v in range(g.n):
        assert ball(g, v, r) == naive_ball(g, v, r)
        assert masks[v] == sum(1 << u for u in naive_ball(g, v, r))


@given(graphs(), st.integers(0, 3))
@settings(max_examples=60)
def test_ball_monotone(g, r):
    for v in range(g.n):
        assert ball(g, v, r) <= ball(g, v, r + 1)
        assert len(ball(g, v, 0)) == 1


@given(graphs(min_n=3, max_n=7))
@settings(max_examples=40)
def test_distance_metric_properties(g):
    for u in range(g.n):
        for v in range(g.n):
            assert distance(g, u, v) == distance(g, v, u)
            for w in range(g.n):
                assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)
