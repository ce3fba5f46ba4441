import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.augment import (Augmentation, augment_from_ordering,
                             augmentation_from_profile, indegree_profile,
                             orientation_augmentation, verify_augmentation)
from distdom.graph import from_edges
from distdom.instances import grid_graph, random_degenerate_graph
from distdom.ordering import Ordering, heuristic_ordering, weak_reach

from augment_reference import (reference_arcs_from_profile,
                               reference_indegree_profile, reference_peel,
                               reference_verify_augmentation)
from conftest import graphs_with_ordering


def test_path_order_r2(path3):
    aug = augment_from_ordering(path3, Ordering.from_rank_sequence([0, 1, 2]), 2)
    assert aug.in_arcs[0] == ((0, 0),)
    assert aug.in_arcs[1] == ((0, 1), (1, 0))
    assert aug.in_arcs[2] == ((0, 2), (1, 1), (2, 0))
    prof = indegree_profile(aug)
    assert prof.delta == (1, 2, 3)


def test_single_vertex_any_r():
    g = from_edges(1, [])
    for r in (1, 2, 3):
        aug = augment_from_ordering(g, Ordering((0,)), r)
        assert aug.in_arcs == (((0, 0),),)
        assert indegree_profile(aug).delta == (1,) * (r + 1)


def test_edgeless_profile():
    g = from_edges(4, [])
    aug = augment_from_ordering(g, heuristic_ordering(g), 2)
    assert indegree_profile(aug).delta == (1, 1, 1)


@given(graphs_with_ordering(max_n=7), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_delta_equals_wcol_of_ordering(gw, r):
    g, ordering = gw
    aug = augment_from_ordering(g, ordering, r)
    prof = indegree_profile(aug)
    reach = weak_reach(g, ordering, r)
    for rp in range(r + 1):
        assert prof.delta[rp] == reach.wcol(rp)


@given(graphs_with_ordering(max_n=7), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_ordering_augmentation_verifies(gw, r):
    g, ordering = gw
    aug = augment_from_ordering(g, ordering, r)
    assert verify_augmentation(g, aug).ok


@given(graphs_with_ordering(max_n=9), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_arcs_match_reference_and_share_pairs(gw, K):
    g, ordering = gw
    profile = weak_reach(g, ordering, K)
    top = augmentation_from_profile(g, profile, K)
    for r in range(1, K + 1):
        aug = augmentation_from_profile(g, profile, r)
        assert aug.in_arcs == reference_arcs_from_profile(profile, r)
        for arcs, top_arcs in zip(aug.in_arcs, top.in_arcs):
            by_tail = {pair[0]: pair for pair in top_arcs}
            assert all(pair is by_tail[pair[0]] for pair in arcs)


@given(graphs_with_ordering(max_n=7))
@settings(max_examples=40, deadline=None)
def test_adjacent_pair_has_length1_arc(gw):
    g, ordering = gw
    aug = augment_from_ordering(g, ordering, 2)
    for u in range(g.n):
        for v in g.adj[u]:
            assert (u, 1) in aug.in_arcs[v] or (v, 1) in aug.in_arcs[u]


def test_orientation_cycle(cycle5):
    aug = orientation_augmentation(cycle5, [(i, (i + 1) % 5) for i in range(5)])
    assert indegree_profile(aug).delta == (1, 2)
    assert verify_augmentation(cycle5, aug).ok


def test_orientation_star(star5):
    leaves_in = orientation_augmentation(star5, [(i, 0) for i in range(1, 5)])
    assert indegree_profile(leaves_in).delta[1] == 5
    center_out = orientation_augmentation(star5, [(0, i) for i in range(1, 5)])
    assert indegree_profile(center_out).delta[1] == 2


def test_orientation_must_cover_every_edge(path3):
    with pytest.raises(ValueError):
        orientation_augmentation(path3, [(0, 1)])
    with pytest.raises(ValueError):
        orientation_augmentation(path3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError):
        orientation_augmentation(path3, [(0, 1), (0, 2)])


def test_orientation_path_verifies(path3):
    aug = orientation_augmentation(path3, [(0, 1), (1, 2)])
    assert verify_augmentation(path3, aug).ok


def test_missing_loop_rejected(path3):
    arcs = (((0, 0),), ((0, 1), (1, 0)), ((1, 1),))  # no loop at 2
    with pytest.raises(ValueError, match="loop"):
        Augmentation(path3, 1, arcs)


def test_verify_reports_dist_violation(path3):
    # loops only: adjacent pairs have no common inneighbor within length 1
    arcs = tuple(((v, 0),) for v in range(3))
    report = verify_augmentation(path3, Augmentation(path3, 1, arcs))
    assert not report.ok
    assert (0, 1, 1, "no common inneighbor within distance") in report.violations


def test_verify_reports_sum_violation(path3):
    # the arc 0->2 of length 1 makes 0 and 2 look adjacent; they are at distance 2
    aug = orientation_augmentation(path3, [(0, 1), (1, 2)])
    arcs = aug.in_arcs[:2] + (((0, 1),) + aug.in_arcs[2],)
    report = verify_augmentation(path3, Augmentation(path3, 1, arcs))
    assert not report.ok
    assert (0, 2, 1, "inneighbor-sum below distance") in report.violations


# the sparse check against the dense reference

@st.composite
def perturbed_augmentations(draw):
    """An ordering's r-augmentation (r = 1-4) with some non-loop arcs
    dropped and some arcs added or re-weighted with a random rho."""
    g, ordering = draw(graphs_with_ordering(max_n=9))
    r = draw(st.integers(1, 4))
    arcs = [dict(a) for a in augment_from_ordering(g, ordering, r).in_arcs]
    non_loops = [(v, t) for v, a in enumerate(arcs) for t in a if t != v]
    if non_loops:
        for v, t in draw(st.lists(st.sampled_from(non_loops), unique=True)):
            del arcs[v][t]
    pairs = [(t, v) for v in range(g.n) for t in range(g.n) if t != v]
    if pairs:
        for (t, v), rho in draw(st.lists(st.tuples(st.sampled_from(pairs),
                                                   st.integers(1, r)),
                                         max_size=6)):
            arcs[v][t] = rho
    return g, Augmentation(g, r, tuple(tuple(sorted(a.items())) for a in arcs))


@given(graphs_with_ordering(max_n=9), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_verify_matches_reference(gw, r):
    g, ordering = gw
    aug = augment_from_ordering(g, ordering, r)
    assert verify_augmentation(g, aug) == reference_verify_augmentation(g, aug)


@given(perturbed_augmentations())
@settings(max_examples=300, deadline=None)
def test_verify_matches_reference_on_perturbed(ga):
    g, aug = ga
    assert verify_augmentation(g, aug) == reference_verify_augmentation(g, aug)


@given(graphs_with_ordering(max_n=9), st.integers(1, 4), perturbed_augmentations())
@settings(max_examples=200, deadline=None)
def test_indegree_profile_matches_reference(gw, r, ga):
    g, ordering = gw
    for aug in (augment_from_ordering(g, ordering, r), ga[1]):
        assert indegree_profile(aug) == reference_indegree_profile(aug)


def test_large_degenerate_graph_matches_reference():
    g, _ = random_degenerate_graph(600, 2, 11)
    order, d = reference_peel(g.adj)
    ordering = heuristic_ordering(g)
    assert ordering == Ordering.from_rank_sequence(order)
    aug = augment_from_ordering(g, ordering, 2)
    # wcol_1 of a smallest-last ordering is 1 + the degeneracy
    assert indegree_profile(aug).delta[1] == d + 1
    assert verify_augmentation(g, aug) == reference_verify_augmentation(g, aug)
    assert indegree_profile(aug) == reference_indegree_profile(aug)
    # every 40th vertex loses its non-loop in-arcs
    arcs = tuple(((v, 0),) if v % 40 == 0 else a for v, a in enumerate(aug.in_arcs))
    broken = Augmentation(g, 2, arcs)
    report = verify_augmentation(g, broken)
    assert not report.ok
    assert report == reference_verify_augmentation(g, broken)


def test_multiword_grid_r4_matches_reference():
    # n = 400: every distance mask spans several machine words
    g = grid_graph(20, 20)
    aug = augment_from_ordering(g, heuristic_ordering(g), 4)
    report = verify_augmentation(g, aug)
    assert report.ok
    assert report == reference_verify_augmentation(g, aug)
    # every 37th vertex loses its non-loop in-arcs, and every 53rd gets an
    # arc of length 1 from a vertex 3 ids on, which is never adjacent
    arcs = [dict(a) for a in aug.in_arcs]
    for v in range(0, g.n, 37):
        arcs[v] = {v: 0}
    for v in range(0, g.n - 3, 53):
        arcs[v][v + 3] = 1
    broken = Augmentation(g, 4, tuple(tuple(sorted(a.items())) for a in arcs))
    report = verify_augmentation(g, broken)
    assert not report.ok
    assert {kind for *_, kind in report.violations} == {
        "inneighbor-sum below distance", "no common inneighbor within distance"}
    assert report == reference_verify_augmentation(g, broken)
