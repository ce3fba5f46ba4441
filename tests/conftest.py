import pytest
from hypothesis import strategies as st

from distdom.graph import from_edges


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Small random simple graphs."""
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True,
                              max_size=len(possible)))
    else:
        edges = []
    return from_edges(n, edges)


def cover(g, r, mode="exact-rational"):
    """The covering optimum as analyze gets it: from the packing dual."""
    from distdom.graph import all_balls
    from distdom.lp import covering_from_packing, independence_lp, solve
    return covering_from_packing(all_balls(g, r),
                                 solve(independence_lp(all_balls(g, r)), mode))


@st.composite
def graphs_with_ordering(draw, min_n=1, max_n=8):
    from distdom.ordering import Ordering
    g = draw(graphs(min_n=min_n, max_n=max_n))
    seq = draw(st.permutations(list(range(g.n))))
    return g, Ordering.from_rank_sequence(seq)


def q_set(profile, v: int, k: int) -> frozenset:
    """Q_k(v) of a weak-reach profile: the u with a pair of radius <= k."""
    if not 0 <= k <= profile.K:
        raise ValueError(f"k={k} outside computed range 0..{profile.K}")
    return frozenset(u for u, d in profile.min_reach[v] if d <= k)


@pytest.fixture
def path3():
    return from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def path5():
    return from_edges(5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def cycle5():
    return from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture
def cycle6():
    return from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def star5():
    # K_{1,4}, center 0
    return from_edges(5, [(0, i) for i in range(1, 5)])


@pytest.fixture
def k4():
    return from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def grid33():
    from distdom.instances import grid_graph
    return grid_graph(3, 3)


@pytest.fixture
def triangle_hypergraph():
    from distdom.independence import Hypergraph
    return Hypergraph(3, (frozenset({0, 1}), frozenset({1, 2}),
                          frozenset({0, 2})))
