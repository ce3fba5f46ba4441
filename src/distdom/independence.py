"""(2r,b)-independent sets via inneighbor hypergraphs and k-matchings,
followed by degeneracy-coloring sparsification to 2r-independent sets."""
from __future__ import annotations

from dataclasses import dataclass

from .augment import Augmentation
from .augment import indegree_profile  # unused; a patch point of perfbench/tracer.py
from .graph import VertexSet
from .graph import all_balls  # unused; a patch point of perfbench/tracer.py
from .lp import LpSolution, threshold
from .lp import solve  # unused; a patch point of perfbench/tracer.py
from .ordering import _peel


@dataclass(frozen=True)
class Hypergraph:
    """Edge i is edges[i]; two edges may coincide as sets."""

    nv: int
    edges: tuple[frozenset, ...]

    def __post_init__(self):
        for i, members in enumerate(self.edges):
            if not members:
                raise ValueError(f"edge {i} is empty")
            if any(not 0 <= v < self.nv for v in members):
                raise ValueError(f"edge {i} has out-of-range members")


def _vertex_counts(h: Hypergraph, selected) -> dict[int, int]:
    """The number of selected edges at each vertex they touch."""
    counts: dict[int, int] = {}
    for i in selected:
        for v in h.edges[i]:
            counts[v] = counts.get(v, 0) + 1
    return counts


def is_b_matching(h: Hypergraph, selected, b: int) -> bool:
    return all(c <= b for c in _vertex_counts(h, selected).values())


def inneighbor_hypergraph(aug: Augmentation) -> Hypergraph:
    """Edge u holds the inneighbors of u (u included via its loop).  Every
    edge has size at most Delta_r."""
    return Hypergraph(aug.n, tuple([
        frozenset([t for t, _rho in arcs]) for arcs in aug.in_arcs]))


def matching_solution_from_packing(h: Hypergraph, y: LpSolution) -> LpSolution:
    """A ball-packing optimum read as a fractional 1-matching of the
    inneighbor hypergraph: m_{e_u} = y_u, feasible by construction."""
    if y.status != "optimal" or y.values is None:
        raise ValueError("need an optimal packing solution")
    if len(y.values) != len(h.edges):
        raise ValueError("need one packing value per edge")
    return y


def _greedy_extend(h: Hypergraph, k: int, selected: set) -> set:
    counts = _vertex_counts(h, selected)
    for i, members in enumerate(h.edges):
        if i in selected:
            continue
        if all(counts.get(v, 0) < k for v in members):
            selected.add(i)
            for v in members:
                counts[v] = counts.get(v, 0) + 1
    return selected


def extract_kmatching(h: Hypergraph, k: int, m: LpSolution) -> frozenset:
    """Indices of the edges of a maximal k-matching M, from a feasible
    fractional 1-matching m: the edges with m_e >= 1/k, extended greedily.

    The threshold edges form a k-matching, since m puts at most 1 on the
    edges at a vertex.  The charging argument of Bansal and Umboh (IPL
    2017) then gives 2|M| >= sum(m) for any maximal k-matching M:
    - each edge e_u of the inneighbor hypergraph has |e_u| <= Delta_r = k;
    - m is a fractional 1-matching, and m_e <= 1, so the edges of M carry
      at most |M|;
    - let S be the vertices that lie in exactly k edges of M; every edge
      outside M meets S, so sum_{e not in M} m_e <= |S|;
    - k|S| <= sum_{e in M} |e| <= k|M|, so |S| <= |M|;
    - hence sum(m) <= |M| + |S| <= 2|M|.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m.status != "optimal" or m.values is None or len(m.values) != len(h.edges):
        raise ValueError("need an optimal fractional matching over h's edges")
    cut = threshold(m, k)
    selected = {i for i, val in enumerate(m.values) if val >= cut}
    selected = _greedy_extend(h, k, selected)
    assert is_b_matching(h, selected, k)
    return frozenset(selected)


@dataclass(frozen=True)
class IndependenceCertificate:
    ok: bool
    worst_vertex: int | None
    count: int


def certify_2rb_independent(balls: list[VertexSet], y: VertexSet,
                            b: int) -> IndependenceCertificate:
    """ok iff every ball of the table balls = all_balls(g, r) contains at
    most b members of y."""
    counts = [len(ball_v & y) for ball_v in balls]
    if not counts:
        return IndependenceCertificate(True, None, 0)
    worst = max(range(len(counts)), key=counts.__getitem__)
    return IndependenceCertificate(counts[worst] <= b, worst, counts[worst])


def _conflict_adjacency(balls: list[VertexSet], ys: list[int]) -> list[set[int]]:
    """Conflict graph on the indices of ys: i and j are adjacent when
    ys[i] and ys[j] are at distance <= 2r, that is, when some ball of the
    table balls = all_balls(g, r) holds both (the middle vertex of a
    shortest path is within r of each end)."""
    index = {v: i for i, v in enumerate(ys)}
    members = frozenset(ys)
    adj: list[set[int]] = [set() for _ in ys]
    for ball_v in balls:
        hit = [index[v] for v in ball_v & members]
        if len(hit) > 1:
            for i in hit:
                adj[i].update(hit)
    for i, nbrs in enumerate(adj):
        nbrs.discard(i)
    return adj


def sparsify_to_independent(balls: list[VertexSet], y: VertexSet, b: int,
                            d: int) -> VertexSet:
    """Largest color class of a degeneracy coloring of the conflict graph.

    balls is the ball table all_balls(g, r), y must be (2r,b)-independent
    and d = b * Delta_2r.  The conflict graph is then (2d-1)-degenerate,
    so the coloring uses at most 2d colors and the result has size
    >= |y| / (2d) and pairwise distances > 2r.
    """
    cert = certify_2rb_independent(balls, y, b)
    if not cert.ok:
        raise ValueError(
            f"y is not (2r,{b})-independent: ball of {cert.worst_vertex} "
            f"meets it {cert.count} times")
    if not y:
        return frozenset()
    ys = sorted(y)
    adj = _conflict_adjacency(balls, ys)

    # smallest-last coloring; indices follow ys, so ties go to the smallest id
    color: dict[int, int] = {}
    for i in _peel(adj):
        used = {color[j] for j in adj[i] if j in color}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    ncolors = max(color.values()) + 1
    assert ncolors <= 2 * d, f"coloring used {ncolors} > 2d = {2 * d} colors"
    classes: dict[int, set] = {}
    for i, c in color.items():
        classes.setdefault(c, set()).add(ys[i])
    best_c = max(classes, key=lambda c: (len(classes[c]), -c))
    return frozenset(classes[best_c])
