"""Instance generators: the H^(r) lower-bound constructions, hard covering
hypergraphs, and the random/structured benchmark families."""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, from_edges, to_json
from .independence import Hypergraph
from .ordering import Ordering

ROLE_HYPER_VERTEX = "hyper-vertex"
ROLE_HYPER_EDGE = "hyper-edge"
ROLE_SUBDIVISION = "subdivision"
ROLE_APEX = "apex"
ROLE_APEX_PATH = "apex-path"


@dataclass(frozen=True)
class LabeledConstruction:
    graph: Graph
    roles: tuple[str, ...]
    hyperedge_map: dict  # hyper-edge vertex id -> index of its edge in h
    apex: int
    r: int

    def to_json(self) -> str:
        extra = {
            "roles": list(self.roles),
            "hyperedge_map": {str(k): v for k, v in sorted(self.hyperedge_map.items())},
            "apex": self.apex,
            "r": self.r,
        }
        return to_json(self.graph, extra)


def build_h_r(h: Hypergraph, r: int) -> LabeledConstruction:
    """Incidence graph of h with every incidence edge subdivided r-1 times,
    plus an apex joined by internally disjoint length-r paths to every
    vertex outside the original hypergraph vertex set."""
    if r < 1:
        raise ValueError("r must be positive")
    if not h.edges:
        raise ValueError("hypergraph has no edges")
    roles: list[str] = [ROLE_HYPER_VERTEX] * h.nv
    # edge i of h becomes vertex h.nv + i
    roles += [ROLE_HYPER_EDGE] * len(h.edges)
    hyperedge_map = {h.nv + i: i for i in range(len(h.edges))}

    edges: list[tuple[int, int]] = []

    def subdivided_path(u: int, v: int, internal: int, role: str):
        prev = u
        for _ in range(internal):
            w = len(roles)
            roles.append(role)
            edges.append((prev, w))
            prev = w
        edges.append((prev, v))

    # incidence paths, in edge order then member order
    for i, members in enumerate(h.edges):
        for v in sorted(members):
            subdivided_path(v, h.nv + i, r - 1, ROLE_SUBDIVISION)

    # apex paths to every non-hypergraph vertex created so far
    targets = [v for v in range(len(roles)) if roles[v] not in (ROLE_HYPER_VERTEX,)]
    apex = len(roles)
    roles.append(ROLE_APEX)
    for t in targets:
        subdivided_path(apex, t, r - 1, ROLE_APEX_PATH)

    g = from_edges(len(roles), edges)
    return LabeledConstruction(g, tuple(roles), hyperedge_map, apex, r)


def canonical_ordering(c: LabeledConstruction) -> Ordering:
    """Apex first, then hypergraph vertices, then edge vertices, then the
    rest; ascending ids within each block."""
    def block(v: int) -> int:
        role = c.roles[v]
        if role == ROLE_APEX:
            return 0
        if role == ROLE_HYPER_VERTEX:
            return 1
        if role == ROLE_HYPER_EDGE:
            return 2
        return 3

    seq = sorted(range(c.graph.n), key=lambda v: (block(v), v))
    return Ordering.from_rank_sequence(seq)


def clique_hypergraph(n: int) -> Hypergraph:
    """All C(n,2) pair-edges of the complete graph on n vertices."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return Hypergraph(n, tuple([frozenset(pair)
                                for pair in combinations(range(n), 2)]))


def covering_hard_hypergraph(n: int) -> Hypergraph:
    """Vertices are the (n+1)/2-subsets of {1..n}; edge i collects the
    subsets containing i.  No (n-1)/2 edges cover all vertices, yet the
    fractional cover is at most n / ((n+1)/2)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    subsets = list(combinations(range(1, n + 1), (n + 1) // 2))
    edges = tuple([frozenset([j for j, s in enumerate(subsets) if i in s])
                   for i in range(1, n + 1)])
    return Hypergraph(len(subsets), edges)


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return from_edges(rows * cols, edges)


def random_degenerate_graph(n: int, d: int, seed: int) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Insert vertices one by one, each adjacent to at most d random
    predecessors.  Returns the graph and a certified orientation
    (predecessor -> new vertex) of maximum indegree at most d."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    orientation: list[tuple[int, int]] = []
    for v in range(1, n):
        count = min(v, rng.randint(1, d))
        for u in sorted(rng.sample(range(v), count)):
            edges.append((u, v))
            orientation.append((u, v))
    return from_edges(n, edges), tuple(orientation)

