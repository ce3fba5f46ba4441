"""Vertex orderings, weak k-accessibility sets and weak coloring numbers."""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class Ordering:
    """Permutation of the vertex set; position[v] is the rank of v."""

    position: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.position) != list(range(len(self.position))):
            raise ValueError("position must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.position)

    @property
    def by_rank(self) -> tuple[int, ...]:
        """Vertex ids in rank order (rank 0 first)."""
        out = [0] * self.n
        for v, p in enumerate(self.position):
            out[p] = v
        return tuple(out)

    def to_json(self) -> str:
        return json.dumps(list(self.by_rank))

    @staticmethod
    def from_rank_sequence(seq) -> "Ordering":
        seq = list(seq)
        pos = [0] * len(seq)
        for rank, v in enumerate(seq):
            pos[v] = rank
        return Ordering(tuple(pos))

    @staticmethod
    def from_json(text: str) -> "Ordering":
        return Ordering.from_rank_sequence(json.loads(text))


@dataclass(frozen=True)
class WeakReachProfile:
    """Weak k-accessibility data of one ordering, for all k = 0..K at once.

    min_reach[v] maps u -> the least k such that u is weakly k-accessible
    from v; Q_k(v) and the wcol_k values of the ordering derive from it.
    """

    K: int
    min_reach: tuple[dict, ...]

    def q_set(self, v: int, k: int) -> frozenset:
        if not 0 <= k <= self.K:
            raise ValueError(f"k={k} outside computed range 0..{self.K}")
        return frozenset(u for u, d in self.min_reach[v].items() if d <= k)

    def q_count(self, v: int, k: int) -> int:
        if not 0 <= k <= self.K:
            raise ValueError(f"k={k} outside computed range 0..{self.K}")
        return sum(1 for d in self.min_reach[v].values() if d <= k)

    def wcol(self, k: int) -> int:
        return max((self.q_count(v, k) for v in range(len(self.min_reach))),
                   default=0)


def weak_reach(g: Graph, ordering: Ordering, K: int) -> WeakReachProfile:
    """Compute Q_k(v) for every vertex and every k <= K.

    u is weakly k-accessible from v when some path of length <= k joins
    them and every vertex on the path ranks at least as high as u.  One
    BFS per candidate minimum u, restricted to ranks >= position[u],
    discovers all v with u in Q_k(v).
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    pos = ordering.position
    min_reach: tuple[dict, ...] = tuple([{} for _ in range(g.n)])
    for u in range(g.n):
        base = pos[u]
        dist = {u: 0}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            if dist[w] == K:
                continue
            for x in g.adj[w]:
                if x not in dist and pos[x] >= base:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        for w, d in dist.items():
            min_reach[w][u] = d
    return WeakReachProfile(K, min_reach)


def wcol_of_ordering(g: Graph, ordering: Ordering, k: int) -> int:
    """Weak k-coloring number of the ordering: max_v |Q_k(v)|."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return weak_reach(g, ordering, k).wcol(k)


def degeneracy(g: Graph) -> int:
    """Max over the peeling process of the minimum remaining degree."""
    return _peel(g.adj)[1]


def heuristic_ordering(g: Graph, strategy: str = "degeneracy") -> Ordering:
    """Orderings to feed the augmentation builder.

    degeneracy: repeatedly place a minimum-degree vertex of the remaining
    graph last (ties to the smallest id).  descending-degree: sort by
    degree, largest first.  input-order: the identity.
    """
    if strategy == "degeneracy":
        return Ordering.from_rank_sequence(_peel(g.adj)[0])
    if strategy == "descending-degree":
        seq = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        return Ordering.from_rank_sequence(seq)
    if strategy == "input-order":
        return Ordering.from_rank_sequence(range(g.n))
    raise ValueError(f"unknown ordering strategy {strategy!r}")


def _peel(adj) -> tuple[list[int], int]:
    """Smallest-last peeling of the graph on 0..len(adj)-1 with adjacency
    adj: repeatedly remove a vertex of minimum remaining degree, ties to
    the smallest id.  Returns (ordering front-to-back, degeneracy).

    A heap of (degree, id) entries with lazy deletion: a vertex gets a new
    entry whenever its degree drops, and popped entries of removed
    vertices are skipped.  Degrees only fall, so a live vertex's entry for
    its current degree is smaller than its out-of-date ones and comes off
    the heap first; the top live entry is therefore the least
    (degree, id) pair.  O(m log n) for m edges.
    """
    n = len(adj)
    deg = [len(a) for a in adj]
    alive = [True] * n
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapq.heapify(heap)
    tail: list[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        d = max(d, dv)
        alive[v] = False
        tail.append(v)
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    tail.reverse()
    return tail, d
