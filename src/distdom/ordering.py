"""Vertex orderings, weak k-accessibility sets and weak coloring numbers."""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add

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

    @staticmethod
    def from_rank_sequence(seq) -> "Ordering":
        seq = list(seq)
        pos = [0] * len(seq)
        for rank, v in enumerate(seq):
            pos[v] = rank
        return Ordering(tuple(pos))


@dataclass(frozen=True)
class WeakReachProfile:
    """Weak k-accessibility data of one ordering, for all k = 0..K at once.

    min_reach[v] lists the (u, k) pairs, sorted by u, where k is the least
    radius at which u is weakly k-accessible from v: Q_k(v) is the set of
    u with a pair k' <= k.  It is the in-arc list of v in the
    K-augmentation of the ordering, and one pair tuple serves every vertex
    that reaches the same u at the same radius.  wcols[k] is
    max_v |Q_k(v)|, 0 on the empty graph.
    """

    K: int
    min_reach: tuple[tuple[tuple[int, int], ...], ...]
    wcols: tuple[int, ...]

    def _check_k(self, k: int) -> None:
        if not 0 <= k <= self.K:
            raise ValueError(f"k={k} outside computed range 0..{self.K}")

    def q_count(self, v: int, k: int) -> int:
        self._check_k(k)
        return sum(1 for _u, d in self.min_reach[v] if d <= k)

    def wcol(self, k: int) -> int:
        self._check_k(k)
        return self.wcols[k]


def weak_reach(g: Graph, ordering: Ordering, K: int) -> WeakReachProfile:
    """Compute Q_k(v) for every vertex and every k <= K.

    u is weakly k-accessible from v when some path of length <= k joins
    them and every vertex on the path ranks at least as high as u.  One
    BFS per candidate minimum u, restricted to ranks >= position[u],
    discovers all v with u in Q_k(v).  The candidates go by increasing id,
    so every vertex's pair list comes out sorted by u without a sort, and
    the same pass counts each vertex's pairs per radius for wcol_k.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    pos = ordering.position
    adj = g.adj
    n = g.n
    reach: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # at_radius[d][v]: the number of pairs (u, d) of v
    at_radius = [[1] * n] + [[0] * n for _ in range(K)]
    seen_from = [-1] * n
    for u in range(n):
        base = pos[u]
        reach[u].append((u, 0))
        seen_from[u] = u
        frontier = [u]
        for d in range(1, K + 1):
            pair = (u, d)
            count = at_radius[d]
            found = []
            for w in frontier:
                for x in adj[w]:
                    if seen_from[x] != u and pos[x] >= base:
                        seen_from[x] = u
                        found.append(x)
                        reach[x].append(pair)
                        count[x] += 1
            if not found:
                break
            frontier = found
    wcols = []
    q = [0] * n
    for count in at_radius:
        q = list(map(add, q, count))
        wcols.append(max(q, default=0))
    return WeakReachProfile(K, tuple(map(tuple, reach)), tuple(wcols))


def wcol_of_ordering(g: Graph, ordering: Ordering, k: int) -> int:
    """Weak k-coloring number of the ordering: max_v |Q_k(v)|."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return weak_reach(g, ordering, k).wcol(k)


def heuristic_ordering(g: Graph, strategy: str = "degeneracy") -> Ordering:
    """Orderings to feed the augmentation builder.

    degeneracy: repeatedly place a minimum-degree vertex of the remaining
    graph last (ties to the smallest id).  descending-degree: sort by
    degree, largest first.  input-order: the identity.
    """
    if strategy == "degeneracy":
        return Ordering.from_rank_sequence(_peel(g.adj))
    if strategy == "descending-degree":
        seq = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        return Ordering.from_rank_sequence(seq)
    if strategy == "input-order":
        return Ordering.from_rank_sequence(range(g.n))
    raise ValueError(f"unknown ordering strategy {strategy!r}")


def _peel(adj) -> list[int]:
    """Smallest-last peeling of the graph on 0..len(adj)-1 with adjacency
    adj: repeatedly remove a vertex of minimum remaining degree, ties to
    the smallest id.  Returns the ordering front-to-back.

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
    while heap:
        _dv, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        alive[v] = False
        tail.append(v)
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    tail.reverse()
    return tail
