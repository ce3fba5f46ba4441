"""Smallest-last peeling, the augmentation builder and check and the
in-degree profile before they became near-linear: a minimum over all live
vertices at every peeling step, a sorted arc list per vertex and
augmentation, two dense n x n tables compared pair by pair, and one pass
over all arcs per length bound.  Kept as the reference that
distdom.ordering._peel, distdom.augment.augmentation_from_profile,
distdom.augment.verify_augmentation and distdom.augment.indegree_profile
must match element for element."""
from __future__ import annotations

from collections import deque

from distdom.augment import Augmentation, AugmentationReport, IndegreeProfile
from distdom.graph import Graph
from distdom.ordering import WeakReachProfile


def reference_peel(adj) -> tuple[list[int], int]:
    """Smallest-last peeling of the graph on 0..len(adj)-1 with adjacency
    adj: repeatedly remove a vertex of minimum remaining degree, ties to
    the smallest id.  Returns (ordering front-to-back, degeneracy)."""
    n = len(adj)
    deg = [len(a) for a in adj]
    alive = [True] * n
    tail: list[int] = []
    d = 0
    for _ in range(n):
        v = min((u for u in range(n) if alive[u]), key=lambda u: (deg[u], u))
        d = max(d, deg[v])
        alive[v] = False
        tail.append(v)
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
    tail.reverse()
    return tail, d


def reference_min_reach(g: Graph, position, K: int) -> list[dict[int, int]]:
    """For every vertex v, u -> the least k <= K such that u is weakly
    k-accessible from v, by walks out of v: after i steps, best[x] is the
    largest least rank over the walks of length i from v to x, and u is
    reached once that least rank is u's own."""
    out = []
    for v in range(g.n):
        best = {v: position[v]}
        reach = {v: 0}
        for i in range(1, K + 1):
            step: dict[int, int] = {}
            for w, low in best.items():
                for x in g.adj[w]:
                    b = min(low, position[x])
                    if b > step.get(x, -1):
                        step[x] = b
            best = step
            for x, b in step.items():
                if b == position[x] and x not in reach:
                    reach[x] = i
        out.append(reach)
    return out


def reference_arcs_from_profile(profile: WeakReachProfile, r: int):
    """The in-arc lists of the r-augmentation: for every vertex, its
    (u, rho) pairs with rho <= r, sorted on their own."""
    return tuple([tuple(sorted((u, d) for u, d in dict(pairs).items() if d <= r))
                  for pairs in profile.min_reach])


def out_arcs(aug: Augmentation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Arcs grouped by tail: out[u] lists (head, rho)."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(aug.n)]
    for v, arcs in enumerate(aug.in_arcs):
        for t, rho in arcs:
            out[t].append((v, rho))
    return tuple([tuple(sorted(a)) for a in out])


def reference_verify_augmentation(g: Graph, aug: Augmentation) -> AugmentationReport:
    """Exhaustively check the loop and distance conditions.

    For every pair (u, v) and every r' <= r, distance_G(u, v) <= r' must
    hold iff some common inneighbor x has rho(xu) + rho(xv) <= r'.
    Violations are reported as (u, v, r', direction) tuples.
    """
    if aug.base is not g:
        if aug.base.adj != g.adj or aug.base.n != g.n:
            raise ValueError("augmentation built over a different graph")
    n = g.n
    r = aug.r
    violations: list[tuple] = []

    # truncated BFS distances, capped at r+1
    capped_dist = [[r + 1] * n for _ in range(n)]
    for s in range(n):
        row = capped_dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            w = queue.popleft()
            if row[w] == r:
                continue
            for x in g.adj[w]:
                if row[x] > row[w] + 1:
                    row[x] = row[w] + 1
                    queue.append(x)

    # best common-inneighbor length sum, capped at r+1
    best = [[r + 1] * n for _ in range(n)]
    out = out_arcs(aug)
    for x in range(n):
        for u, rho_u in out[x]:
            row = best[u]
            for v, rho_v in out[x]:
                s = rho_u + rho_v
                if s < row[v]:
                    row[v] = s
    for u in range(n):
        for v in range(n):
            d, b = capped_dist[u][v], best[u][v]
            if d == b:
                continue
            if b < d:
                violations.append((u, v, b, "inneighbor-sum below distance"))
            else:
                violations.append((u, v, d, "no common inneighbor within distance"))
    return AugmentationReport(not violations, tuple(violations))


def reference_indegree_profile(aug: Augmentation) -> IndegreeProfile:
    delta = []
    for rp in range(aug.r + 1):
        deg = [sum(1 for _, rho in arcs if rho <= rp) for arcs in aug.in_arcs]
        delta.append(max(deg) if deg else 1)
    return IndegreeProfile(aug.r, tuple(delta))
