"""Smallest-last peeling, the augmentation check and the in-degree
profile before they became near-linear: a minimum over all live vertices
at every peeling step, two dense n x n tables compared pair by pair, and
one pass over all arcs per length bound.  Kept as the reference that
distdom.ordering._peel, distdom.augment.verify_augmentation and
distdom.augment.indegree_profile must match element for element."""
from __future__ import annotations

from collections import deque

from distdom.augment import Augmentation, AugmentationReport, IndegreeProfile
from distdom.graph import Graph


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
    out = aug.out_arcs()
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
    deg = []
    for rp in range(aug.r + 1):
        deg.append(tuple([sum(1 for _, rho in arcs if rho <= rp)
                          for arcs in aug.in_arcs]))
    delta = tuple([max(row) if row else 1 for row in deg])
    return IndegreeProfile(aug.r, tuple(deg), delta)
