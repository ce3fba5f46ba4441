"""r-augmentations: oriented supergraphs with arc lengths satisfying
the loop and distance-representation conditions, plus indegree statistics."""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, or_, xor
from typing import Iterable

from .graph import Graph
from .ordering import Ordering, WeakReachProfile, weak_reach


@dataclass(frozen=True)
class Augmentation:
    """Directed arc system over the vertices of base, with lengths rho.

    in_arcs[v] lists (tail, rho) pairs sorted by tail; every vertex has
    its loop arc (v, 0) and every non-loop arc has rho in 1..r.
    """

    base: Graph
    r: int
    in_arcs: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        n = self.base.n
        if self.r < 1:
            raise ValueError("r must be positive")
        if len(self.in_arcs) != n:
            raise ValueError("in_arcs length must equal n")
        for v, arcs in enumerate(self.in_arcs):
            tails = [t for t, _ in arcs]
            if len(set(tails)) != len(tails):
                raise ValueError(f"duplicate arc into {v}")
            if (v, 0) not in arcs:
                raise ValueError(f"missing loop of length 0 at {v}")
            for t, rho in arcs:
                if not 0 <= t < n:
                    raise ValueError(f"arc tail {t} out of range")
                if t == v:
                    if rho != 0:
                        raise ValueError(f"loop at {v} must have length 0")
                elif not 1 <= rho <= self.r:
                    raise ValueError(f"arc {t}->{v} length {rho} outside 1..{self.r}")

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class IndegreeProfile:
    """delta[r'] is the largest number of in-arcs of length <= r' (loop
    included) into one vertex; 1 on the empty graph."""

    r: int
    delta: tuple[int, ...]


def indegree_profile(aug: Augmentation) -> IndegreeProfile:
    # one pass counts the in-arcs of each length; the in-degrees at r'
    # are then the prefix sums of those counts over lengths 0..r'
    counts = [[0] * aug.n for _ in range(aug.r + 1)]
    for v, arcs in enumerate(aug.in_arcs):
        for _t, rho in arcs:
            counts[rho][v] += 1
    deg = [0] * aug.n
    delta = []
    for at_rho in counts:
        deg = list(map(add, deg, at_rho))
        delta.append(max(deg, default=1))
    return IndegreeProfile(aug.r, tuple(delta))


def augmentation_from_profile(g: Graph, profile: WeakReachProfile,
                              r: int) -> Augmentation:
    """Arcs u->v for u in Q_r(v), with rho = min r' such that u in Q_{r'}(v).

    At r = K the in-arc lists are the profile's own pair lists; at r < K
    they keep the pairs with rho <= r, so both augmentations share one set
    of pair tuples."""
    if r > profile.K:
        raise ValueError(f"profile only covers k <= {profile.K}")
    arcs = profile.min_reach
    if r < profile.K:
        arcs = tuple([tuple([p for p in pairs if p[1] <= r]) for pairs in arcs])
    return Augmentation(g, r, arcs)


def augment_from_ordering(g: Graph, ordering: Ordering, r: int) -> Augmentation:
    """The canonical augmentation of an ordering; its Delta_{r'} values
    coincide with the weak r'-coloring numbers of the ordering."""
    if r < 1:
        raise ValueError("r must be positive")
    return augmentation_from_profile(g, weak_reach(g, ordering, r), r)


def orientation_augmentation(g: Graph, orientation: Iterable[tuple[int, int]]) -> Augmentation:
    """1-augmentation from an edge orientation: each oriented edge gets
    length 1 and every vertex a loop of length 0."""
    seen = set()
    arcs: list[list[tuple[int, int]]] = [[(v, 0)] for v in range(g.n)]
    for u, v in orientation:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"orientation covers edge {key} twice")
        if not (0 <= u < g.n and 0 <= v < g.n) or v not in g.adj[u]:
            raise ValueError(f"oriented pair ({u},{v}) is not an edge")
        seen.add(key)
        arcs[v].append((u, 1))
    missing = [(u, v) for u in range(g.n) for v in g.adj[u]
               if u < v and (u, v) not in seen]
    if missing:
        raise ValueError(f"orientation misses edges, e.g. {missing[0]}")
    return Augmentation(g, 1, tuple([tuple(sorted(a)) for a in arcs]))


@dataclass(frozen=True)
class AugmentationReport:
    ok: bool
    violations: tuple[tuple, ...]


def verify_augmentation(g: Graph, aug: Augmentation) -> AugmentationReport:
    """Check the loop and distance conditions for every pair of vertices.

    For every pair (u, v) and every r' <= r, distance_G(u, v) <= r' must
    hold iff some common inneighbor x has rho(xu) + rho(xv) <= r'.
    Violations are reported as (u, v, r', direction) tuples, ordered by
    (u, v).

    Both sides are compared level by level as bitmasks over the vertices.
    For every vertex u and level k <= r, D_k[u] holds the vertices within
    distance k of u (k rounds of ORs over the neighbours' masks) and B_k[u]
    the vertices v with a common inneighbor x at rho(xu) + rho(xv) <= k
    (the OR, over the in-arcs x->u, of the heads of x's arcs of length
    <= k - rho(xu)).  The two sides agree at u iff D_k[u] == B_k[u] for
    every k.  The masks cost (r+1)(n + m + arcs) ORs, and 2(r+1)n masks
    of up to n bits each are held at once.  Only a vertex whose masks
    differ goes pair by pair, over the vertices v where they differ: the
    distance and the least sum of (u, v) are the least levels that hold v
    on each side, r+1 when none does.
    """
    if aug.base is not g:
        if aug.base.adj != g.adj or aug.base.n != g.n:
            raise ValueError("augmentation built over a different graph")
    n = g.n
    r = aug.r
    cap = r + 1
    in_arcs = aug.in_arcs

    # heads[x][j]: the heads v of the arcs x->v with rho <= j
    heads = [[0] * cap for _ in range(n)]
    for v, arcs in enumerate(in_arcs):
        bit = 1 << v
        for t, rho in arcs:
            heads[t][rho] |= bit
    for row in heads:
        for j in range(1, cap):
            row[j] |= row[j - 1]
    near = [[1 << u for u in range(n)]]
    for _ in range(r):
        prev = near[-1]
        near.append([reduce(or_, map(prev.__getitem__, nbrs), prev[u])
                     for u, nbrs in enumerate(g.adj)])
    violations: list[tuple] = []
    for u, arcs in enumerate(in_arcs):
        sums = [0] * cap
        for x, a in arcs:
            row = heads[x]
            for k in range(a, cap):
                sums[k] |= row[k - a]
        dists = [level[u] for level in near]
        if sums == dists:
            continue
        # the least level of v on each side, cap when v is on neither
        differ = reduce(or_, map(xor, sums, dists))
        while differ:
            bit = differ & -differ
            differ ^= bit
            v = bit.bit_length() - 1
            d = next((k for k, m in enumerate(dists) if m & bit), cap)
            b = next((k for k, m in enumerate(sums) if m & bit), cap)
            if b < d:
                violations.append((u, v, b, "inneighbor-sum below distance"))
            else:
                violations.append((u, v, d, "no common inneighbor within distance"))
    return AugmentationReport(not violations, tuple(violations))
