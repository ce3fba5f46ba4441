"""r-augmentations: oriented supergraphs with arc lengths satisfying
the loop and distance-representation conditions, plus indegree statistics."""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .graph import Graph, _bfs
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

    def out_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Arcs grouped by tail: out[u] lists (head, rho)."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for v, arcs in enumerate(self.in_arcs):
            for t, rho in arcs:
                out[t].append((v, rho))
        return tuple([tuple(sorted(a)) for a in out])


@dataclass(frozen=True)
class IndegreeProfile:
    """deg[r'][v] = number of in-arcs of v with length <= r' (loop included);
    delta[r'] is its maximum over v."""

    r: int
    deg: tuple[tuple[int, ...], ...]
    delta: tuple[int, ...]


def indegree_profile(aug: Augmentation) -> IndegreeProfile:
    deg = []
    for rp in range(aug.r + 1):
        deg.append(tuple([sum(1 for _, rho in arcs if rho <= rp)
                          for arcs in aug.in_arcs]))
    delta = tuple([max(row) if row else 1 for row in deg])
    return IndegreeProfile(aug.r, tuple(deg), delta)


def _arcs_from_profile(profile: WeakReachProfile, r: int):
    return tuple([tuple(sorted((u, d) for u, d in mr.items() if d <= r))
                  for mr in profile.min_reach])


def augmentation_from_profile(g: Graph, profile: WeakReachProfile,
                              r: int) -> Augmentation:
    """Arcs u->v for u in Q_r(v), with rho = min r' such that u in Q_{r'}(v)."""
    if r > profile.K:
        raise ValueError(f"profile only covers k <= {profile.K}")
    return Augmentation(g, r, _arcs_from_profile(profile, r))


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

    Both sides are compared capped at r+1, and only values <= r are
    stored: best[u] maps v to the least rho(xu) + rho(xv) <= r, and row u
    of the distances is the BFS ball of radius r around u.  A pair absent
    from both agrees at r+1, so every pair is still decided.  Each tail's
    out-arcs are scanned in order of rho and the scan stops once a sum
    exceeds r.  The cost is the number of arc pairs with a sum <= r plus
    the sizes of the radius-r balls, instead of n^2.
    """
    if aug.base is not g:
        if aug.base.adj != g.adj or aug.base.n != g.n:
            raise ValueError("augmentation built over a different graph")
    n = g.n
    r = aug.r
    cap = r + 1
    violations: list[tuple] = []

    best: list[dict[int, int]] = [{} for _ in range(n)]
    for arcs in aug.out_arcs():
        by_rho = sorted(arcs, key=itemgetter(1))
        for u, rho_u in by_rho:
            row = best[u]
            for v, rho_v in by_rho:
                s = rho_u + rho_v
                if s > r:
                    break
                if s < row.get(v, cap):
                    row[v] = s
    for u in range(n):
        dist = _bfs(g, u, r)
        row = best[u]
        if dist == row:
            continue
        for v in sorted(dist.keys() | row.keys()):
            d, b = dist.get(v, cap), row.get(v, cap)
            if d == b:
                continue
            if b < d:
                violations.append((u, v, b, "inneighbor-sum below distance"))
            else:
                violations.append((u, v, d, "no common inneighbor within distance"))
    return AugmentationReport(not violations, tuple(violations))


def aug_to_json(aug: Augmentation) -> str:
    arcs = [[t, v, rho] for v, alist in enumerate(aug.in_arcs) for t, rho in alist]
    arcs.sort()
    return json.dumps({"r": aug.r, "arcs": arcs}, separators=(",", ":"))


def aug_from_json(g: Graph, text: str) -> Augmentation:
    obj = json.loads(text)
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for t, v, rho in obj["arcs"]:
        arcs[v].append((t, rho))
    return Augmentation(g, int(obj["r"]), tuple(tuple(sorted(a)) for a in arcs))
