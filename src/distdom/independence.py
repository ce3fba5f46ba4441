"""(2r,b)-independent sets via inneighbor hypergraphs and k-matchings,
followed by degeneracy-coloring sparsification to 2r-independent sets."""
from __future__ import annotations

from dataclasses import dataclass

from .augment import Augmentation
from .augment import indegree_profile  # unused; a patch point of perfbench/tracer.py
from .graph import VertexSet
from .graph import all_balls  # unused; a patch point of perfbench/tracer.py
from .lp import (FLOAT_EPS, FLOAT_TOL, LinearProgram, LpSolution, solve,
                 threshold)
from .ordering import _peel

# Largest hypergraph (in edges) that gets the exact k-matching search, and
# the search's branch-and-bound node budget.
EXACT_MATCHING_MAX_EDGES = 60
MATCHING_MAX_NODES = 200_000


@dataclass(frozen=True)
class Hypergraph:
    """Labeled edges; two edges may coincide as sets under distinct labels."""

    nv: int
    edges: tuple[tuple[int, frozenset], ...]  # (label, members)

    def __post_init__(self):
        labels = [lab for lab, _ in self.edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be distinct")
        for lab, members in self.edges:
            if not members:
                raise ValueError(f"edge {lab} is empty")
            if any(not 0 <= v < self.nv for v in members):
                raise ValueError(f"edge {lab} has out-of-range members")


@dataclass(frozen=True)
class BMatching:
    selected: frozenset  # edge labels
    b: int
    method: str  # exact | threshold+greedy


def is_b_matching(h: Hypergraph, labels, b: int) -> bool:
    labels = set(labels)
    counts: dict[int, int] = {}
    for lab, members in h.edges:
        if lab in labels:
            for v in members:
                counts[v] = counts.get(v, 0) + 1
    return all(c <= b for c in counts.values())


def inneighbor_hypergraph(aug: Augmentation) -> Hypergraph:
    """One edge per vertex u, labeled u: the inneighbors of u (u included
    via its loop).  Every edge has size at most Delta_r."""
    return Hypergraph(aug.n, tuple([
        (u, frozenset(t for t, _rho in aug.in_arcs[u])) for u in range(aug.n)]))


def matching_solution_from_packing(h: Hypergraph, y: LpSolution) -> LpSolution:
    """Reindex a ball-packing optimum as a fractional 1-matching of the
    inneighbor hypergraph: m_{e_u} = y_u, feasible by construction."""
    if y.status != "optimal" or y.values is None:
        raise ValueError("need an optimal packing solution")
    values = tuple([y.values[lab] for lab, _m in h.edges])
    return LpSolution("optimal", values, sum(values))


class MatchingBudgetExceeded(RuntimeError):
    pass


def _greedy_extend(h: Hypergraph, k: int, selected: set) -> set:
    counts: dict[int, int] = {}
    for lab, members in h.edges:
        if lab in selected:
            for v in members:
                counts[v] = counts.get(v, 0) + 1
    for lab, members in sorted(h.edges):
        if lab in selected:
            continue
        if all(counts.get(v, 0) < k for v in members):
            selected.add(lab)
            for v in members:
                counts[v] = counts.get(v, 0) + 1
    return selected


def _relaxation_value(h: Hypergraph, k: int, fixed: dict) -> tuple[object, tuple | None]:
    """Float LP bound for max k-matching with some edges fixed in or out.
    Returns (bound, fractional values of the free edges) or (None, None)
    when the fixing is already infeasible."""
    residual = {v: k for lab, members in h.edges for v in members}
    free: list[int] = []
    base = 0
    for j, (lab, members) in enumerate(h.edges):
        state = fixed.get(lab)
        if state == 1:
            base += 1
            for v in members:
                residual[v] -= 1
        elif state is None:
            free.append(j)
    if any(c < 0 for c in residual.values()):
        return None, None
    if not free:
        return base, ()
    incident: dict[int, list[int]] = {}
    for jj, j in enumerate(free):
        for v in h.edges[j][1]:
            incident.setdefault(v, []).append(jj)
    rows = tuple([(tuple([(jj, 1) for jj in js]), "<=", residual[v])
                  for v, js in sorted(incident.items())])
    lp = LinearProgram("max", (1,) * len(free), rows, ((0, 1),) * len(free))
    sol = solve(lp, "float")
    if sol.status != "optimal":
        return None, None
    return base + sol.objective, sol.values


def _exact_max_kmatching(h: Hypergraph, k: int, incumbent: set) -> set:
    """Branch-and-bound on edge variables with float-LP bounds; the LP of
    the k-matching relaxation is tight enough that few nodes are explored."""
    best = set(incumbent)
    nodes = 0
    stack: list[dict] = [{}]
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > MATCHING_MAX_NODES:
            raise MatchingBudgetExceeded(
                f"k-matching search exceeded {MATCHING_MAX_NODES} nodes")
        bound, values = _relaxation_value(h, k, fixed)
        if bound is None or int(bound + FLOAT_TOL) <= len(best):
            continue
        free = [(j, lab) for j, (lab, _m) in enumerate(h.edges)
                if lab not in fixed]
        frac_j = None
        frac_dist = -1.0
        vals = {}
        for jj, (j, lab) in enumerate(free):
            v = values[jj]
            vals[lab] = v
            d = min(v, 1 - v)
            if d > FLOAT_EPS and d > frac_dist:
                frac_dist = d
                frac_j = lab
        if frac_j is None:
            candidate = {lab for lab, s in fixed.items() if s == 1}
            candidate |= {lab for lab, v in vals.items() if v >= 1 - FLOAT_TOL}
            if is_b_matching(h, candidate, k) and len(candidate) > len(best):
                best = candidate
            continue
        stack.append({**fixed, frac_j: 0})
        stack.append({**fixed, frac_j: 1})  # explored first (include branch)
    return best


def extract_kmatching(h: Hypergraph, k: int, m: LpSolution) -> BMatching:
    """Integral k-matching from a feasible fractional 1-matching.

    The edges with m_e >= 1/k (always a valid k-matching), extended
    greedily.  On hypergraphs of at most EXACT_MATCHING_MAX_EDGES edges,
    branch-and-bound from there finds a maximum k-matching, which is
    guaranteed at least half of the fractional 1-matching optimum; the
    method field says whether it ran ("exact") or not ("threshold+greedy").
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m.status != "optimal" or m.values is None or len(m.values) != len(h.edges):
        raise ValueError("need an optimal fractional matching over h's edges")
    cut = threshold(m, k)
    selected = {lab for (lab, _mem), val in zip(h.edges, m.values) if val >= cut}
    selected = _greedy_extend(h, k, selected)
    method = "threshold+greedy"
    if len(h.edges) <= EXACT_MATCHING_MAX_EDGES:
        selected = _exact_max_kmatching(h, k, selected)
        method = "exact"
    assert is_b_matching(h, selected, k)
    return BMatching(frozenset(selected), k, method)


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
    for i in _peel(adj)[0]:
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
