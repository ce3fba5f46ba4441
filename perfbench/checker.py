"""Output checks that share no code with distdom's own verification.

Distances, balls and core numbers come from networkx; the fractional
domination number comes from HiGHS (scipy.optimize.linprog) on a covering
LP built here.  Each check returns a list of failure messages, empty when
the output is correct.  The expensive imports happen on first use, after
the benchmark's timed phase.
"""
from __future__ import annotations

import random
from fractions import Fraction

FLOAT_TOL = 1e-6


def to_nx(g):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    return h


def balls(h, r: int) -> list[set]:
    import networkx as nx
    return [set(nx.single_source_shortest_path_length(h, v, cutoff=r))
            for v in range(h.number_of_nodes())]


def highs_gamma_star(h, r: int) -> float:
    """min sum x subject to x(N_r[u]) >= 1 for every u, x >= 0."""
    import numpy as np
    from scipy.optimize import linprog
    n = h.number_of_nodes()
    a = np.zeros((n, n))
    for u, ball in enumerate(balls(h, r)):
        a[u, list(ball)] = 1.0
    res = linprog(np.ones(n), A_ub=-a, b_ub=-np.ones(n), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _le(a, b, exact: bool) -> bool:
    return a <= b if exact else a <= b + FLOAT_TOL


def check_chain_report(g, r: int, rep) -> list[str]:
    """Check one ChainReport (built with keep_sets) against the graph."""
    import networkx as nx
    tag = rep.instance_id
    fail = []
    if not rep.all_ok():
        fail.append(f"{tag}: the program reports a failed inequality chain")
    if rep.xn_set is None:
        return fail + [f"{tag}: no witness sets kept"]
    h = to_nx(g)
    exact = rep.exact_mode
    if exact and not (isinstance(rep.gamma_star, Fraction)
                      or type(rep.gamma_star).__name__ == "mpq"):
        fail.append(f"{tag}: exact mode returned a non-rational gamma*")
    xn, y, y1 = set(rep.xn_set), set(rep.y_set), set(rep.y1_set)
    if len(xn) != rep.xn_size or len(y) != rep.y_size or len(y1) != rep.y1_size:
        fail.append(f"{tag}: set sizes disagree with the reported sizes")

    # X_n r-dominates G
    if g.n:
        reached = (nx.multi_source_dijkstra_path_length(h, xn, cutoff=r)
                   if xn else {})
        missing = [v for v in range(g.n) if v not in reached]
        if missing:
            fail.append(f"{tag}: X_n leaves vertex {missing[0]} undominated")
    # |X_n| <= b * gamma*
    if not _le(len(xn), rep.b * rep.gamma_star, exact):
        fail.append(f"{tag}: |X_n|={len(xn)} > b*gamma*={rep.b * rep.gamma_star}")
    # Y meets every r-ball at most b times
    over = [v for v, ball in enumerate(balls(h, r)) if len(ball & y) > rep.b]
    if over:
        fail.append(f"{tag}: ball of {over[0]} meets Y more than b={rep.b} times")
    # Y1 pairwise distances > 2r
    for v in sorted(y1):
        near = set(nx.single_source_shortest_path_length(h, v, cutoff=2 * r))
        close = (near & y1) - {v}
        if close:
            fail.append(f"{tag}: Y1 members {v} and {min(close)} "
                        f"within distance {2 * r}")
            break
    # 2d |Y1| >= |Y|
    if 2 * rep.d * len(y1) < len(y):
        fail.append(f"{tag}: 2d|Y1|={2 * rep.d * len(y1)} < |Y|={len(y)}")
    # gamma* = alpha* (exactly in exact mode)
    gap = abs(rep.gamma_star - rep.alpha_star)
    if (exact and gap != 0) or (not exact and gap > FLOAT_TOL):
        fail.append(f"{tag}: gamma*={rep.gamma_star} != alpha*={rep.alpha_star}")
    # gamma* agrees with HiGHS on the checker's own covering LP
    ref = highs_gamma_star(h, r)
    if abs(float(rep.gamma_star) - ref) > FLOAT_TOL * max(1.0, abs(ref)):
        fail.append(f"{tag}: gamma*={float(rep.gamma_star)} but HiGHS gives {ref}")
    # oracle alpha_2r <= alpha* <= oracle gamma_r <= |X_n|
    if rep.oracle_alpha is not None and not _le(rep.oracle_alpha, rep.alpha_star, exact):
        fail.append(f"{tag}: oracle alpha_2r={rep.oracle_alpha} > alpha*")
    if rep.oracle_gamma is not None:
        if not _le(rep.alpha_star, rep.oracle_gamma, exact):
            fail.append(f"{tag}: alpha* > oracle gamma_r={rep.oracle_gamma}")
        if rep.oracle_gamma > len(xn):
            fail.append(f"{tag}: oracle gamma_r={rep.oracle_gamma} > |X_n|")
    return fail


def _wcol1(h, position) -> int:
    """1 + the largest number of earlier-ranked neighbors of any vertex."""
    return 1 + max((sum(1 for u in h[v] if position[u] < position[v])
                    for v in h), default=0)


def _weak_reach_count(h, position, v: int, k: int) -> int:
    """|Q_k(v)|: vertices u reachable from v by a walk of length <= k whose
    vertices all rank at least position[u].  best[x] is the largest
    bottleneck (least rank on the walk) over walks of the current length."""
    best = {v: position[v]}
    reach = dict(best)
    for _ in range(k):
        step: dict[int, int] = {}
        for w, low in best.items():
            for x in h[w]:
                b = min(low, position[x])
                if b > step.get(x, -1):
                    step[x] = b
        best = step
        for x, b in step.items():
            if b > reach.get(x, -1):
                reach[x] = b
    return sum(1 for u, b in reach.items() if b >= position[u])


def check_augment_output(g, r: int, out, rng: random.Random,
                         vertex_samples: int = 12,
                         pair_samples: int = 40) -> list[str]:
    """Check one augment-large output: the ordering, Q_k counts on sampled
    vertices, and the augmentations' distance condition on sampled pairs."""
    import networkx as nx
    fail = []
    h = to_nx(g)
    position = out.ordering.position
    if sorted(position) != list(range(g.n)):
        return [f"n={g.n}: ordering is not a permutation"]
    if out.verified is False:
        fail.append(f"n={g.n}: the program's verify_augmentation failed")
    if out.delta_r != out.wcols[:r + 1] or out.delta_2r != out.wcols:
        fail.append(f"n={g.n}: indegree profile differs from the wcol values")
    # wcol_1 of a degeneracy ordering is 1 + degeneracy = 1 + max core number
    core = 1 + max(nx.core_number(h).values(), default=0)
    own = _wcol1(h, position)
    if own != core:
        fail.append(f"n={g.n}: wcol_1 of the ordering is {own}, "
                    f"1 + max core number is {core}")
    if out.wcols[1] != own:
        fail.append(f"n={g.n}: reported wcol_1={out.wcols[1]}, checker {own}")
    # |Q_k(v)| on sampled vertices, for k = r and 2r
    for v in rng.sample(range(g.n), min(vertex_samples, g.n)):
        for k in (r, 2 * r):
            mine = _weak_reach_count(h, position, v, k)
            theirs = out.profile.q_count(v, k)
            if mine != theirs:
                fail.append(f"n={g.n}: |Q_{k}({v})| is {theirs}, checker {mine}")
    # distance condition: d(u,v) <= r' iff some common inneighbor x has
    # rho(x,u) + rho(x,v) <= r', for every r' <= the augmentation's radius
    for aug in (out.aug_r, out.aug_2r):
        rr = aug.r
        into = [dict(arcs) for arcs in aug.in_arcs]
        for u in rng.sample(range(g.n), min(pair_samples, g.n)):
            dist = nx.single_source_shortest_path_length(h, u, cutoff=rr)
            partners = set(dist) | set(rng.sample(range(g.n), min(5, g.n)))
            for v in partners:
                common = into[u].keys() & into[v].keys()
                via = min((into[u][x] + into[v][x] for x in common),
                          default=rr + 1)
                if min(via, rr + 1) != dist.get(v, rr + 1):
                    fail.append(f"n={g.n}: {rr}-augmentation gives {via} for "
                                f"pair ({u},{v}) at distance "
                                f"{dist.get(v, '>' + str(rr))}")
                    break
    return fail
