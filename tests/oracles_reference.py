"""Exact baselines that only the tests use: the maximum b-matching of a
hypergraph by exhaustive search.  Kept as the reference that
distdom.independence.extract_kmatching is checked against."""
from __future__ import annotations

from distdom.independence import Hypergraph
from distdom.oracles import (DEFAULT_BUDGET, BudgetExceeded, OracleBudget,
                             OracleResult)


def brute_bmatching(h: Hypergraph, b: int,
                    budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum b-matching by DFS over edges with capacity counters."""
    if b < 1:
        raise ValueError("b must be positive")
    ne = len(h.edges)
    counts: dict[int, int] = {}
    best = [0, frozenset()]
    chosen: list[int] = []
    nodes = [0]

    def rec(j: int):
        nodes[0] += 1
        if nodes[0] > budget.max_nodes:
            raise BudgetExceeded("b-matching search exceeded node budget")
        if len(chosen) > best[0]:
            best[0], best[1] = len(chosen), frozenset(chosen)
        if j == ne or len(chosen) + (ne - j) <= best[0]:
            return
        members = h.edges[j]
        if all(counts.get(v, 0) < b for v in members):
            for v in members:
                counts[v] = counts.get(v, 0) + 1
            chosen.append(j)
            rec(j + 1)
            chosen.pop()
            for v in members:
                counts[v] -= 1
        rec(j + 1)

    try:
        rec(0)
    finally:
        rec = None  # the closure refers to itself: break the cycle
    return OracleResult(best[0], best[1])
