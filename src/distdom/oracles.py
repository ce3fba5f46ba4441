"""Exponential-time exact baselines: distance domination/independence
numbers and weak coloring numbers.  Everything refuses inputs beyond its
budget instead of running open-ended."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

from .graph import Graph, ball_masks
from .ordering import Ordering, weak_reach


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 14
    max_nodes: int = 10_000_000


DEFAULT_BUDGET = OracleBudget()


class OracleResult(NamedTuple):
    value: int
    witness: object


def _check_vertices(g: Graph, budget: OracleBudget, what: str) -> None:
    if g.n > budget.max_vertices:
        raise BudgetExceeded(
            f"{what}: {g.n} vertices exceed budget {budget.max_vertices}")


def exists_r_dominating(masks: list[int], size: int,
                        budget: OracleBudget = DEFAULT_BUDGET) -> frozenset | None:
    """Smallest-witness search over subsets of exactly the given size of a
    graph with ball bitmasks masks = ball_masks(g, r); returns a dominating
    witness or None.  Usable beyond the full-oracle vertex budget since
    only C(n, size) subsets are touched."""
    n = len(masks)
    full = (1 << n) - 1
    if size >= n:
        return frozenset(range(n))
    nodes = math.comb(n, size)
    if nodes > budget.max_nodes:
        raise BudgetExceeded(f"{nodes} candidate subsets exceed node budget")
    for comb in combinations(range(n), size):
        acc = 0
        for v in comb:
            acc |= masks[v]
        if acc == full:
            return frozenset(comb)
    return None


def brute_gamma_r(g: Graph, r: int,
                  budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact minimum r-dominating set by increasing-cardinality search."""
    _check_vertices(g, budget, "brute_gamma_r")
    masks = ball_masks(g, r)
    for size in range(1, g.n):
        witness = exists_r_dominating(masks, size, budget)
        if witness is not None:
            return OracleResult(size, witness)
    return OracleResult(g.n, frozenset(range(g.n)))


def _conflict_masks(g: Graph, r: int) -> list[int]:
    """mask[v] = vertices at distance <= 2r from v, v excluded."""
    masks = ball_masks(g, 2 * r)
    return [m & ~(1 << v) for v, m in enumerate(masks)]


def brute_alpha_2r(g: Graph, r: int,
                   budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum 2r-independent set.

    Branch-and-bound maximum independent set on the distance-<=2r conflict
    graph; reaches the dense construction instances that a cardinality
    sweep cannot.
    """
    _check_vertices(g, budget, "brute_alpha_2r")
    conf = _conflict_masks(g, r)
    best = [0, 0]
    nodes = [0]

    def bound_count(mask: int) -> int:
        return mask.bit_count()

    def rec(cand: int, chosen: int, size: int):
        nodes[0] += 1
        if nodes[0] > budget.max_nodes:
            raise BudgetExceeded("independence search exceeded node budget")
        if size > best[0]:
            best[0], best[1] = size, chosen
        if size + bound_count(cand) <= best[0]:
            return
        if not cand:
            return
        # branch on the candidate with the most conflicts among candidates
        v, vdeg = -1, -1
        m = cand
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = bound_count(conf[u] & cand)
            if deg > vdeg:
                v, vdeg = u, deg
        rec(cand & ~(1 << v) & ~conf[v], chosen | (1 << v), size + 1)
        rec(cand & ~(1 << v), chosen, size)

    try:
        rec((1 << g.n) - 1, 0, 0)
    finally:
        rec = None  # the closure refers to itself: break the cycle
    witness = frozenset(v for v in range(g.n) if best[1] >> v & 1)
    return OracleResult(best[0], witness)


def brute_alpha_2rb(g: Graph, r: int, b: int,
                    budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum (2r,b)-independent set: DFS with per-ball counters."""
    _check_vertices(g, budget, "brute_alpha_2rb")
    if b < 1:
        raise ValueError("b must be positive")
    masks = ball_masks(g, r)
    n = g.n
    counts = [0] * n
    best = [0, frozenset()]
    chosen: list[int] = []
    nodes = [0]

    def rec(v: int):
        nodes[0] += 1
        if nodes[0] > budget.max_nodes:
            raise BudgetExceeded("(2r,b)-independence search exceeded node budget")
        if len(chosen) > best[0]:
            best[0], best[1] = len(chosen), frozenset(chosen)
        if v == n or len(chosen) + (n - v) <= best[0]:
            return
        # include v when every ball containing it stays within b
        hit = masks[v]
        ok = True
        u = hit
        while u:
            w = (u & -u).bit_length() - 1
            u &= u - 1
            if counts[w] + 1 > b:
                ok = False
                break
        if ok:
            u = hit
            while u:
                w = (u & -u).bit_length() - 1
                u &= u - 1
                counts[w] += 1
            chosen.append(v)
            rec(v + 1)
            chosen.pop()
            u = hit
            while u:
                w = (u & -u).bit_length() - 1
                u &= u - 1
                counts[w] -= 1
        rec(v + 1)

    try:
        rec(0)
    finally:
        rec = None  # the closure refers to itself: break the cycle
    return OracleResult(best[0], best[1])


def brute_wcol(g: Graph, k: int,
               budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact weak k-coloring number by exhausting all vertex orderings."""
    if g.n > budget.max_vertices:
        raise BudgetExceeded(
            f"brute_wcol: {g.n} vertices exceed budget {budget.max_vertices}")
    if math.factorial(g.n) > budget.max_nodes:
        raise BudgetExceeded(
            f"brute_wcol: {g.n}! orderings exceed node budget {budget.max_nodes}")
    best_val, best_ord = None, None
    for perm in permutations(range(g.n)):
        ordering = Ordering.from_rank_sequence(perm)
        w = weak_reach(g, ordering, k).wcol(k)
        if best_val is None or w < best_val:
            best_val, best_ord = w, ordering
    return OracleResult(best_val, best_ord)
