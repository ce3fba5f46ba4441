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


def _max_ball_bounded(g: Graph, r: int, b: int, budget: OracleBudget,
                      what: str) -> OracleResult:
    """A largest vertex set that no r-ball holds more than b times, by
    branch-and-bound over the ball bitmasks.  Balls are symmetric, so the
    balls holding v are indexed by the members of v's own ball.  Taking v
    adds 1 to the count of each of them, and a ball whose count reaches b
    takes all its members out of the candidates.  The search branches on
    the candidate that shares a ball with the most other candidates, and
    prunes when size + |candidates| <= best."""
    _check_vertices(g, budget, what)
    if b < 1:
        raise ValueError("b must be positive")
    masks = ball_masks(g, r)
    # share[v]: the vertices other than v that share a ball with v, that is,
    # those within distance 2r of v
    share = [ball_v & ~(1 << v) for v, ball_v in enumerate(ball_masks(g, 2 * r))]
    counts = [0] * g.n
    best = [0, 0]
    nodes = [0]

    def rec(cand: int, chosen: int, size: int):
        nodes[0] += 1
        if nodes[0] > budget.max_nodes:
            raise BudgetExceeded(f"{what}: search exceeded node budget")
        if size > best[0]:
            best[0], best[1] = size, chosen
        if size + cand.bit_count() <= best[0]:
            return
        v, vdeg = -1, -1
        m = cand
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (share[u] & cand).bit_count()
            if deg > vdeg:
                v, vdeg = u, deg
        bit = 1 << v
        removed = bit
        m = masks[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            counts[w] += 1
            if counts[w] == b:
                removed |= masks[w]
        rec(cand & ~removed, chosen | bit, size + 1)
        m = masks[v]
        while m:
            counts[(m & -m).bit_length() - 1] -= 1
            m &= m - 1
        rec(cand & ~bit, chosen, size)

    try:
        rec((1 << g.n) - 1, 0, 0)
    finally:
        rec = None  # the closure refers to itself: break the cycle
    witness = frozenset(v for v in range(g.n) if best[1] >> v & 1)
    return OracleResult(best[0], witness)


def brute_alpha_2r(g: Graph, r: int,
                   budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum 2r-independent set: every r-ball holds at most one
    member, since two vertices within 2r share the ball of a middle vertex."""
    return _max_ball_bounded(g, r, 1, budget, "brute_alpha_2r")


def brute_alpha_2rb(g: Graph, r: int, b: int,
                    budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum (2r,b)-independent set: every r-ball holds at most b
    members."""
    return _max_ball_bounded(g, r, b, budget, "brute_alpha_2rb")


def brute_wcol(g: Graph, k: int,
               budget: OracleBudget = DEFAULT_BUDGET) -> OracleResult:
    """Exact weak k-coloring number by exhausting all vertex orderings."""
    _check_vertices(g, budget, "brute_wcol")
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
