"""LP rounding for distance-r dominating sets, and the factor a of its
size guarantee |X_n| <= a * sum(x)."""
from __future__ import annotations

from dataclasses import dataclass

from .augment import Augmentation, IndegreeProfile
from .augment import indegree_profile  # unused; a patch point of perfbench/tracer.py
from .graph import VertexSet
from .graph import all_balls  # unused; a patch point of perfbench/tracer.py
from .lp import LpSolution, threshold
from .ordering import Ordering


def guarantee_factor(profile: IndegreeProfile, r: int) -> int:
    """The rounding factor a = (Delta_{r-1}+1)*Delta_r - Delta_{r-1}."""
    if not 1 <= r <= profile.r:
        raise ValueError(f"r={r} outside profile range 1..{profile.r}")
    dprev, dcur = profile.delta[r - 1], profile.delta[r]
    return (dprev + 1) * dcur - dprev


@dataclass(frozen=True)
class DominationResult:
    vertices: VertexSet  # X_n
    x0_size: int
    valid: bool  # X_n meets every ball


def round_dominating(balls: list[VertexSet], aug: Augmentation, a: int,
                     x: LpSolution, sweep: Ordering) -> DominationResult:
    """Round a fractional covering solution to an r-dominating set.

    balls is the ball table all_balls(g, r) with r = aug.r, and a is the
    rounding factor guarantee_factor(indegree_profile(aug), r).
    Threshold step: X_0 = {v : x_v >= 1/a}.  Sweep step: visit vertices in
    the given order; whenever v_i has no current member within distance r,
    add every inneighbor u of v_i with rho(u v_i) <= r-1 (v_i itself comes
    in through its loop).  If x covers every ball (lp.certify checks it),
    then |X_n| <= a * sum(x).
    """
    if x.status != "optimal" or x.values is None:
        raise ValueError(f"cannot round a solution with status {x.status}")
    n = len(balls)
    if len(x.values) != n:
        raise ValueError("solution size does not match the ball table")
    r = aug.r
    cut = threshold(x, a)
    members = {v for v in range(n) if x.values[v] >= cut}
    x0_size = len(members)
    for v in sweep.by_rank:
        if balls[v].isdisjoint(members):
            members.update([u for u, rho in aug.in_arcs[v] if rho <= r - 1])

    valid = all(balls[v] & members for v in range(n))
    return DominationResult(frozenset(members), x0_size, valid)
