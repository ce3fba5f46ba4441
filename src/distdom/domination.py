"""LP rounding for distance-r dominating sets with a checked size guarantee."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .augment import Augmentation, IndegreeProfile, indegree_profile
from .graph import Graph, VertexSet, all_balls
from .lp import FLOAT_EPS, FLOAT_TOL, LpSolution, ratio
from .ordering import Ordering


@dataclass(frozen=True)
class GuaranteeFactor:
    """The rounding factor a = (Delta_{r-1}+1)*Delta_r - Delta_{r-1},
    its coarser square bound Delta_r^2, and for 1-augmentations built from
    an indegree-d orientation the 2d+1 specialization."""

    a: int
    squared_bound: int
    r1_factor: int | None


def guarantee_factor(profile: IndegreeProfile, r: int) -> GuaranteeFactor:
    if not 1 <= r <= profile.r:
        raise ValueError(f"r={r} outside profile range 1..{profile.r}")
    dprev, dcur = profile.delta[r - 1], profile.delta[r]
    a = (dprev + 1) * dcur - dprev
    r1 = 2 * (dcur - 1) + 1 if r == 1 and dprev == 1 else None
    return GuaranteeFactor(a, dcur * dcur, r1)


@dataclass(frozen=True)
class DominationResult:
    vertices: VertexSet  # X_n
    x0_size: int
    a: int
    lp_value: object  # sum of the rounded solution's x values
    valid: bool
    bound_ok: bool
    sweep_trace: tuple[tuple[int, tuple[int, ...]], ...] | None

    def to_json(self) -> str:
        return json.dumps({
            "set": sorted(self.vertices),
            "a": self.a,
            "lp_value": str(self.lp_value),
            "valid": self.valid,
            "bound_ok": self.bound_ok,
        }, separators=(",", ":"))


def _near_set_via_aug(aug: Augmentation, out, v: int, members: set[int]) -> bool:
    """Is some vertex of members at distance <= r from v?  Decided by the
    augmentation's distance condition: some u in members and v share an
    inneighbor x with rho(xu)+rho(xv) <= r."""
    for x, rho_v in aug.in_arcs[v]:
        for u, rho_u in out[x]:
            if u in members and rho_u + rho_v <= aug.r:
                return True
    return False


def round_dominating(g: Graph, aug: Augmentation, x: LpSolution,
                     sweep: Ordering, keep_trace: bool = False,
                     cross_check: bool = False) -> DominationResult:
    """Round a feasible fractional covering solution to an r-dominating set.

    Threshold step: X_0 = {v : x_v >= 1/a}.  Sweep step: visit vertices in
    the given order; whenever v_i has no current member within distance r,
    add every inneighbor u of v_i with rho(u v_i) <= r-1 (v_i itself comes
    in through its loop).  The result satisfies |X_n| <= a * sum(x).
    """
    if x.status != "optimal" or x.values is None:
        raise ValueError(f"cannot round a solution with status {x.status}")
    if len(x.values) != g.n:
        raise ValueError("solution size does not match graph")
    r = aug.r
    exact = not isinstance(x.objective, float)

    balls = all_balls(g, r)
    for u in range(g.n):
        total = sum(x.values[v] for v in balls[u])
        if (exact and total < 1) or (not exact and total < 1 - FLOAT_TOL):
            raise ValueError(f"infeasible solution: ball of {u} covered by {total}")

    a = guarantee_factor(indegree_profile(aug), r).a
    if exact:
        threshold_ok = lambda xv: xv >= ratio(1, a)
    else:
        threshold_ok = lambda xv: xv >= 1 / a - FLOAT_EPS

    members = {v for v in range(g.n) if threshold_ok(x.values[v])}
    x0_size = len(members)
    out = aug.out_arcs() if cross_check else None
    trace: list[tuple[int, tuple[int, ...]]] = []
    for v in sweep.by_rank:
        near = not balls[v].isdisjoint(members)
        if cross_check:
            assert near == _near_set_via_aug(aug, out, v, members)
        if near:
            continue
        added = tuple([u for u, rho in aug.in_arcs[v] if rho <= r - 1])
        members.update(added)
        if keep_trace:
            trace.append((v, added))

    valid = all(balls[v] & members for v in range(g.n))
    lp_value = sum(x.values)
    if exact:
        bound_ok = len(members) <= a * lp_value
    else:
        bound_ok = len(members) <= a * lp_value + FLOAT_TOL
    return DominationResult(frozenset(members), x0_size, a, lp_value,
                            valid, bound_ok, tuple(trace) if keep_trace else None)
