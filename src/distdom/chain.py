"""Pipeline orchestration: ordering -> augmentations -> LP -> rounding ->
independence extraction, aggregated into per-instance chain reports, plus
the default benchmark corpus."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import ClassVar

from . import lp
from .augment import (augmentation_from_profile, indegree_profile,
                      orientation_augmentation, verify_augmentation)
from .domination import guarantee_factor, round_dominating
from .graph import Graph, all_balls
from .independence import (certify_2rb_independent, extract_kmatching,
                           inneighbor_hypergraph,
                           matching_solution_from_packing,
                           sparsify_to_independent)
from .instances import (build_h_r, clique_hypergraph,
                        covering_hard_hypergraph, grid_graph,
                        random_degenerate_graph)
from .oracles import (BudgetExceeded, OracleBudget, brute_alpha_2r,
                      brute_alpha_2rb, brute_gamma_r)
from .ordering import heuristic_ordering, weak_reach

# LPs of graphs with fewer vertices are solved in exact rationals by default
EXACT_VERTEX_LIMIT = 200

CSV_COLUMNS = [
    "id", "n", "m", "r", "w_r", "w_2r", "b", "k", "d",
    "gamma_star", "alpha_star", "xn", "x0", "y", "y1",
    "oracle_gamma", "oracle_alpha", "oracle_alpha_b",
    "exact_mode",
    "dominating_valid", "y_certified", "y1_independent", "aug_verified",
    "deltas_match", "duality_ok", "rounding_ok", "half_ok", "sparsify_ok",
    "oracle_ok", "all_ok", "t_ms",
]


@dataclass(frozen=True)
class CorpusInstance:
    id: str
    graph: Graph
    r: int
    orientation: tuple | None = None  # certified, max indegree <= d
    d: int | None = None


@dataclass(frozen=True)
class AnalyzeConfig:
    mode: str | None = None  # None = exact below EXACT_VERTEX_LIMIT
    oracle_budget: OracleBudget = field(default_factory=OracleBudget)
    keep_sets: bool = False
    # augmentations are verified on graphs up to this many vertices
    verify_vertex_limit: ClassVar[int] = 2000


@dataclass
class ChainReport:
    """Raw per-instance numbers; every inequality is re-derived from them
    at serialization time rather than cached."""

    instance_id: str
    n: int
    m: int
    r: int
    wcols: tuple  # wcol_k of the ordering for k = 0..2r
    delta_r: tuple
    delta_2r: tuple
    b: int
    k: int
    d: int
    gamma_star: object
    alpha_star: object
    xn_size: int
    x0_size: int
    y_size: int
    y1_size: int
    exact_mode: bool
    dominating_valid: bool
    y_certified: bool
    y1_independent: bool
    lp_certified: bool  # x covers and y packs every r-ball (lp.certify)
    aug_verified: bool | None
    oracle_gamma: int | None
    oracle_alpha: int | None
    oracle_alpha_b: int | None
    aug_from_ordering: bool = True
    timings: dict = field(default_factory=dict)
    xn_set: tuple | None = None
    y_set: tuple | None = None
    y1_set: tuple | None = None

    @property
    def w_r(self) -> int:
        return self.wcols[self.r]

    @property
    def w_2r(self) -> int:
        return self.wcols[2 * self.r]

    def inequalities(self) -> dict:
        eq_tol = lp.tolerance(self.gamma_star)
        # Delta_k = wcol_k holds vertex by vertex, so vacuously when n = 0,
        # where wcol_k is 0 and Delta_k is floored at 1
        checks = {
            "deltas_match": self.n == 0 or (
                tuple(self.delta_2r) == tuple(self.wcols[:2 * self.r + 1])
                and (not self.aug_from_ordering
                     or tuple(self.delta_r) == tuple(self.wcols[:self.r + 1]))),
            # x covers every ball, y packs every ball, and their sums
            # agree: both are optimal
            "duality_ok": (self.lp_certified
                           and abs(self.gamma_star - self.alpha_star) <= eq_tol),
            "rounding_ok": self.xn_size <= self.b * self.gamma_star + eq_tol,
            # Y is a maximal k-matching of the inneighbor hypergraph
            "half_ok": 2 * self.y_size >= self.alpha_star - eq_tol,
            "sparsify_ok": 2 * self.d * self.y1_size >= self.y_size,
        }
        oracle_ok = True
        if self.oracle_gamma is not None:
            oracle_ok &= self.alpha_star <= self.oracle_gamma + eq_tol
            oracle_ok &= self.oracle_gamma <= self.xn_size
        if self.oracle_alpha is not None:
            oracle_ok &= self.oracle_alpha <= self.alpha_star + eq_tol
        if self.oracle_alpha_b is not None:
            oracle_ok &= self.oracle_alpha_b <= self.b * self.alpha_star + eq_tol
        checks["oracle_ok"] = bool(oracle_ok)
        return checks

    def all_ok(self) -> bool:
        base = (self.dominating_valid and self.y_certified
                and self.y1_independent and self.aug_verified is not False)
        return base and all(self.inequalities().values())

    def csv_row(self, with_timing: bool = True) -> list:
        ineq = self.inequalities()
        row = [
            self.instance_id, self.n, self.m, self.r, self.w_r, self.w_2r,
            self.b, self.k, self.d,
            str(self.gamma_star), str(self.alpha_star),
            self.xn_size, self.x0_size, self.y_size, self.y1_size,
            _opt(self.oracle_gamma), _opt(self.oracle_alpha),
            _opt(self.oracle_alpha_b),
            int(self.exact_mode),
            int(self.dominating_valid), int(self.y_certified),
            int(self.y1_independent),
            _opt(None if self.aug_verified is None else int(self.aug_verified)),
            int(ineq["deltas_match"]), int(ineq["duality_ok"]),
            int(ineq["rounding_ok"]), int(ineq["half_ok"]),
            int(ineq["sparsify_ok"]), int(ineq["oracle_ok"]),
            int(self.all_ok()),
        ]
        if with_timing:
            row.append(round(sum(self.timings.values()), 2))
        return row

    def to_json(self) -> str:
        obj = dict(zip(CSV_COLUMNS[:-1], self.csv_row(with_timing=False)))
        obj["timings_ms"] = {k: round(v, 2) for k, v in self.timings.items()}
        if self.xn_set is not None:
            obj["xn_set"] = list(self.xn_set)
            obj["y_set"] = list(self.y_set)
            obj["y1_set"] = list(self.y1_set)
        return json.dumps(obj, separators=(",", ":"))


def _opt(v):
    return "" if v is None else v


def analyze(inst: CorpusInstance, cfg: AnalyzeConfig = AnalyzeConfig()) -> ChainReport:
    g, r = inst.graph, inst.r
    mode = cfg.mode or ("exact-rational" if g.n < EXACT_VERTEX_LIMIT else "float")
    timings: dict[str, float] = {}

    def stage(name):
        timings[name] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    ordering = heuristic_ordering(g)
    profile = weak_reach(g, ordering, 2 * r)
    wcols = tuple([profile.wcol(kk) for kk in range(2 * r + 1)])
    if inst.orientation is not None and r == 1:
        aug_r = orientation_augmentation(g, inst.orientation)
        aug_from_ordering = False
    else:
        aug_r = augmentation_from_profile(g, profile, r)
        aug_from_ordering = True
    aug_2r = augmentation_from_profile(g, profile, 2 * r)
    stage("ordering_aug")

    t0 = time.perf_counter()
    aug_verified: bool | None = None
    if g.n <= cfg.verify_vertex_limit:
        aug_verified = (verify_augmentation(g, aug_r).ok
                        and verify_augmentation(g, aug_2r).ok)
    stage("verify_aug")

    # the r-ball table and both in-degree profiles serve every later stage
    prof_r = indegree_profile(aug_r)
    prof_2r = indegree_profile(aug_2r)
    b = guarantee_factor(prof_r, r)
    k = prof_r.delta[r]
    d = b * prof_2r.delta[2 * r]

    # one LP: the packing optimum y, and the covering optimum x read from
    # its dual, certified against every ball
    t0 = time.perf_counter()
    balls = all_balls(g, r)
    sol_y = lp.solve(lp.independence_lp(balls), mode)
    sol_x = lp.covering_from_packing(balls, sol_y)
    lp_certified = lp.certify(balls, sol_x, sol_y)
    stage("lp")

    t0 = time.perf_counter()
    dom = round_dominating(balls, aug_r, b, sol_x, ordering)
    stage("rounding")

    t0 = time.perf_counter()
    h = inneighbor_hypergraph(aug_r)
    m_sol = matching_solution_from_packing(h, sol_y)
    y = extract_kmatching(h, k, m_sol)
    cert = certify_2rb_independent(balls, y, b)
    # an uncertified Y is reported (y_certified = 0), not sparsified
    y1 = sparsify_to_independent(balls, y, b, d) if cert.ok else frozenset()
    stage("independence")

    t0 = time.perf_counter()
    oracle_gamma = oracle_alpha = oracle_alpha_b = None
    if g.n <= cfg.oracle_budget.max_vertices:
        try:
            oracle_gamma = brute_gamma_r(g, r, cfg.oracle_budget).value
            oracle_alpha = brute_alpha_2r(g, r, cfg.oracle_budget).value
            oracle_alpha_b = brute_alpha_2rb(g, r, b, cfg.oracle_budget).value
        except BudgetExceeded:
            pass
    stage("oracles")

    return ChainReport(
        instance_id=inst.id, n=g.n, m=g.m, r=r,
        wcols=wcols, delta_r=prof_r.delta, delta_2r=prof_2r.delta,
        b=b, k=k, d=d,
        gamma_star=sol_x.objective, alpha_star=sol_y.objective,
        xn_size=len(dom.vertices), x0_size=dom.x0_size,
        y_size=len(y), y1_size=len(y1),
        exact_mode=mode != "float",
        dominating_valid=dom.valid,
        y_certified=cert.ok,
        y1_independent=certify_2rb_independent(balls, y1, 1).ok,
        lp_certified=lp_certified,
        aug_verified=aug_verified,
        oracle_gamma=oracle_gamma, oracle_alpha=oracle_alpha,
        oracle_alpha_b=oracle_alpha_b,
        aug_from_ordering=aug_from_ordering,
        timings=timings,
        xn_set=tuple(sorted(dom.vertices)) if cfg.keep_sets else None,
        y_set=tuple(sorted(y)) if cfg.keep_sets else None,
        y1_set=tuple(sorted(y1)) if cfg.keep_sets else None,
    )


# ---------------------------------------------------------------------------
# default corpus


def default_corpus(seed: int = 7) -> list[CorpusInstance]:
    """Deterministic benchmark corpus: grids, random d-degenerate graphs
    with certified orientations, construction instances, and small named
    graphs that the exact oracles can also handle."""
    out: list[CorpusInstance] = []

    for rows, cols, r in [(2, 2, 1), (3, 3, 1), (3, 3, 2), (3, 4, 1),
                          (4, 4, 2), (4, 5, 1), (5, 5, 2), (2, 8, 1),
                          (6, 6, 1), (6, 10, 2)]:
        out.append(CorpusInstance(f"grid-{rows}x{cols}-r{r}",
                                  grid_graph(rows, cols), r))

    for d in (1, 2, 3):
        for n in (10, 14, 30, 60):
            g, orient = random_degenerate_graph(n, d, seed + 100 * d + n)
            out.append(CorpusInstance(f"rdeg-d{d}-n{n}-r1", g, 1,
                                      orientation=orient, d=d))
    for d, n, r in [(2, 25, 2), (3, 40, 2)]:
        g, orient = random_degenerate_graph(n, d, seed + 100 * d + n)
        out.append(CorpusInstance(f"rdeg-d{d}-n{n}-r{r}", g, r, d=d))

    for n in (4, 5, 6):
        for r in (1, 2):
            c = build_h_r(clique_hypergraph(n), r)
            out.append(CorpusInstance(f"clique-hr-n{n}-r{r}", c.graph, r))
    for n, r in [(5, 1), (5, 2), (7, 1)]:
        c = build_h_r(covering_hard_hypergraph(n), r)
        out.append(CorpusInstance(f"covering-hard-n{n}-r{r}", c.graph, r))

    from .graph import from_edges
    path5 = from_edges(5, [(i, i + 1) for i in range(4)])
    cyc5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    cyc6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    star = from_edges(5, [(0, i) for i in range(1, 5)])
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    tree7 = from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    for name, g, r in [("path5", path5, 1), ("cycle5", cyc5, 1),
                       ("cycle6", cyc6, 1), ("star5", star, 1),
                       ("k4", k4, 1), ("tree7", tree7, 1),
                       ("cycle6-r2", cyc6, 2), ("tree7-r2", tree7, 2)]:
        out.append(CorpusInstance(name, g, r))

    out.sort(key=lambda inst: inst.id)
    return out


def verify_chain(instances, cfg: AnalyzeConfig = AnalyzeConfig()):
    """Run analyze on every instance; returns (reports, all_passed)."""
    reports = [analyze(inst, cfg) for inst in instances]
    return reports, all(rep.all_ok() for rep in reports)
