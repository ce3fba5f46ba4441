"""The benchmark's workloads: inputs made from a seed, one round of work
through distdom's public API, the end-to-end quantities of a round, and
the independent checks of its outputs.

An operation is one instance through the workload's pipeline; a round is
one pass over the instance list.  A run repeats whole rounds, so every
run attempts the same operations in the same proportions whatever its
length.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from distdom import augment, chain, ordering
from distdom.chain import AnalyzeConfig, CorpusInstance, default_corpus
from distdom.instances import grid_graph, random_degenerate_graph
from distdom.oracles import OracleBudget

import checker

# Corpus instances left out so that one round stays near 5 s on a 2-core
# x86 host: three r=2 constructions take 29-150 s each, grid-6x10-r2 9.5 s
# and covering-hard-n7-r1 2.8 s.  The seeded random graphs with n >= 30
# and d = 3, or n = 60, take from 0.3 s to 5.6 s depending on the seed,
# which would swamp the spread between runs with different seeds.
# clique-hr-n4-r2 (n=41, 2.4 s) stays as the r=2 construction instance
# with long-rational pivots.
SLOW_CORPUS_IDS = frozenset({"clique-hr-n5-r2", "clique-hr-n6-r2",
                             "covering-hard-n5-r2", "grid-6x10-r2",
                             "covering-hard-n7-r1", "rdeg-d1-n60-r1",
                             "rdeg-d2-n60-r1", "rdeg-d3-n60-r1",
                             "rdeg-d3-n30-r1", "rdeg-d3-n40-r2"})

ORACLE_BUDGET_VERTICES = 30


def _rdeg(n: int, d: int, r: int, seed: int, tag: str) -> CorpusInstance:
    g, orient = random_degenerate_graph(n, d, seed)
    return CorpusInstance(f"{tag}-rdeg-d{d}-n{n}-r{r}", g, r,
                          orientation=orient if r == 1 else None, d=d)


# ---------------------------------------------------------------------------
# verify_chain workloads


@dataclass
class ChainWorkload:
    """Instances through chain.verify_chain under one AnalyzeConfig."""

    cfg: AnalyzeConfig
    make_instances: Callable[[int], list]

    def make(self, seed: int) -> list:
        return self.make_instances(seed)

    def run_one(self, inst: CorpusInstance):
        reports, _all_ok = chain.verify_chain([inst], self.cfg)
        return reports[0]

    @staticmethod
    def signature(rep) -> tuple:
        return (rep.instance_id, rep.wcols, str(rep.gamma_star),
                str(rep.alpha_star), rep.xn_set, rep.y_set, rep.y1_set,
                rep.oracle_gamma, rep.oracle_alpha, rep.oracle_alpha_b)

    @staticmethod
    def quantities(reports: list) -> dict:
        return {
            "wcol_sum": sum(rep.w_2r for rep in reports),
            "dom_ratio": (sum(rep.xn_size for rep in reports)
                          / float(sum(rep.gamma_star for rep in reports))),
            "indep_ratio": (float(sum(rep.alpha_star for rep in reports))
                            / sum(rep.y1_size for rep in reports)),
        }

    def check(self, instances: list, reports: list, rng: random.Random) -> list:
        failures = []
        for inst, rep in zip(instances, reports):
            failures += checker.check_chain_report(inst.graph, inst.r, rep)
        return failures


def _corpus_exact(seed: int) -> list:
    return [inst for inst in default_corpus(seed)
            if inst.id not in SLOW_CORPUS_IDS]


def _sparse_float(seed: int) -> list:
    # Random graphs are 1-degenerate (trees): on some seeds the float
    # simplex stalls for thousands of pivots on 2-degenerate n=200 graphs,
    # and grid-4x50 with r=2 is wrongly reported infeasible, so neither can
    # be timed here.
    out = [CorpusInstance("sf-grid-2x100-r1", grid_graph(2, 100), 1)]
    for i, (n, r) in enumerate([(200, 1), (230, 1), (250, 1), (210, 2),
                                (240, 2)]):
        out.append(_rdeg(n, 1, r, seed * 1000 + i, "sf"))
    return out


def _oracle_check(seed: int) -> list:
    # The grids keep their labels: the subset searches of the oracles
    # visit candidates in label order, and a relabeled 5x6 grid takes from
    # 1.3 s to 2.2 s.  Random trees with r=2 are left out because their
    # (2r,b)-independence search ranges from 0.1 s to 4.4 s over seeds.
    out = [CorpusInstance(f"oc-grid-{rows}x{cols}-r{r}", grid_graph(rows, cols), r)
           for rows, cols, r in [(5, 6, 1), (4, 7, 1), (4, 6, 1), (3, 8, 1),
                                 (5, 5, 1), (5, 6, 2)]]
    for i, (n, d, r) in enumerate([(22, 2, 1), (23, 2, 1), (24, 2, 1),
                                   (25, 2, 1), (22, 3, 1), (24, 3, 1),
                                   (26, 2, 2), (28, 2, 2)]):
        out.append(_rdeg(n, d, r, seed * 1000 + i, "oc"))
    return out


# ---------------------------------------------------------------------------
# augment-large: the first two stages of analyze on large sparse graphs


@dataclass(frozen=True)
class AugmentInstance:
    id: str
    graph: object
    r: int


@dataclass
class AugmentOutput:
    ordering: object
    profile: object
    aug_r: object
    aug_2r: object
    delta_r: tuple
    delta_2r: tuple
    wcols: tuple
    verified: bool | None


class AugmentWorkload:
    """heuristic_ordering -> weak_reach(2r) -> augmentation_from_profile
    (r and 2r) -> indegree_profile -> verify_augmentation (n <= 2000)."""

    verify_vertex_limit = AnalyzeConfig().verify_vertex_limit

    def make(self, seed: int) -> list:
        # r=3 runs on a grid only: wcol_6 of a random 2-degenerate graph
        # with n=3000 ranges over 276-319 between seeds and would dominate
        # the spread of wcol_sum.
        out = []
        for i, (n, d, r) in enumerate([(2000, 2, 1), (2000, 2, 2),
                                       (4000, 3, 1)]):
            g, _ = random_degenerate_graph(n, d, seed * 1000 + i)
            out.append(AugmentInstance(f"al-rdeg-d{d}-n{n}-r{r}", g, r))
        out.append(AugmentInstance("al-grid-50x60-r3", grid_graph(50, 60), 3))
        return out

    def run_one(self, inst: AugmentInstance) -> AugmentOutput:
        g, r = inst.graph, inst.r
        order = ordering.heuristic_ordering(g, "degeneracy")
        profile = ordering.weak_reach(g, order, 2 * r)
        wcols = tuple(profile.wcol(k) for k in range(2 * r + 1))
        aug_r = augment.augmentation_from_profile(g, profile, r)
        aug_2r = augment.augmentation_from_profile(g, profile, 2 * r)
        prof_r = augment.indegree_profile(aug_r)
        prof_2r = augment.indegree_profile(aug_2r)
        verified = None
        if g.n <= self.verify_vertex_limit:
            verified = (augment.verify_augmentation(g, aug_r).ok
                        and augment.verify_augmentation(g, aug_2r).ok)
        return AugmentOutput(order, profile, aug_r, aug_2r, prof_r.delta,
                             prof_2r.delta, wcols, verified)

    @staticmethod
    def signature(out: AugmentOutput) -> tuple:
        return (out.ordering.position, out.wcols, out.delta_r, out.delta_2r,
                out.verified)

    @staticmethod
    def quantities(outputs: list) -> dict:
        # No LP runs on this workload: the two LP ratios take the neutral
        # value 1 so that every workload reports the same metric set.
        return {
            "wcol_sum": sum(out.wcols[-1] for out in outputs),
            "dom_ratio": 1.0,
            "indep_ratio": 1.0,
        }

    def check(self, instances: list, outputs: list, rng: random.Random) -> list:
        failures = []
        for inst, out in zip(instances, outputs):
            failures += checker.check_augment_output(inst.graph, inst.r, out, rng)
        return failures


WORKLOADS = {
    "corpus-exact": ChainWorkload(
        AnalyzeConfig(mode="exact-rational", keep_sets=True), _corpus_exact),
    "sparse-float": ChainWorkload(AnalyzeConfig(keep_sets=True), _sparse_float),
    "augment-large": AugmentWorkload(),
    "oracle-check": ChainWorkload(
        AnalyzeConfig(keep_sets=True,
                      oracle_budget=OracleBudget(max_vertices=ORACLE_BUDGET_VERTICES)),
        _oracle_check),
}
