"""Span tracing around distdom's public functions, and the per-layer
metrics derived from the spans.

The tracer replaces module attributes with timing wrappers, under the
names their callers look them up (``distdom.chain.round_dominating``,
``distdom.independence.solve``, ...), so no line of distdom changes.
Spans are kept in memory as tuples and written out once, at the end.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import distdom.augment
import distdom.chain
import distdom.domination
import distdom.independence
import distdom.lp
import distdom.ordering

# (module, attribute, span name).  One span name per function; the same
# function patched in several modules shares its span name.
PATCH_POINTS = [
    (distdom.chain, "analyze", "chain.analyze"),
    (distdom.chain, "heuristic_ordering", "ordering.heuristic_ordering"),
    (distdom.ordering, "heuristic_ordering", "ordering.heuristic_ordering"),
    (distdom.chain, "weak_reach", "ordering.weak_reach"),
    (distdom.ordering, "weak_reach", "ordering.weak_reach"),
    (distdom.chain, "augmentation_from_profile", "augment.build"),
    (distdom.augment, "augmentation_from_profile", "augment.build"),
    (distdom.chain, "orientation_augmentation", "augment.build"),
    (distdom.chain, "verify_augmentation", "augment.verify"),
    (distdom.augment, "verify_augmentation", "augment.verify"),
    (distdom.chain, "indegree_profile", "augment.indegree_profile"),
    (distdom.augment, "indegree_profile", "augment.indegree_profile"),
    (distdom.domination, "indegree_profile", "augment.indegree_profile"),
    (distdom.independence, "indegree_profile", "augment.indegree_profile"),
    (distdom.lp, "solve", "lp.solve"),
    (distdom.independence, "solve", "independence.bb_solve"),
    (distdom.lp, "domination_lp", "lp.build"),
    (distdom.lp, "independence_lp", "lp.build"),
    (distdom.lp, "all_balls", "graph.all_balls"),
    (distdom.domination, "all_balls", "graph.all_balls"),
    (distdom.independence, "all_balls", "graph.all_balls"),
    (distdom.chain, "all_balls", "graph.all_balls"),
    (distdom.chain, "round_dominating", "domination.round"),
    (distdom.chain, "inneighbor_hypergraph", "independence.extract"),
    (distdom.chain, "matching_solution_from_packing", "independence.extract"),
    (distdom.chain, "extract_kmatching", "independence.extract"),
    (distdom.chain, "certify_2rb_independent", "independence.certify"),
    (distdom.independence, "certify_2rb_independent", "independence.certify"),
    (distdom.chain, "sparsify_to_independent", "independence.sparsify"),
    (distdom.chain, "brute_gamma_r", "oracles.gamma"),
    (distdom.chain, "brute_alpha_2r", "oracles.alpha"),
    (distdom.chain, "brute_alpha_2rb", "oracles.alpha_b"),
]

# Span name -> the per-layer time metric that receives its self time.
SELF_TIME_METRIC = {
    "chain.analyze": "chain.analyze.self_ms",
    "ordering.heuristic_ordering": "ordering.heuristic_ordering_ms",
    "ordering.weak_reach": "ordering.weak_reach_ms",
    "augment.build": "augment.build_ms",
    "augment.verify": "augment.verify_ms",
    "augment.indegree_profile": "augment.indegree_profile_ms",
    "lp.build": "lp.build_ms",
    "graph.all_balls": "graph.all_balls_ms",
    "domination.round": "domination.round_ms",
    "independence.extract": "independence.extract_ms",
    "independence.certify": "independence.certify_ms",
    "independence.sparsify": "independence.sparsify_ms",
    "oracles.gamma": "oracles.gamma_ms",
    "oracles.alpha": "oracles.alpha_ms",
    "oracles.alpha_b": "oracles.alpha_b_ms",
    # lp.solve and independence.bb_solve go by mode, see layer_metrics
}

# Every per-layer metric with its unit and direction, in report order.
PER_LAYER = [
    ("lp.solve_exact_ms", "ms", "lower"),
    ("lp.solve_float_ms", "ms", "lower"),
    ("lp.build_ms", "ms", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.nonzeros", "count", "lower"),
    ("ordering.heuristic_ordering_ms", "ms", "lower"),
    ("ordering.weak_reach_ms", "ms", "lower"),
    ("ordering.reach_pairs", "count", "lower"),
    ("augment.build_ms", "ms", "lower"),
    ("augment.verify_ms", "ms", "lower"),
    ("augment.indegree_profile_ms", "ms", "lower"),
    ("augment.arcs", "count", "lower"),
    ("graph.all_balls_ms", "ms", "lower"),
    ("graph.all_balls_calls", "count", "lower"),
    ("oracles.gamma_ms", "ms", "lower"),
    ("oracles.alpha_ms", "ms", "lower"),
    ("oracles.alpha_b_ms", "ms", "lower"),
    ("oracles.budget_exceeded", "count", "lower"),
    ("domination.round_ms", "ms", "lower"),
    ("domination.x0_size", "count", "lower"),
    ("domination.sweep_added", "count", "lower"),
    ("independence.extract_ms", "ms", "lower"),
    ("independence.bb_solves", "count", "lower"),
    ("independence.certify_ms", "ms", "lower"),
    ("independence.sparsify_ms", "ms", "lower"),
    ("chain.analyze.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _counts(span: str, args, kwargs, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if span in ("lp.solve", "independence.bb_solve"):
        lp = args[0]
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact-rational")
        return {"mode": "float" if mode == "float" else "exact",
                "rows": len(lp.constraints),
                "nonzeros": sum(len(c) for c, _rel, _rhs in lp.constraints)}
    if span == "ordering.weak_reach":
        return {"pairs": sum(len(m) for m in result.min_reach)}
    if span == "augment.build":
        return {"arcs": sum(len(a) for a in result.in_arcs)}
    if span == "domination.round":
        return {"x0": result.x0_size,
                "added": len(result.vertices) - result.x0_size}
    return {}


class Tracer:
    """In-memory span recorder.  A span is (id, name, start, end, parent,
    counts, error); start and end are perf_counter seconds."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = (_counts(name, args, kwargs, result)
                          if error is None else {})
                self.spans.append((sid, name, start, end, parent, counts, error))
        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS attribute for the duration of the block."""
        saved = []
        try:
            for module, attr, name in PATCH_POINTS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "counts", "error")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f,
                      separators=(",", ":"))


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer metrics per round of the workload, from recorded spans."""
    child_time: dict[int, float] = {}
    for sid, _name, start, end, parent, _c, _e in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for sid, name, start, end, _parent, counts, error in spans:
        self_ms = (end - start - child_time.get(sid, 0.0)) * 1000
        if name in ("lp.solve", "independence.bb_solve"):
            # the B&B matching search solves float LPs; their time is lp work
            mode = counts.get("mode", "float")
            out[f"lp.solve_{mode}_ms"] += self_ms
            out["lp.solves"] += 1
            out["lp.rows"] += counts.get("rows", 0)
            out["lp.nonzeros"] += counts.get("nonzeros", 0)
            if name == "independence.bb_solve":
                out["independence.bb_solves"] += 1
            continue
        out[SELF_TIME_METRIC[name]] += self_ms
        if name == "graph.all_balls":
            out["graph.all_balls_calls"] += 1
        elif name == "ordering.weak_reach":
            out["ordering.reach_pairs"] += counts.get("pairs", 0)
        elif name == "augment.build":
            out["augment.arcs"] += counts.get("arcs", 0)
        elif name == "domination.round":
            out["domination.x0_size"] += counts.get("x0", 0)
            out["domination.sweep_added"] += counts.get("added", 0)
        if error == "BudgetExceeded":
            out["oracles.budget_exceeded"] += 1
    out["trace.spans"] = len(spans)
    return {k: v / rounds for k, v in out.items()}
