from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distdom.augment import augment_from_ordering
from distdom.chain import default_corpus
from distdom.graph import all_balls, from_edges
from distdom.independence import Hypergraph, inneighbor_hypergraph
from distdom.instances import build_h_r, clique_hypergraph, grid_graph
from distdom.lp import (FLOAT_EPS, FLOAT_TOL, LinearProgram, LpSolution,
                        certify, covering_from_packing, domination_lp,
                        independence_lp, ratio, solve, threshold, tolerance)
from distdom.ordering import heuristic_ordering

from conftest import cover, graphs
from lp_reference import bmatching_lp, reference_solve


def clique(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_trivial_bounded_max():
    prog = LinearProgram("max", (1,), ((((0, 1),), "<=", 1),))
    assert solve(prog).objective == 1


def test_single_vertex_cover():
    g = from_edges(1, [])
    assert cover(g, 1).values == (1,)


def test_triangle_hypergraph_fractional_matching(triangle_hypergraph):
    # symmetric optimum m_e = 1/2 gives 3/2
    assert solve(bmatching_lp(triangle_hypergraph, 1)).objective == ratio(3, 2)
    assert solve(bmatching_lp(triangle_hypergraph, 2)).objective == 3


def test_single_edge_matching():
    h = Hypergraph(1, (frozenset({0}),))
    assert solve(bmatching_lp(h, 1)).objective == 1


def test_c5_domination(cycle5):
    assert reference_solve(domination_lp(all_balls(cycle5, 1))).objective == ratio(5, 3)
    assert solve(independence_lp(all_balls(cycle5, 1))).objective == ratio(5, 3)
    assert cover(cycle5, 1).objective == ratio(5, 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_clique_domination(n):
    assert cover(clique(n), 1).objective == 1


def test_edgeless_independence():
    g = from_edges(6, [])
    assert solve(independence_lp(all_balls(g, 2))).objective == 6


@pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (5, 1)])
def test_clique_construction_lp_window(n, r):
    # n/2 from the half-weight packing on V(K_n); n/2 + 1 from the
    # apex-plus-edges cover
    g = build_h_r(clique_hypergraph(n), r).graph
    value = cover(g, r).objective
    assert ratio(n, 2) <= value <= ratio(n, 2) + 1


def test_unbounded_status():
    prog = LinearProgram("max", (1,), ((((0, -1),), "<=", 0),))
    assert solve(prog).status == "unbounded"
    assert solve(prog, "float").status == "unbounded"


def test_float_mode_matches_exact(cycle5):
    exact = cover(cycle5, 1).objective
    approx = cover(cycle5, 1, "float").objective
    assert abs(approx - float(exact)) <= 1e-6


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_strong_duality(g, r):
    # one packing solve gives both optima, and they equal the covering
    # optimum of an independent two-phase solve
    packing = solve(independence_lp(all_balls(g, r)))
    x = covering_from_packing(all_balls(g, r), packing)
    assert packing.status == x.status == "optimal"
    assert x.objective == packing.objective == sum(packing.dual)
    assert x.objective == reference_solve(domination_lp(all_balls(g, r))).objective


@given(graphs(min_n=1, max_n=7), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_solutions_are_feasible(g, r):
    balls = all_balls(g, r)
    y = solve(independence_lp(all_balls(g, r)))
    x_sol = covering_from_packing(balls, y)
    x = x_sol.values
    for v in range(g.n):
        assert sum(x[u] for u in balls[v]) >= 1
        assert sum(y.values[u] for u in balls[v]) <= 1
        assert x[v] >= 0 and y.values[v] >= 0
    assert certify(balls, x_sol, y)


def test_threshold_and_tolerance():
    exact = LpSolution("optimal", (ratio(1, 3),), ratio(1, 3))
    inexact = LpSolution("optimal", (1 / 3,), 1 / 3)
    assert threshold(exact, 3) == ratio(1, 3)
    assert threshold(inexact, 3) == 1 / 3 - FLOAT_EPS
    assert tolerance(exact.objective) == 0
    assert tolerance(inexact.objective) == FLOAT_TOL
    # the float threshold is the exact one less FLOAT_EPS, bit for bit
    assert all(ratio(1, a) - FLOAT_EPS == 1 / a - FLOAT_EPS
               for a in range(1, 5000))


def test_certify_slack(cycle5):
    # every ball of C5 (r = 1) has 3 vertices; x = y = 1/3 is optimal
    balls = all_balls(cycle5, 1)

    def uniform(v):
        return LpSolution("optimal", (v,) * 5, 5 * v)

    third, eps = ratio(1, 3), ratio(1, 10 ** 9)
    assert certify(balls, uniform(third), uniform(third))
    assert not certify(balls, uniform(third - eps), uniform(third))
    assert not certify(balls, uniform(third), uniform(third + eps))
    # a float answer gets FLOAT_TOL slack on every ball sum
    f = 1 / 3
    assert certify(balls, uniform(f - 1e-7), uniform(f + 1e-7))
    assert not certify(balls, uniform(f - 1e-6), uniform(f))
    assert not certify(balls, uniform(f), uniform(f + 1e-6))


def test_kmatching_scaling_property(triangle_hypergraph):
    # m'_e = k*m_e on edges with m_e <= 1/k stays feasible at bound k
    h = triangle_hypergraph
    k = 2
    m = solve(bmatching_lp(h, 1)).values
    scaled = [k * v if v <= ratio(1, k) else 0 for v in m]
    counts = {}
    for members, v in zip(h.edges, scaled):
        assert 0 <= v <= 1
        for w in members:
            counts[w] = counts.get(w, 0) + v
    assert all(c <= k for c in counts.values())


def test_dedup_keeps_optimum():
    # all balls identical on a clique: one surviving row must not change
    # the optimum
    g = clique(4)
    assert len(domination_lp(all_balls(g, 1)).constraints) == 1
    assert len(independence_lp(all_balls(g, 1)).constraints) == 1
    assert reference_solve(domination_lp(all_balls(g, 1))).objective == 1
    # the one dual value goes to the smallest vertex of the shared ball
    assert cover(g, 1).values == (1, 0, 0, 0)


def test_rejects_malformed_programs():
    with pytest.raises(ValueError):
        LinearProgram("max", (1,), (((), "<=", 1),))
    with pytest.raises(ValueError):
        LinearProgram("max", (1,), ((((3, 1),), "<=", 1),))
    with pytest.raises(ValueError):
        solve(independence_lp(all_balls(from_edges(1, []), 1)), "nope")


# ---------------------------------------------------------------------------
# the fraction-free kernel against the rational-tableau reference


def _pivot_count(prog, mode):
    """Pivots solve makes on prog: the least max_pivots under which it
    finishes, by doubling and then bisection."""
    def finishes(limit):
        try:
            solve(prog, mode, max_pivots=limit)
        except RuntimeError:
            return False
        return True

    hi = 1
    while not finishes(hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _assert_same_as_reference(prog, mode):
    # same solution, and the reference finishes within exactly as many
    # pivots as solve: it raises one pivot short of that
    pivots = _pivot_count(prog, mode)
    got = solve(prog, mode)
    ref = reference_solve(prog, mode, max_pivots=pivots)
    assert got.status == ref.status
    assert got.values == ref.values
    assert got.objective == ref.objective
    if got.values is not None:
        assert [type(v) for v in got.values] == [type(v) for v in ref.values]
    if pivots:
        with pytest.raises(RuntimeError, match="pivot limit"):
            reference_solve(prog, mode, max_pivots=pivots - 1)


_numbers = st.one_of(st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))
_nonnegative = st.one_of(st.integers(0, 3),
                         st.fractions(0, 3, max_denominator=4))


@st.composite
def linear_programs(draw):
    """Small LPs of either sense with <= rows, negative and fractional
    coefficients, right-hand sides >= 0, repeated variables in a row and
    upper bounds x_j <= hi as rows after the others: the LPs solve can
    start from the slack basis."""
    nvars = draw(st.integers(1, 4))
    constraints = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(st.lists(
            st.tuples(st.integers(0, nvars - 1), _numbers),
            min_size=1, max_size=nvars + 1)))
        constraints.append((coeffs, "<=", draw(_nonnegative)))
    for j in range(nvars):
        hi = draw(st.one_of(st.none(), st.integers(0, 3),
                            st.fractions(0, 3, max_denominator=3)))
        if hi is not None:
            constraints.append((((j, 1),), "<=", hi))
    objective = tuple(draw(_numbers) for _ in range(nvars))
    return LinearProgram(draw(st.sampled_from(["min", "max"])), objective,
                         tuple(constraints))


_INFEASIBLE = LinearProgram("min", (1, 1), ((((0, 1), (1, 1)), "<=", -1),))
_COVERING = LinearProgram("min", (1, 1), ((((0, 1), (1, 1)), ">=", 1),))
# an upper bound x_0 <= -1, written as a row after the others
_NEGATIVE_BOUND = LinearProgram("max", (1,), ((((0, 1),), "<=", 1),
                                              (((0, 1),), "<=", -1)))
_UNBOUNDED = LinearProgram("max", (1, Fraction(-1, 2)),
                           ((((0, 1), (1, -2)), "<=", 3),))


@given(linear_programs(), st.sampled_from(["exact-rational", "float"]))
@example(_UNBOUNDED, "exact-rational")
@example(_UNBOUNDED, "float")
@settings(max_examples=300, deadline=None)
def test_solve_matches_reference(prog, mode):
    _assert_same_as_reference(prog, mode)


def test_reference_examples_cover_every_status():
    assert solve(_UNBOUNDED).status == "unbounded"
    assert reference_solve(_INFEASIBLE).status == "infeasible"


@pytest.mark.parametrize("prog", [_INFEASIBLE, _COVERING, _NEGATIVE_BOUND],
                         ids=["negative-rhs", "ge-row", "negative-bound"])
@pytest.mark.parametrize("mode", ["exact-rational", "float"])
def test_rejects_lp_without_slack_start(prog, mode):
    # the slack basis of these LPs is infeasible; solve has no phase 1
    with pytest.raises(ValueError, match="slack basis"):
        solve(prog, mode)


@given(linear_programs())
@settings(max_examples=200, deadline=None)
def test_dual_certifies_optimum(prog):
    # maximizing s * objective (s = -1 for min), w = s * dual is a feasible
    # dual of that max LP with the same value: w >= 0, every column of
    # A^T w is at least s * c_j, and rhs . w = s * optimum
    sol = solve(prog)
    if sol.status != "optimal":
        return
    s = 1 if prog.sense == "max" else -1
    rows = [(coeffs, rhs) for coeffs, _rel, rhs in prog.constraints]
    assert len(sol.dual) == len(rows)
    w = [s * z for z in sol.dual]
    assert all(wi >= 0 for wi in w)
    column = [0] * prog.nvars
    for (coeffs, _rhs), wi in zip(rows, w):
        for j, a in coeffs:
            column[j] += a * wi
    assert all(column[j] >= s * c for j, c in enumerate(prog.objective))
    assert sum(rhs * wi for (_c, rhs), wi in zip(rows, w)) == s * sol.objective


# corpus instances whose reference solves take well under a second
_FAST_CORPUS = [inst for inst in default_corpus(7) if inst.graph.n <= 25]


@pytest.mark.parametrize("inst", _FAST_CORPUS, ids=lambda inst: inst.id)
def test_builders_match_reference_on_corpus(inst):
    g, r = inst.graph, inst.r
    h = inneighbor_hypergraph(augment_from_ordering(g, heuristic_ordering(g), r))
    for prog in (independence_lp(all_balls(g, r)), bmatching_lp(h, 2)):
        _assert_same_as_reference(prog, "exact-rational")


def test_float_mode_bit_identical_to_reference():
    g = grid_graph(2, 30)
    prog = independence_lp(all_balls(g, 1))
    got, ref = solve(prog, "float"), reference_solve(prog, "float")
    assert got.status == ref.status == "optimal"
    assert [v.hex() for v in got.values] == [v.hex() for v in ref.values]
    assert got.objective.hex() == ref.objective.hex()
