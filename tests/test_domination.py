import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdom.augment import (augment_from_ordering, indegree_profile,
                             orientation_augmentation)
from distdom.domination import guarantee_factor, round_dominating
from distdom.graph import all_balls, from_edges
from distdom.lp import LpSolution, domination_lp, ratio, solve
from distdom.oracles import OracleBudget, brute_gamma_r
from distdom.ordering import heuristic_ordering

from conftest import graphs


def test_guarantee_factor_orientation_case():
    # Delta_0 = 1, Delta_1 = d+1 collapses to 2d+1
    g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    aug = orientation_augmentation(g, [(i, (i + 1) % 5) for i in range(5)])
    fac = guarantee_factor(indegree_profile(aug), 1)
    assert fac.a == 3
    assert fac.r1_factor == 3


def test_guarantee_factor_square_bound():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    ordering = heuristic_ordering(g)
    for r in (1, 2):
        prof = indegree_profile(augment_from_ordering(g, ordering, r))
        fac = guarantee_factor(prof, r)
        assert fac.a <= fac.squared_bound == prof.delta[r] ** 2


def test_guarantee_factor_edgeless():
    g = from_edges(3, [])
    prof = indegree_profile(augment_from_ordering(g, heuristic_ordering(g), 1))
    assert guarantee_factor(prof, 1).a == 1


def test_c5_uniform_rounding(cycle5):
    # hand-run: a = 3, threshold 1/3 puts every vertex in X_0
    aug = orientation_augmentation(cycle5, [(i, (i + 1) % 5) for i in range(5)])
    x = LpSolution("optimal", (ratio(1, 3),) * 5, ratio(5, 3))
    res = round_dominating(cycle5, aug, x, heuristic_ordering(cycle5))
    assert res.x0_size == 5 and res.vertices == frozenset(range(5))
    assert res.a == 3 and res.valid and res.bound_ok
    assert len(res.vertices) <= 3 * res.lp_value


def test_concentrated_mass_star(star5):
    # integral LP mass: X_0 is already dominating, the sweep adds nothing
    aug = augment_from_ordering(star5, heuristic_ordering(star5), 1)
    x = LpSolution("optimal", (1, 0, 0, 0, 0), 1)
    res = round_dominating(star5, aug, x, heuristic_ordering(star5))
    assert res.vertices == {0}
    assert res.x0_size == len(res.vertices)


def test_infeasible_solution_rejected(cycle5):
    aug = augment_from_ordering(cycle5, heuristic_ordering(cycle5), 1)
    x = LpSolution("optimal", (ratio(1, 10),) * 5, ratio(1, 2))
    with pytest.raises(ValueError, match="infeasible"):
        round_dominating(cycle5, aug, x, heuristic_ordering(cycle5))


def test_non_optimal_solution_rejected(cycle5):
    aug = augment_from_ordering(cycle5, heuristic_ordering(cycle5), 1)
    with pytest.raises(ValueError):
        round_dominating(cycle5, aug, LpSolution("infeasible", None, None),
                         heuristic_ordering(cycle5))


@given(graphs(min_n=1, max_n=8), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_rounding_valid_and_bounded(g, r):
    ordering = heuristic_ordering(g)
    aug = augment_from_ordering(g, ordering, r)
    x = solve(domination_lp(g, r))
    res = round_dominating(g, aug, x, ordering)
    balls = all_balls(g, r)
    assert all(balls[v] & res.vertices for v in range(g.n))
    assert len(res.vertices) <= res.a * x.objective


@given(graphs(min_n=1, max_n=8), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_oracle_sandwich(g, r):
    ordering = heuristic_ordering(g)
    aug = augment_from_ordering(g, ordering, r)
    x = solve(domination_lp(g, r))
    res = round_dominating(g, aug, x, ordering)
    gamma = brute_gamma_r(g, r, OracleBudget(max_vertices=8)).value
    assert gamma <= len(res.vertices) <= res.a * gamma


def test_float_mode_rounding(cycle5):
    aug = augment_from_ordering(cycle5, heuristic_ordering(cycle5), 1)
    x = solve(domination_lp(cycle5, 1), "float")
    res = round_dominating(cycle5, aug, x, heuristic_ordering(cycle5))
    assert res.valid and res.bound_ok


def test_result_json(cycle5):
    import json
    aug = augment_from_ordering(cycle5, heuristic_ordering(cycle5), 1)
    res = round_dominating(cycle5, aug, solve(domination_lp(cycle5, 1)),
                           heuristic_ordering(cycle5))
    obj = json.loads(res.to_json())
    assert obj["valid"] and obj["bound_ok"]
    assert sorted(obj["set"]) == sorted(res.vertices)
