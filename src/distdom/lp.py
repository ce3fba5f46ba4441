"""Dense simplex from the slack basis (fraction-free exact or float), the
ball covering and ball packing LP builders, the covering optimum read
from the packing dual, and the one reading of an LP answer: how its values
are compared (exactly, or with float slack) and the duality certificate."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as ratio
from itertools import compress
from operator import itemgetter
from typing import Sequence

from .graph import VertexSet
from .graph import all_balls  # unused; a patch point of perfbench/tracer.py

FLOAT_EPS = 1e-9  # zero test of the float simplex; slack of a float threshold
FLOAT_TOL = 1e-6  # slack when float sums or optima are compared


@dataclass(frozen=True)
class LinearProgram:
    """sense is "min" or "max"; constraints are (coeffs, rel, rhs) with
    coeffs a sparse tuple of (var, coefficient) pairs and rel "<=" or ">=".
    Every variable is nonnegative; an upper bound is a "<=" row."""

    sense: str
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"bad sense {self.sense!r}")
        nvars = len(self.objective)
        for coeffs, rel, _rhs in self.constraints:
            if not coeffs:
                raise ValueError("empty constraint row")
            if rel not in ("<=", ">="):
                raise ValueError(f"bad relation {rel!r}")
            for j, _c in coeffs:
                if not 0 <= j < nvars:
                    raise ValueError(f"variable index {j} out of range")

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | unbounded
    values: tuple | None
    objective: object | None
    # optimal dual: one value per constraint; sum(rhs_i * dual_i) equals
    # the objective
    dual: tuple | None = None


def solve(lp: LinearProgram, mode: str = "exact-rational",
          max_pivots: int = 200_000) -> LpSolution:
    """Optimal basic solution and its dual via tableau simplex from the
    slack basis: Dantzig pricing, with Bland's anti-cycling rule after a
    run of degenerate pivots.  The slack basis must be feasible, so every
    constraint must be a "<=" row with rhs >= 0; any other LP raises
    ValueError.  Float mode uses tolerance FLOAT_EPS.  Exact-rational mode
    is fraction-free: each tableau row is a list of ints over one positive
    denominator, divided by their gcd after every elimination, so the
    pivots build no rationals; it takes the pivots a tableau of exact
    rationals would and returns the same rationals.

    The tableau is dense, but a pivot costs (hit rows) x (pivot-row
    nonzeros) Python-level updates, where the hit rows are those with a
    nonzero in the entering column, plus C-level scans of one row and one
    column: pricing, finding the hit rows and the pivot row's nonzeros.
    The packing LP of a random tree (n = 200-250) stays sparse, with 6-11
    hit rows and 7-16 nonzeros per pivot on average, and solves in 4-8 ms
    on a 2-vCPU x86-64 virtual machine with Python 3.11.  That of the
    2 x 100 ladder fills in: about 1.7 million row updates in 300 pivots,
    about 90 ms."""
    if mode == "exact-rational":
        exact, tol = True, 0
        conv = lambda v: v if isinstance(v, int) else ratio(v)
    elif mode == "float":
        exact, tol = False, FLOAT_EPS
        conv = float
    else:
        raise ValueError(f"unknown solve mode {mode!r}")
    zero, one = conv(0), conv(1)
    gcd = math.gcd

    nvars = lp.nvars
    if any(rel != "<=" for _coeffs, rel, _rhs in lp.constraints):
        raise ValueError("solve starts from the slack basis: "
                         "a '>=' row has no feasible slack")
    # dense rows.  Columns: variables, then one slack per row; the last
    # entry of every row is its rhs.  Row i stands for rows[i] / dens[i]
    # and its basic column holds dens[i] (always 1 in float mode).  The
    # objective row rows[m] holds z_j - c_j and, last, the current
    # objective value.
    m = len(lp.constraints)
    ncols = nvars + m
    rows: list[list] = []
    dens: list = []
    for i, (coeffs, _rel, rhs) in enumerate(lp.constraints):
        row = [zero] * (ncols + 1)
        for j, c in coeffs:
            row[j] += conv(c)
        row[ncols] = conv(rhs)
        if row[ncols] < zero:
            raise ValueError("solve starts from the slack basis: a negative "
                             "right-hand side has no feasible slack")
        den = one
        if exact:  # scale to integers; the other entries are the int 0
            nonzero = {j for j, _c in coeffs}
            nonzero.add(ncols)
            den = math.lcm(*[row[j].denominator for j in nonzero])
            for j in nonzero:
                row[j] = row[j].numerator * (den // row[j].denominator)
        row[nvars + i] = den
        rows.append(row)
        dens.append(den)
    basis = list(range(nvars, ncols))
    # maximize sign * objective; the slacks cost 0, so the row of -cost is
    # already priced out against the slack basis
    sign = one if lp.sense == "max" else -one
    cost = [sign * conv(c) for c in lp.objective]
    obj = [zero] * (ncols + 1)
    den = one
    if exact:
        den = math.lcm(*[c.denominator for c in cost])
        for j, c in enumerate(cost):
            obj[j] = -c.numerator * (den // c.denominator)
    else:
        for j, c in enumerate(cost):
            obj[j] = -c
    rows.append(obj)
    dens.append(den)

    # Dantzig pricing normally; Bland's rule takes over after a run of
    # degenerate (non-improving) pivots, which guarantees termination.
    # Each pivot does Python-level work only on the rows whose entry in the
    # entering column is nonzero and on the pivot row's nonzero columns; the
    # scans that find them run in C.
    all_rows, all_cols = range(m + 1), range(ncols + 1)
    pivots = stall = 0
    while True:
        obj = rows[m]
        if stall < 20:
            best_red = min(obj[:ncols], default=zero)
            enter = obj.index(best_red) if best_red < -tol else -1
        else:
            enter = -1
            for j in range(ncols):
                if obj[j] < -tol:
                    enter = j
                    break
        if enter < 0:
            break
        # the rows with a nonzero in the entering column, in index order;
        # the objective row is always one of them, and the last
        hits = list(compress(all_rows, map(itemgetter(enter), rows)))

        # minimum ratio b_i / a_i over a_i > 0, ties to the lower basis
        # column; exact mode compares the cross products b_i * a_k and
        # b_k * a_i, float mode the quotients themselves
        leave = -1
        if exact:
            best_a, best_b = 1, 0
            for i in hits[:-1]:
                row = rows[i]
                a = row[enter]
                if a > 0:
                    b = row[ncols]
                    lhs, rhs = b * best_a, best_b * a
                    if (leave < 0 or lhs < rhs
                            or (lhs == rhs and basis[i] < basis[leave])):
                        leave, best_a, best_b = i, a, b
        else:
            best_q = zero
            for i in hits[:-1]:
                row = rows[i]
                a = row[enter]
                if a > tol:
                    q = row[ncols] / a
                    if (leave < 0 or q < best_q
                            or (q == best_q and basis[i] < basis[leave])):
                        leave, best_q = i, q
        if leave < 0:
            return LpSolution("unbounded", None, None)
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("simplex pivot limit exceeded")
        f_obj = obj[enter]

        # make column enter basic in row leave: exact mode divides out the
        # row's gcd, with the sign that makes the pivot positive, and float
        # mode divides by the pivot; zeros stay as they are
        prow = rows[leave]
        p = prow[enter]
        cols = list(compress(all_cols, prow))
        if exact:
            g = gcd(*prow)
            if p < 0:
                g = -g
            if g != 1:
                for j in cols:
                    prow[j] //= g
                p = prow[enter]
        else:
            for j in cols:
                prow[j] /= p
            p = one
        dens[leave] = p
        nz = [(j, prow[j]) for j in cols]

        # eliminate column enter from every other hit row, the objective
        # row included: rows[i] -= rows[i][enter] * prow / p
        if exact:
            for i in hits:
                if i == leave:
                    continue
                row = rows[i]
                f = row[enter]
                g = gcd(f, p)
                f, q = f // g, p // g
                den = dens[i]
                if q != 1:
                    row = [c * q for c in row]
                    den *= q
                for j, c in nz:
                    row[j] -= f * c
                if den != 1:
                    g = gcd(den, *row)
                    if g > 1:
                        row = [c // g for c in row]
                        den //= g
                rows[i], dens[i] = row, den
        else:
            for i in hits:
                if i != leave:
                    row = rows[i]
                    f = row[enter]
                    for j, c in nz:
                        row[j] -= f * c

        gain = -f_obj * prow[ncols]
        stall = 0 if gain > tol else stall + 1
        basis[leave] = enter

    values = [ratio(0) if exact else zero] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            values[b] = ratio(rows[i][ncols], dens[i]) if exact else rows[i][ncols]
    objective = sum([conv(c) * values[j] for j, c in enumerate(lp.objective)],
                    zero)
    # the dual value of row i is the reduced cost of its slack
    obj, den = rows[m], dens[m]
    if exact:
        dual = [sign * ratio(obj[j], den) for j in range(nvars, ncols)]
    else:
        dual = [sign * obj[j] for j in range(nvars, ncols)]
    return LpSolution("optimal", tuple(values), objective, tuple(dual))


# ---------------------------------------------------------------------------
# LP builders


def _ball_owners(balls: Sequence[VertexSet]) -> list[int]:
    """The smallest vertex of each distinct ball of a ball table, in vertex
    order.  Row i of both LP builders is the ball of owners[i]."""
    seen = set()
    owners = []
    for v, ball_v in enumerate(balls):
        if ball_v not in seen:
            seen.add(ball_v)
            owners.append(v)
    return owners


def domination_lp(balls: Sequence[VertexSet]) -> LinearProgram:
    """min sum x_v subject to sum_{v in N_r[u]} x_v >= 1 for every u, over
    the ball table balls = all_balls(g, r).

    Rows with identical balls are deduplicated; variables are untouched.
    solve() cannot start this LP; covering_from_packing reads its optimum
    from the dual of independence_lp.
    """
    n = len(balls)
    # Here and across the pipeline, tuples are built from lists, not from
    # generators.  CPython builds the latter by resizing a 10-slot tuple,
    # so it takes none from the free list of the final size but returns it
    # there when freed; the lists fill up, and only a full garbage
    # collection empties them.
    rows = tuple([(tuple([(v, 1) for v in sorted(balls[c])]), ">=", 1)
                  for c in _ball_owners(balls)])
    return LinearProgram("min", (1,) * n, rows)


def independence_lp(balls: Sequence[VertexSet]) -> LinearProgram:
    """max sum y_u subject to sum_{u in N_r[v]} y_u <= 1 for every v;
    the exact dual of domination_lp over the same (symmetric) ball table."""
    n = len(balls)
    rows = tuple([(tuple([(u, 1) for u in sorted(balls[c])]), "<=", 1)
                  for c in _ball_owners(balls)])
    return LinearProgram("max", (1,) * n, rows)


def covering_from_packing(balls: Sequence[VertexSet],
                          y: LpSolution) -> LpSolution:
    """The covering optimum read from the dual of an optimal solution y of
    independence_lp(balls), where balls is all_balls(g, r): the dual value
    z_B of ball row B goes to x_c, where c is the smallest vertex with
    N_r[c] = B, and every other x_v is 0.  Balls are symmetric (c in N_r[u]
    iff u in N_r[c]), so the balls of u's x-mass are exactly the rows that
    contain u, and dual feasibility (their z sum to at least 1) is covering
    feasibility.  The objective is sum(x) = sum(z), which is alpha* by
    strong duality."""
    if y.status != "optimal" or y.dual is None:
        raise ValueError("need an optimal packing solution with its dual")
    owners = _ball_owners(balls)
    if len(y.dual) != len(owners) or len(y.values) != len(balls):
        raise ValueError("the packing solution does not match the ball table")
    zero = ratio(0) if _exact(y.objective) else 0.0
    values = [zero] * len(balls)
    for c, z in zip(owners, y.dual):
        values[c] = z
    return LpSolution("optimal", tuple(values), sum(values, zero))


# ---------------------------------------------------------------------------
# Reading an LP answer.  Exact answers are compared exactly; float answers
# get FLOAT_EPS slack on a threshold and FLOAT_TOL slack on a sum or an
# optimum.


def _exact(value) -> bool:
    """Whether an LP optimum is exact: only float mode gives float optima."""
    return not isinstance(value, float)


def threshold(sol: LpSolution, a: int):
    """The least value of the answer sol that counts as >= 1/a."""
    return ratio(1, a) if _exact(sol.objective) else 1 / a - FLOAT_EPS


def tolerance(optimum):
    """The slack of a comparison of sums or optima with the LP optimum
    optimum: 0 if it is exact, FLOAT_TOL if it is a float."""
    return 0 if _exact(optimum) else FLOAT_TOL


def _scaled(sol: LpSolution) -> tuple[Sequence, object]:
    """The values of sol and the value 1 on one scale: exact values become
    integers over their least common denominator, so that sums of them are
    integer sums, not Fraction sums."""
    if not _exact(sol.objective):
        return sol.values, 1
    den = math.lcm(*[v.denominator for v in sol.values])
    return [v.numerator * (den // v.denominator) for v in sol.values], den


def certify(balls: Sequence[VertexSet], x: LpSolution, y: LpSolution) -> bool:
    """The duality certificate over the ball table balls = all_balls(g, r):
    the covering solution x puts at least 1, and the packing solution y at
    most 1, on every distinct ball.  With sum(x) = sum(y) both are optimal."""
    (xs, x_one), (ys, y_one) = _scaled(x), _scaled(y)
    x_min = x_one - tolerance(x.objective)
    y_max = y_one + tolerance(y.objective)
    for c in _ball_owners(balls):
        ball = balls[c]
        if (sum([xs[v] for v in ball]) < x_min
                or sum([ys[v] for v in ball]) > y_max):
            return False
    return True
