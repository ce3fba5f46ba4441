"""Dense two-phase simplex (fraction-free exact or float) and the three
problem-specific LP builders: ball covering, ball packing, b-matching."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from fractions import Fraction as ratio

from .graph import Graph, all_balls

FLOAT_EPS = 1e-9  # zero test of the float simplex and of float thresholds
FLOAT_TOL = 1e-6  # slack when float LP optima are compared or rounded


def ceil_ratio(x) -> int:
    """Ceiling of an exact rational (or float)."""
    if isinstance(x, float):
        import math
        return math.ceil(x - FLOAT_EPS)
    num, den = x.numerator, x.denominator
    return -((-num) // den)


@dataclass(frozen=True)
class LinearProgram:
    """sense is "min" or "max"; constraints are (coeffs, rel, rhs) with
    coeffs a sparse tuple of (var, coefficient) pairs and rel "<=" or ">=";
    bounds[j] = (0, hi) with hi a number or None for +infinity."""

    sense: str
    objective: tuple
    constraints: tuple
    bounds: tuple

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"bad sense {self.sense!r}")
        nvars = len(self.objective)
        if len(self.bounds) != nvars:
            raise ValueError("bounds length must match objective")
        for lo, _hi in self.bounds:
            if lo != 0:
                raise ValueError("only lower bound 0 is supported")
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
    status: str  # optimal | infeasible | unbounded
    values: tuple | None
    objective: object | None


def solve(lp: LinearProgram, mode: str = "exact-rational",
          max_pivots: int = 200_000) -> LpSolution:
    """Optimal basic solution via two-phase tableau simplex: Dantzig
    pricing, with Bland's anti-cycling rule after a run of degenerate
    pivots.  Float mode uses tolerance FLOAT_EPS.  Exact-rational mode is
    fraction-free: each tableau row is a list of ints over one positive
    denominator, divided by their gcd after every elimination, so the
    pivots build no rationals; it takes the pivots a tableau of exact
    rationals would and returns the same rationals."""
    import math

    if mode in ("exact-rational", "exact"):
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
    # dense rows with rhs >= 0; finite upper bounds become extra <= rows
    raw_rows: list[tuple[list, str, object]] = []
    for coeffs, rel, rhs in lp.constraints:
        row = [zero] * nvars
        for j, c in coeffs:
            row[j] = row[j] + conv(c)
        raw_rows.append((row, rel, conv(rhs)))
    for j, (_lo, hi) in enumerate(lp.bounds):
        if hi is not None:
            row = [zero] * nvars
            row[j] = one
            raw_rows.append((row, "<=", conv(hi)))
    for i, (row, rel, rhs) in enumerate(raw_rows):
        if rhs < zero:
            raw_rows[i] = ([-c for c in row], {"<=": ">=", ">=": "<="}[rel], -rhs)

    # columns: variables, one slack per row, one artificial per >= row; the
    # last entry of every row is its rhs.  Row i stands for rows[i] / dens[i]
    # and its basic column holds dens[i] (always 1 in float mode).
    m = len(raw_rows)
    first_art = nvars + m
    ncols = first_art + sum(1 for _r, rel, _b in raw_rows if rel == ">=")
    rows: list[list] = []
    dens: list = []
    basis: list[int] = []
    art = first_art
    for i, (row, rel, rhs) in enumerate(raw_rows):
        den = one
        if exact:  # scale to integers
            den = math.lcm(rhs.denominator, *[c.denominator for c in row])
            row = [c.numerator * (den // c.denominator) for c in row]
            rhs = rhs.numerator * (den // rhs.denominator)
        full = row + [zero] * (ncols - nvars) + [rhs]
        if rel == "<=":
            full[nvars + i] = den
            basis.append(nvars + i)
        else:
            full[nvars + i] = -den
            full[art] = den
            basis.append(art)
            art += 1
        rows.append(full)
        dens.append(den)

    def eliminate(i, e, prow, nz, p):
        # rows[i] -= rows[i][e] * prow / p, where prow[e] == p and nz lists
        # the (column, value) nonzeros of prow
        row = rows[i]
        f = row[e]
        if exact:
            g = gcd(f, p)
            f, p = f // g, p // g
        den = dens[i]
        if p != 1:  # exact mode only
            row = [c * p for c in row]
            den *= p
        for j, q in nz:  # c - f*0 == c in the other columns
            row[j] -= f * q
        if den != 1:  # exact mode only
            g = gcd(den, *row)
            if g > 1:
                row = [c // g for c in row]
                den //= g
        rows[i], dens[i] = row, den

    def pivot(r, e):
        # make column e basic in row r; eliminates it from every other row
        # of `rows`, the objective row included while one is appended
        prow = rows[r]
        p = prow[e]
        if exact:  # divide out the row's gcd, with the sign that makes p > 0
            g = gcd(*prow)
            if p < 0:
                g = -g
            if g != 1:
                prow = [c // g for c in prow]
            p = prow[e]
        else:
            prow = [c / p for c in prow]
            p = one
        rows[r], dens[r] = prow, p
        nz = [(j, q) for j, q in enumerate(prow) if q != zero]
        for i in range(len(rows)):
            if i != r and rows[i][e] != zero:
                eliminate(i, e, prow, nz, p)

    def leaving(e) -> int:
        # minimum ratio b_i / a_i over a_i > 0, ties to the lower basis
        # column; exact mode compares the cross products b_i * a_k and
        # b_k * a_i, float mode the quotients themselves (a = 1)
        leave, best_a, best_b = -1, one, zero
        for i in range(m):
            row = rows[i]
            a = row[e]
            if a > tol:
                b = row[ncols]
                if not exact:
                    a, b = one, b / a
                lhs, rhs = b * best_a, best_b * a
                if (leave < 0 or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leave])):
                    leave, best_a, best_b = i, a, b
        return leave

    pivots = 0

    def run(ncand: int) -> str:
        # maximize over candidate columns 0..ncand-1; the objective row
        # rows[m] holds z_j - c_j and, last, the current objective value.
        # Dantzig pricing normally; Bland's rule takes over after a run of
        # degenerate (non-improving) pivots, which guarantees termination.
        nonlocal pivots
        stall = 0
        while True:
            obj = rows[m]
            enter = -1
            if stall < 20:
                best_red = -tol
                for j in range(ncand):
                    if obj[j] < best_red:
                        best_red = obj[j]
                        enter = j
            else:
                for j in range(ncand):
                    if obj[j] < -tol:
                        enter = j
                        break
            if enter < 0:
                return "optimal"
            leave = leaving(enter)
            if leave < 0:
                return "unbounded"
            pivots += 1
            if pivots > max_pivots:
                raise RuntimeError("simplex pivot limit exceeded")
            f = obj[enter]
            pivot(leave, enter)
            gain = -f * rows[leave][ncols]
            stall = 0 if gain > tol else stall + 1
            basis[leave] = enter

    def push_objective(cost: dict) -> None:
        # append the objective row -cost, priced out against the basis
        obj = [zero] * (ncols + 1)
        den = one
        if exact:
            den = math.lcm(*[c.denominator for c in cost.values()])
            for j, c in cost.items():
                obj[j] = -c.numerator * (den // c.denominator)
        else:
            for j, c in cost.items():
                obj[j] = -c
        rows.append(obj)
        dens.append(den)
        for i, b in enumerate(basis):
            if obj[b] != zero:
                row = rows[i]
                eliminate(m, b, row, [(j, q) for j, q in enumerate(row)
                                      if q != zero], dens[i])
                obj = rows[m]

    if ncols > first_art:
        push_objective({j: -one for j in range(first_art, ncols)})
        status = run(ncols)
        # phase 1 maximizes -(sum of artificials) <= 0; feasible iff the
        # optimum is 0.  An unbounded or positive phase 1 is impossible in
        # exact arithmetic, so in float mode it means the tableau lost its
        # precision and nothing can be concluded.
        feas_cut = 1e-7 if tol else zero
        value = rows[m][ncols]
        if status == "unbounded" or value > feas_cut:
            raise RuntimeError(
                f"simplex phase 1 ended {status} at objective {value} "
                f"(its optimum is at most 0): numerical failure")
        if value < -feas_cut:
            return LpSolution("infeasible", None, None)
        rows.pop()
        dens.pop()
        # drive artificials out of the basis, drop redundant rows
        for i in range(m - 1, -1, -1):
            if basis[i] >= first_art:
                piv_col = -1
                for j in range(first_art):
                    if abs(rows[i][j]) > tol:
                        piv_col = j
                        break
                if piv_col < 0:
                    del rows[i], dens[i], basis[i]
                else:
                    pivot(i, piv_col)
                    basis[i] = piv_col
        m = len(rows)
        # artificial columns never enter again: drop them
        rows = [row[:first_art] + row[ncols:] for row in rows]
        ncols = first_art

    sign = one if lp.sense == "max" else -one
    push_objective({j: sign * conv(c) for j, c in enumerate(lp.objective)})
    if run(ncols) == "unbounded":
        return LpSolution("unbounded", None, None)

    values = [ratio(0) if exact else zero] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            values[b] = ratio(rows[i][ncols], dens[i]) if exact else rows[i][ncols]
    objective = sum(conv(c) * values[j] for j, c in enumerate(lp.objective))
    return LpSolution("optimal", tuple(values), objective)


# ---------------------------------------------------------------------------
# LP builders


def _dedup_rows(supports: Sequence[frozenset]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for s in supports:
        key = frozenset(s)
        if key not in seen:
            seen.add(key)
            out.append(tuple(sorted(key)))
    return out


def domination_lp(g: Graph, r: int) -> LinearProgram:
    """min sum x_v subject to sum_{v in N_r[u]} x_v >= 1 for every u.

    Rows with identical balls are deduplicated; variables are untouched.
    """
    if r < 1:
        raise ValueError("r must be positive")
    # Here and across the pipeline, tuples are built from lists, not from
    # generators.  CPython builds the latter by resizing a 10-slot tuple,
    # so it takes none from the free list of the final size but returns it
    # there when freed; the lists fill up, and only a full garbage
    # collection empties them.
    rows = tuple([(tuple([(v, 1) for v in sup]), ">=", 1)
                  for sup in _dedup_rows(all_balls(g, r))])
    return LinearProgram("min", (1,) * g.n, rows, ((0, None),) * g.n)


def independence_lp(g: Graph, r: int) -> LinearProgram:
    """max sum y_u subject to sum_{u in N_r[v]} y_u <= 1 for every v;
    the exact dual of domination_lp over the same (symmetric) ball system."""
    if r < 1:
        raise ValueError("r must be positive")
    rows = tuple([(tuple([(u, 1) for u in sup]), "<=", 1)
                  for sup in _dedup_rows(all_balls(g, r))])
    return LinearProgram("max", (1,) * g.n, rows, ((0, None),) * g.n)


def bmatching_lp(h, b: int) -> LinearProgram:
    """max sum m_e subject to sum_{e containing v} m_e <= b, 0 <= m_e <= 1.

    Variables follow the hypergraph's edge order.
    """
    if b < 1:
        raise ValueError("b must be positive")
    ne = len(h.edges)
    incident: dict[int, list[int]] = {}
    for j, (_label, members) in enumerate(h.edges):
        for v in members:
            incident.setdefault(v, []).append(j)
    rows = tuple([(tuple([(j, 1) for j in js]), "<=", b)
                  for _v, js in sorted(incident.items())])
    return LinearProgram("max", (1,) * ne, rows, ((0, 1),) * ne)


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text inequality dump for external cross-checking."""
    lines = [f"{lp.sense} " + " + ".join(
        f"{c}*v{j}" for j, c in enumerate(lp.objective) if c != 0)]
    for coeffs, rel, rhs in lp.constraints:
        lhs = " + ".join(f"{c}*v{j}" if c != 1 else f"v{j}" for j, c in coeffs)
        lines.append(f"{lhs} {rel} {rhs}")
    for j, (_lo, hi) in enumerate(lp.bounds):
        lines.append(f"0 <= v{j}" + (f" <= {hi}" if hi is not None else ""))
    return "\n".join(lines) + "\n"
