"""The simplex of distdom.lp before its exact mode went fraction-free and
lost its phase 1: one two-phase tableau of exact rationals
(fractions.Fraction) or of floats, dense eliminations.  Kept as the
reference that distdom.lp.solve must match pivot for pivot, and as the
solver of LPs that solve cannot start, such as the covering LP.  Also the
b-matching LP builder, which only the tests use.  Variables are
nonnegative; an upper bound x_j <= hi is a "<=" row, which bmatching_lp
and the LPs of tests/test_lp.py place after the other rows."""
from __future__ import annotations

from fractions import Fraction as ratio

from distdom.lp import FLOAT_EPS, LinearProgram, LpSolution


def reference_solve(lp: LinearProgram, mode: str = "exact-rational",
                    max_pivots: int = 200_000) -> LpSolution:
    """Optimal basic solution and its dual via two-phase tableau simplex
    with Bland's anti-cycling rule.  Exact-rational mode pivots on
    arbitrary-precision rationals; float mode uses tolerance FLOAT_EPS."""
    if mode in ("exact-rational", "exact"):
        conv, tol = lambda v: ratio(v), ratio(0)
    elif mode == "float":
        conv, tol = float, FLOAT_EPS
    else:
        raise ValueError(f"unknown solve mode {mode!r}")
    zero, one = conv(0), conv(1)

    nvars = lp.nvars
    # dense rows
    raw_rows: list[tuple[list, str, object]] = []
    for coeffs, rel, rhs in lp.constraints:
        row = [zero] * nvars
        for j, c in coeffs:
            row[j] = row[j] + conv(c)
        raw_rows.append((row, rel, conv(rhs)))

    m = len(raw_rows)
    nslack = m
    art_cols: list[int] = []
    ncols = nvars + nslack
    rows: list[list] = []
    basis: list[int] = []
    for i, (row, rel, rhs) in enumerate(raw_rows):
        if rhs < zero:
            row = [-c for c in row]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<="}[rel]
        full = row + [zero] * nslack
        if rel == "<=":
            full[nvars + i] = one
            basis.append(nvars + i)
        else:
            full[nvars + i] = -one
            art_cols.append(ncols)
            basis.append(ncols)
            ncols += 1
        rows.append(full + [rhs])
    for r in rows:  # widen to final column count (+1 for rhs)
        rhs = r.pop()
        r.extend([zero] * (ncols - len(r)))
        r.append(rhs)
    for i, b in enumerate(basis):
        if b in art_cols:
            rows[i][b] = one

    banned = [False] * ncols
    pivots = [0]

    def run(obj: list, obj_rhs):
        # maximize; obj holds z_j - c_j entries, obj_rhs the current value.
        # Dantzig pricing normally; Bland's rule takes over after a run of
        # degenerate (non-improving) pivots, which guarantees termination.
        box = [obj_rhs]
        stall = 0
        while True:
            enter = -1
            if stall < 20:
                best_red = -tol
                for j in range(ncols):
                    if not banned[j] and obj[j] < best_red:
                        best_red = obj[j]
                        enter = j
            else:
                for j in range(ncols):
                    if not banned[j] and obj[j] < -tol:
                        enter = j
                        break
            if enter < 0:
                return "optimal", box[0]
            leave, best = -1, None
            for i in range(m):
                a = rows[i][enter]
                if a > tol:
                    q = rows[i][ncols] / a
                    if best is None or q < best or (q == best and basis[i] < basis[leave]):
                        leave, best = i, q
            if leave < 0:
                return "unbounded", box[0]
            pivots[0] += 1
            if pivots[0] > max_pivots:
                raise RuntimeError("simplex pivot limit exceeded")
            piv = rows[leave][enter]
            rows[leave] = [c / piv for c in rows[leave]]
            prow = rows[leave]
            for i in range(m):
                if i != leave and rows[i][enter] != zero:
                    f = rows[i][enter]
                    rows[i] = [c - f * p for c, p in zip(rows[i], prow)]
            f = obj[enter]
            if f != zero:
                for j in range(ncols):
                    obj[j] = obj[j] - f * prow[j]
                gain = -f * prow[ncols]
                box[0] = box[0] + gain
                stall = 0 if gain > tol else stall + 1
            basis[leave] = enter

    def priced_obj(cost: dict) -> tuple[list, object]:
        obj = [zero] * ncols
        for j, c in cost.items():
            obj[j] = -c
        obj_rhs = zero
        for i, b in enumerate(basis):
            if obj[b] != zero:
                f = obj[b]
                for j in range(ncols):
                    obj[j] = obj[j] - f * rows[i][j]
                obj_rhs = obj_rhs - f * rows[i][ncols]
        return obj, obj_rhs

    if art_cols:
        obj, obj_rhs = priced_obj({j: -one for j in art_cols})
        status, value = run(obj, obj_rhs)
        # phase 1 maximizes -(sum of artificials); feasible iff optimum is 0
        feas_cut = -1e-7 if tol else zero
        if status != "optimal" or value < feas_cut:
            return LpSolution("infeasible", None, None)
        # drive artificials out of the basis, drop redundant rows
        for i in range(m - 1, -1, -1):
            if basis[i] in art_cols:
                piv_col = -1
                for j in range(ncols):
                    if j not in art_cols and abs(rows[i][j]) > tol:
                        piv_col = j
                        break
                if piv_col < 0:
                    del rows[i]
                    del basis[i]
                else:
                    piv = rows[i][piv_col]
                    rows[i] = [c / piv for c in rows[i]]
                    prow = rows[i]
                    for ii in range(len(rows)):
                        if ii != i and rows[ii][piv_col] != zero:
                            f = rows[ii][piv_col]
                            rows[ii] = [c - f * p for c, p in zip(rows[ii], prow)]
                    basis[i] = piv_col
        m = len(rows)
        for j in art_cols:
            banned[j] = True

    sign = one if lp.sense == "max" else -one
    cost = {j: sign * conv(c) for j, c in enumerate(lp.objective)}
    obj, obj_rhs = priced_obj(cost)
    status, _value = run(obj, obj_rhs)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    values = [zero] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            values[b] = rows[i][ncols]
    objective = sum(conv(c) * values[j] for j, c in enumerate(lp.objective))
    # the dual value of constraint i is the reduced cost of its slack
    # column nvars + i, negated for a ">=" row (the slack enters with -1)
    dual = [sign * obj[nvars + i] if rel == "<=" else -sign * obj[nvars + i]
            for i, (_coeffs, rel, _rhs) in enumerate(lp.constraints)]
    return LpSolution("optimal", tuple(values), objective, tuple(dual))


def bmatching_lp(h, b: int) -> LinearProgram:
    """max sum m_e subject to sum_{e containing v} m_e <= b, 0 <= m_e <= 1.

    Variable j is edge j of the hypergraph.  The rows m_e <= 1 come after
    the vertex rows.
    """
    if b < 1:
        raise ValueError("b must be positive")
    ne = len(h.edges)
    incident: dict[int, list[int]] = {}
    for j, members in enumerate(h.edges):
        for v in members:
            incident.setdefault(v, []).append(j)
    rows = [(tuple([(j, 1) for j in js]), "<=", b)
            for _v, js in sorted(incident.items())]
    rows += [(((j, 1),), "<=", 1) for j in range(ne)]
    return LinearProgram("max", (1,) * ne, tuple(rows))
