"""Reference solver: the dense two-phase Bland simplex over Scalar entries.

This is the solver hvlab shipped before its tableau moved to integer rows;
it is kept here, its pivoting unchanged, only so that the tests can demand that
``hvlab.simplex.solve_lp`` returns exactly the same ``LpSolution`` (same
pivots, so the same primal vertex and dual vector, not just the same
optimum).  Every entry is a Scalar and every decision an exact Scalar
comparison.  Its dense rows of Scalars are rebuilt from the matrix's
columns, the one view a ``Matrix`` holds, with none of the int
arithmetic the solver scatters them into.

It keeps the phase one that ``solve_lp`` no longer has: a problem with a
negative right-hand side, which ``solve_lp`` refuses, is solved here, and
may end ``INFEASIBLE``, a status only this reference returns.  With
``b >= 0`` phase one never runs, and the two solvers must agree.
"""

from __future__ import annotations

from typing import Sequence

from hvlab.scalar import ONE, ZERO, Scalar
from hvlab.simplex import OPTIMAL, UNBOUNDED, LpProblem, LpSolution

INFEASIBLE = "infeasible"


def dense_rows(columns: Sequence[Sequence[tuple[int, Scalar]]], m: int) -> list[list[Scalar]]:
    """The m dense rows of Scalars whose columns' nonzero entries are
    ``columns``, as ``(row, Scalar)`` pairs."""
    rows = [[ZERO] * len(columns) for _ in range(m)]
    for j, column in enumerate(columns):
        for i, v in column:
            rows[i][j] = v
    return rows


class _Tableau:
    """Dense simplex tableau with an explicit reduced-cost row."""

    def __init__(self, rows: list[list[Scalar]], rhs: list[Scalar], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.zrow: list[Scalar] = []
        self.zval: Scalar = ZERO

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def set_objective(self, cost: Sequence[Scalar]) -> None:
        """Recompute reduced costs z_j - c_j for the current basis."""
        zrow = [-c for c in cost]
        zval = ZERO
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb.is_zero():
                continue
            row = self.rows[i]
            for j in range(len(zrow)):
                if not row[j].is_zero():
                    zrow[j] = zrow[j] + cb * row[j]
            zval = zval + cb * self.rhs[i]
        self.zrow = zrow
        self.zval = zval

    def pivot(self, r: int, c: int) -> None:
        rows, rhs, zrow = self.rows, self.rhs, self.zrow
        pivot_row = rows[r]
        inv = ONE / pivot_row[c]
        # Only the nonzero columns of the pivot row change anything.
        nonzero = [j for j, v in enumerate(pivot_row) if not v.is_zero()]
        for j in nonzero:
            pivot_row[j] = pivot_row[j] * inv
        rhs[r] = rhs[r] * inv
        pivot_rhs = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            factor = row[c]
            if factor.is_zero():
                continue
            for j in nonzero:
                row[j] = row[j] - factor * pivot_row[j]
            rhs[i] = rhs[i] - factor * pivot_rhs
        factor = zrow[c]
        if not factor.is_zero():
            for j in nonzero:
                zrow[j] = zrow[j] - factor * pivot_row[j]
            self.zval = self.zval - factor * pivot_rhs
        self.basis[r] = c

    def run_bland(self, allowed: Sequence[bool]) -> str:
        """Pivot until optimal or unbounded; allowed masks enterable columns."""
        while True:
            entering = -1
            for j in range(self.ncols):
                if allowed[j] and self.zrow[j].sign() < 0:
                    entering = j
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best_ratio: Scalar | None = None
            for i, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff.sign() <= 0:
                    continue
                ratio = self.rhs[i] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)


def reference_solve_lp(problem: LpProblem) -> LpSolution:
    """The Scalar-tableau simplex, pivot for pivot as ``hvlab.simplex``."""
    n = len(problem.c)
    m = len(problem.b)
    if m == 0:
        # Only q >= 0 remains: unbounded along any rewarded coordinate.
        if any(cj.sign() > 0 for cj in problem.c):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, (ZERO,) * n, ZERO, ())

    negated = [problem.b[i].sign() < 0 for i in range(m)]
    artificial_rows = [i for i in range(m) if negated[i]]
    n_art = len(artificial_rows)
    ncols = n + m + n_art

    rows: list[list[Scalar]] = []
    rhs: list[Scalar] = []
    basis: list[int] = []
    art_col = {row: n + m + k for k, row in enumerate(artificial_rows)}
    matrix = dense_rows(problem.A.columns, m)
    for i in range(m):
        sign = -ONE if negated[i] else ONE
        row = [-v for v in matrix[i]] if negated[i] else matrix[i]
        row += [sign if k == i else ZERO for k in range(m)]
        row += [ONE if art_col.get(i) == n + m + k else ZERO for k in range(n_art)]
        rows.append(row)
        rhs.append(-problem.b[i] if negated[i] else problem.b[i])
        basis.append(art_col[i] if negated[i] else n + i)

    tableau = _Tableau(rows, rhs, basis)

    if n_art:
        phase1_cost = [ZERO] * (n + m) + [-ONE] * n_art
        tableau.set_objective(phase1_cost)
        status = tableau.run_bland([True] * ncols)
        assert status == OPTIMAL  # phase one is bounded above by zero
        if tableau.zval.sign() < 0:
            return LpSolution(INFEASIBLE)
        # Drive zero-valued artificials out of the basis; rows where no
        # structural or slack column can pivot are redundant and dropped.
        drop: list[int] = []
        for i in range(len(tableau.basis)):
            if tableau.basis[i] < n + m:
                continue
            pivot_col = -1
            for j in range(n + m):
                if not tableau.rows[i][j].is_zero():
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tableau.pivot(i, pivot_col)
            else:
                drop.append(i)
        for i in reversed(drop):
            del tableau.rows[i]
            del tableau.rhs[i]
            del tableau.basis[i]
        for i in range(len(tableau.rows)):
            tableau.rows[i] = tableau.rows[i][: n + m]

    phase2_cost = list(problem.c) + [ZERO] * m
    tableau.set_objective(phase2_cost)
    status = tableau.run_bland([True] * (n + m))
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            q[bi] = tableau.rhs[i]
    # Reduced cost of slack i is the dual multiplier of constraint i;
    # for dropped redundant rows the slack column is zero, giving dual 0.
    dual = tuple(tableau.zrow[n + i] for i in range(m))
    return LpSolution(OPTIMAL, tuple(q), tableau.zval, dual)
