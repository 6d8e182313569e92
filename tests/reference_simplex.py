"""Reference solver: the dense Bland simplex over Scalar entries.

This is the solver hvlab shipped before its tableau moved to integer rows;
it is kept here, its pivoting unchanged, only so that the tests can demand that
``hvlab.simplex.solve_lp`` returns exactly the same ``LpSolution`` (same
pivots, so the same primal vertex and dual vector, not just the same
optimum).  Every entry is a Scalar and every decision an exact Scalar
comparison.  Its dense rows are rebuilt from the matrix's columns of int
entries, the one view a ``Matrix`` holds, and each entry made a Scalar,
with none of the int arithmetic the solver scatters them into.

Like ``solve_lp`` it starts from the slack basis and runs one Bland
phase, so it needs ``b >= 0``.
"""

from __future__ import annotations

from typing import Sequence

from hvlab.scalar import ONE, ZERO, Scalar
from hvlab.simplex import OPTIMAL, UNBOUNDED, LpProblem, LpSolution


def dense_rows(columns: Sequence[Sequence[tuple[int, int]]], m: int) -> list[list[int]]:
    """The m dense rows of ints whose columns' nonzero entries are
    ``columns``, as ``(row, int)`` pairs."""
    rows = [[0] * len(columns) for _ in range(m)]
    for j, column in enumerate(columns):
        for i, v in column:
            rows[i][j] = v
    return rows


class _Tableau:
    """Dense simplex tableau with an explicit reduced-cost row."""

    def __init__(self, rows: list[list[Scalar]], rhs: list[Scalar], cost: Sequence[Scalar]):
        # The slack basis costs nothing, so the reduced costs start at -c.
        self.rows = rows
        self.rhs = rhs
        self.basis = [len(cost) - len(rows) + i for i in range(len(rows))]
        self.zrow = [-c for c in cost]
        self.zval = ZERO

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

    def run_bland(self) -> str:
        """Pivot until optimal or unbounded."""
        while True:
            entering = -1
            for j, z in enumerate(self.zrow):
                if z.sign() < 0:
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
    """The Scalar-tableau simplex from the slack basis, pivot for pivot as
    ``hvlab.simplex``; b must be nonnegative."""
    n = len(problem.c)
    m = len(problem.b)
    matrix = dense_rows(problem.A.columns, m)
    rows = [[Scalar(a) for a in matrix[i]] + [ONE if k == i else ZERO for k in range(m)] for i in range(m)]
    tableau = _Tableau(rows, list(problem.b), list(problem.c) + [ZERO] * m)
    if tableau.run_bland() == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            q[bi] = tableau.rhs[i]
    # Reduced cost of slack i is the dual multiplier of constraint i.
    dual = tuple(tableau.zrow[n + i] for i in range(m))
    return LpSolution(OPTIMAL, tuple(q), tableau.zval, dual)
