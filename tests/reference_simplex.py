"""Reference solver: the dense simplex over Scalar entries.

This is the solver hvlab shipped before its tableau moved to integer rows,
its pivoting rule since brought in line with ``hvlab.simplex``'s; it is kept
here only so that the tests can demand that
``hvlab.simplex.solve_lp`` returns exactly the same ``LpSolution`` (same
pivots, so the same primal vertex and dual vector, not just the same
optimum).  It keeps the bases of a degenerate run as sets, as the
solver does.  Every entry is a Scalar and every decision an exact Scalar
comparison.  Its dense rows are rebuilt from the matrix's columns of int
entries, the one view a ``Matrix`` holds, and each entry made a Scalar,
with none of the int arithmetic the solver scatters them into.

Like ``solve_lp`` it starts from the slack basis and runs one phase,
so it needs ``b >= 0``.
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

    def run(self) -> str:
        """Pivot until optimal or unbounded.  Enter the most negative
        reduced cost, the lowest variable on ties, or the lowest negative
        one (Bland's rule) once a run of degenerate pivots has come back to
        a basis it saw, until the next pivot that is not degenerate; leave
        by minimum ratio, the lowest basic variable on ties."""
        seen: set[frozenset[int]] = set()
        bland = False
        while True:
            negative = [j for j, z in enumerate(self.zrow) if z.sign() < 0]
            if not negative:
                return OPTIMAL
            entering = negative[0] if bland else min(negative, key=lambda j: (self.zrow[j], j))
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
            if not self.rhs[leaving].is_zero():
                seen.clear()
                bland = False
                self.pivot(leaving, entering)
                continue
            seen.add(frozenset(self.basis))
            self.pivot(leaving, entering)
            basis = frozenset(self.basis)
            bland = bland or basis in seen
            seen.add(basis)


def reference_solve_lp(problem: LpProblem) -> LpSolution:
    """The Scalar-tableau simplex from the slack basis, pivot for pivot as
    ``hvlab.simplex``; b must be nonnegative."""
    n = len(problem.c)
    m = len(problem.b)
    matrix = dense_rows(problem.A.columns, m)
    rows = [[Scalar(a) for a in matrix[i]] + [ONE if k == i else ZERO for k in range(m)] for i in range(m)]
    tableau = _Tableau(rows, list(problem.b), list(problem.c) + [ZERO] * m)
    if tableau.run() == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            q[bi] = tableau.rhs[i]
    # Reduced cost of slack i is the dual multiplier of constraint i.
    dual = tuple(tableau.zrow[n + i] for i in range(m))
    return LpSolution(OPTIMAL, tuple(q), tableau.zval, dual)
