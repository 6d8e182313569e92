"""Exact two-phase simplex over Q(sqrt(2)) with a rational constraint matrix.

Solves  maximize c.q  subject to  A.q <= b, q >= 0, where the entries of
``A`` are rational and ``b`` and ``c`` may carry sqrt2 parts: an ``A``
entry with a nonzero sqrt2 part is refused with
:class:`~hvlab.errors.IrrationalMatrix`.  Both of hvlab's LPs fit this
contract, with a 0/±1 matrix and sqrt2 only in ``b`` (the content LP) or
only in ``c`` (the no-signalling LP).

Since every basis inverse of a rational matrix is rational, the tableau
is kept in integers.  Row i is a list of Python ints over one positive
int denominator, and its right-hand side is the int pair
``(rp_i, rq_i)``, meaning ``(rp_i + rq_i*sqrt2)``, over that same
denominator.  The reduced-cost row is two int lists, the rational and
the sqrt2 parts, over one denominator of its own.  A pivot is then
integer arithmetic on whole rows: a row whose factor the pivot element
divides keeps its denominator and changes only in the pivot row's
nonzero columns; any other row is cross-multiplied and brought back to
lowest terms by one gcd.  Scalars are built only for the answer.

Bland's anti-cycling rule is used throughout (entering: lowest column
index with a negative reduced cost; leaving: minimum ratio, ties broken
by lowest basic variable index), so termination is guaranteed.  Every
decision is an exact sign of ``p + q*sqrt2`` for ints ``p`` and ``q``:
a ratio test cross-multiplies the two right-hand sides by the positive
pivot-column entries.  The decisions, and so the pivots and the
returned solution, are those of a tableau of Scalar entries.

Rows with negative right-hand side are negated and given an artificial
variable; phase one drives the artificials to zero or proves the
program infeasible.  On optimal termination the reduced costs of the
slack columns provide the dual vector, giving an exact strong-duality
certificate that :func:`check_certificate` verifies by plain Scalar
arithmetic, independent of the pivoting code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionMismatch, IrrationalMatrix
from .scalar import ONE, ZERO, Scalar, _reduced, _sign, as_scalar, format_scalar

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _scalars(values: Sequence[Scalar | int | Fraction | str]) -> tuple[Scalar, ...]:
    """The values as a tuple of Scalars, coercing only when one is not."""
    values = tuple(values)
    if all(type(v) is Scalar for v in values):
        return values
    return tuple(as_scalar(v) for v in values)


@dataclass(frozen=True)
class LpProblem:
    """maximize c.q subject to A.q <= b, q >= 0, with A rational."""

    c: tuple[Scalar, ...]
    A: tuple[tuple[Scalar, ...], ...]
    b: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _scalars(self.c))
        object.__setattr__(self, "A", tuple(_scalars(row) for row in self.A))
        object.__setattr__(self, "b", _scalars(self.b))
        n = len(self.c)
        if len(self.A) != len(self.b):
            raise DimensionMismatch(f"{len(self.A)} constraint rows but {len(self.b)} right-hand sides")
        for i, row in enumerate(self.A):
            if len(row) != n:
                raise DimensionMismatch(f"constraint row has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if v._v[1]:
                    raise IrrationalMatrix(
                        f"constraint entry ({i}, {j}) is {format_scalar(v)}; the matrix must be rational"
                    )


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; q, value and dual are present only when optimal."""

    status: str
    q: tuple[Scalar, ...] | None = None
    value: Scalar | None = None
    dual: tuple[Scalar, ...] | None = None


class _Tableau:
    """Dense simplex tableau of integer rows with a reduced-cost row.

    Entry (i, j) is ``rows[i][j] / den[i]`` and the right-hand side of row
    i is ``(rp[i] + rq[i]*sqrt2) / den[i]``; the reduced cost of column j
    is ``(zp[j] + zq[j]*sqrt2) / zden`` and the objective value
    ``(zvp + zvq*sqrt2) / zden``.  Every denominator is positive.
    """

    def __init__(self, rows: list[list[int]], rp: list[int], rq: list[int], den: list[int], basis: list[int]):
        self.rows = rows
        self.rp = rp
        self.rq = rq
        self.den = den
        self.basis = basis
        self.zp: list[int] = []
        self.zq: list[int] = []
        self.zden = 1
        self.zvp = 0
        self.zvq = 0

    def set_objective(self, cost: Sequence[Scalar]) -> None:
        """Recompute reduced costs z_j - c_j for the current basis."""
        triples = [c._v for c in cost]
        basic = [(i, triples[bi]) for i, bi in enumerate(self.basis) if triples[bi][0] or triples[bi][1]]
        zden = lcm(*{d for _, _, d in triples}, *(cd * self.den[i] for i, (_, _, cd) in basic))
        zp = [-p * (zden // d) for p, _, d in triples]
        zq = [-q * (zden // d) for _, q, d in triples]
        zvp = zvq = 0
        for i, (cp, cq, cd) in basic:
            scale = zden // (cd * self.den[i])
            cp, cq = cp * scale, cq * scale
            row = self.rows[i]
            for j, a in enumerate(row):
                if a:
                    zp[j] += cp * a
                    zq[j] += cq * a
            rp, rq = self.rp[i], self.rq[i]
            zvp += cp * rp + 2 * cq * rq
            zvq += cp * rq + cq * rp
        self.zp, self.zq, self.zden, self.zvp, self.zvq = zp, zq, zden, zvp, zvq
        self._reduce_objective()

    def _reduce_objective(self) -> None:
        g = gcd(self.zden, self.zvp, self.zvq, *self.zp, *self.zq)
        if g != 1:
            self.zp = [v // g for v in self.zp]
            self.zq = [v // g for v in self.zq]
            self.zden //= g
            self.zvp //= g
            self.zvq //= g

    def pivot(self, r: int, c: int) -> None:
        rows, rp, rq, den = self.rows, self.rp, self.rq, self.den
        # Divide row r by its entry in column c: the row's ints over that
        # entry, made positive and brought to lowest terms.
        pivot_row = rows[r]
        p, prp, prq = pivot_row[c], rp[r], rq[r]
        if p < 0:
            pivot_row = [-v for v in pivot_row]
            p, prp, prq = -p, -prp, -prq
        g = gcd(p, prp, prq, *pivot_row)
        if g != 1:
            pivot_row = [v // g for v in pivot_row]
            p, prp, prq = p // g, prp // g, prq // g
        rows[r], rp[r], rq[r], den[r] = pivot_row, prp, prq, p
        nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            k, rem = divmod(f, p)
            if not rem:
                # row - (f/p) * pivot_row over the same denominator.
                for j, v in nonzero:
                    row[j] -= k * v
                rp[i] -= k * prp
                rq[i] -= k * prq
                continue
            row = [a * p - f * v for a, v in zip(row, pivot_row)]
            ip, iq, d = rp[i] * p - f * prp, rq[i] * p - f * prq, den[i] * p
            g = gcd(d, ip, iq, *row)
            if g != 1:
                row = [v // g for v in row]
                ip, iq, d = ip // g, iq // g, d // g
            rows[i], rp[i], rq[i], den[i] = row, ip, iq, d
        fp, fq = self.zp[c], self.zq[c]
        if fp or fq:
            kp, remp = divmod(fp, p)
            kq, remq = divmod(fq, p)
            if not (remp or remq):
                zp, zq = self.zp, self.zq
                for j, v in nonzero:
                    zp[j] -= kp * v
                    zq[j] -= kq * v
                self.zvp -= kp * prp + 2 * kq * prq
                self.zvq -= kp * prq + kq * prp
            else:
                self.zp = [a * p - fp * v for a, v in zip(self.zp, pivot_row)]
                self.zq = [a * p - fq * v for a, v in zip(self.zq, pivot_row)]
                self.zvp = self.zvp * p - (fp * prp + 2 * fq * prq)
                self.zvq = self.zvq * p - (fp * prq + fq * prp)
                self.zden *= p
                self._reduce_objective()
        self.basis[r] = c

    def run_bland(self) -> str:
        """Pivot until optimal or unbounded."""
        rows, rp, rq, basis = self.rows, self.rp, self.rq, self.basis
        while True:
            entering = next(
                (j for j, (p, q) in enumerate(zip(self.zp, self.zq)) if (p < 0 or q < 0) and _sign(p, q) < 0), -1
            )
            if entering < 0:
                return OPTIMAL
            # Minimum of rhs_i / a_i over a_i > 0; the row denominators cancel.
            leaving = -1
            for i, row in enumerate(rows):
                a = row[entering]
                if a <= 0:
                    continue
                if leaving >= 0:
                    s = _sign(rp[i] * best_a - best_p * a, rq[i] * best_a - best_q * a)
                    if s > 0 or (s == 0 and basis[i] > basis[leaving]):
                        continue
                leaving, best_a, best_p, best_q = i, a, rp[i], rq[i]
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)


def _integer_row(values: Sequence[Scalar], rhs: Scalar, negate: bool) -> tuple[list[int], int, int, int]:
    """A rational row and its right-hand side as ints over one denominator."""
    triples = [v._v for v in values]
    bp, bq, bd = rhs._v
    den = lcm(bd, *{d for _, _, d in triples})
    sign = -1 if negate else 1
    scale = sign * (den // bd)
    return [sign * p * (den // d) for p, _, d in triples], bp * scale, bq * scale, den


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact simplex; see the module docstring for conventions."""
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

    rows: list[list[int]] = []
    rp: list[int] = []
    rq: list[int] = []
    den: list[int] = []
    basis: list[int] = []
    art_col = {row: n + m + k for k, row in enumerate(artificial_rows)}
    for i in range(m):
        row, p, q, d = _integer_row(problem.A[i], problem.b[i], negated[i])
        slack = [0] * (m + n_art)
        slack[i] = -d if negated[i] else d
        if negated[i]:
            slack[art_col[i] - n] = d
        rows.append(row + slack)
        rp.append(p)
        rq.append(q)
        den.append(d)
        basis.append(art_col[i] if negated[i] else n + i)

    tableau = _Tableau(rows, rp, rq, den, basis)

    if n_art:
        phase1_cost = [ZERO] * (n + m) + [-ONE] * n_art
        tableau.set_objective(phase1_cost)
        status = tableau.run_bland()
        assert status == OPTIMAL  # phase one is bounded above by zero
        if _sign(tableau.zvp, tableau.zvq) < 0:
            return LpSolution(INFEASIBLE)
        # Drive zero-valued artificials out of the basis; rows where no
        # structural or slack column can pivot are redundant and dropped.
        drop: list[int] = []
        for i in range(len(tableau.basis)):
            if tableau.basis[i] < n + m:
                continue
            row = tableau.rows[i]
            pivot_col = next((j for j in range(n + m) if row[j]), -1)
            if pivot_col >= 0:
                tableau.pivot(i, pivot_col)
            else:
                drop.append(i)
        for i in reversed(drop):
            for column in (tableau.rows, tableau.rp, tableau.rq, tableau.den, tableau.basis):
                del column[i]
        tableau.rows = [row[: n + m] for row in tableau.rows]

    phase2_cost = list(problem.c) + [ZERO] * m
    tableau.set_objective(phase2_cost)
    status = tableau.run_bland()
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            q[bi] = _reduced(tableau.rp[i], tableau.rq[i], tableau.den[i])
    # Reduced cost of slack i is the dual multiplier of constraint i;
    # for dropped redundant rows the slack column is zero, giving dual 0.
    zden = tableau.zden
    dual = tuple(_reduced(tableau.zp[n + i], tableau.zq[n + i], zden) for i in range(m))
    return LpSolution(OPTIMAL, tuple(q), _reduced(tableau.zvp, tableau.zvq, zden), dual)


def check_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Verify the strong-duality certificate by direct arithmetic.

    Requires primal feasibility (A.q <= b, q >= 0), dual feasibility
    (y >= 0, y.A >= c componentwise) and matching objectives
    (c.q == y.b == value).  Deliberately shares no code with the solver.
    """
    if solution.status != OPTIMAL:
        return False
    if solution.q is None or solution.value is None or solution.dual is None:
        return False
    n = len(problem.c)
    m = len(problem.b)
    if len(solution.q) != n or len(solution.dual) != m:
        return False
    q, y = solution.q, solution.dual
    if any(v.sign() < 0 for v in q) or any(v.sign() < 0 for v in y):
        return False
    support = [(j, v) for j, v in enumerate(q) if not v.is_zero()]
    for row, bound in zip(problem.A, problem.b):
        lhs = ZERO
        for j, v in support:
            a = row[j]
            if not a.is_zero():
                lhs = lhs + a * v
        if (lhs - bound).sign() > 0:
            return False
    column_sums = [ZERO] * n
    for i in range(m):
        if y[i].is_zero():
            continue
        for j, a in enumerate(problem.A[i]):
            if not a.is_zero():
                column_sums[j] = column_sums[j] + y[i] * a
    if any((total - cj).sign() < 0 for total, cj in zip(column_sums, problem.c)):
        return False
    primal_value = ZERO
    for j, v in support:
        primal_value = primal_value + problem.c[j] * v
    dual_value = ZERO
    for i in range(m):
        dual_value = dual_value + y[i] * problem.b[i]
    return primal_value == solution.value and dual_value == solution.value
