"""Exact one-phase simplex over Q(sqrt(2)) with a rational constraint matrix.

Solves  maximize c.q  subject to  A.q <= b, q >= 0, where the entries of
``A`` are rational and ``b`` and ``c`` may carry sqrt2 parts: an ``A``
entry with a nonzero sqrt2 part is refused with
:class:`~hvlab.errors.IrrationalMatrix`.  Both of hvlab's LPs fit this
contract, with a 0/±1 matrix and sqrt2 only in ``b`` (the content LP) or
only in ``c`` (the no-signalling LP).

The matrix is a :class:`Matrix`, which holds one view of it: its row
count and each column's nonzero entries, read by both the solver and
:func:`check_certificate`.  Rows that a caller supplies are checked
once, entry by entry, when :meth:`Matrix.from_rows` builds the matrix
from them (every row the same width, every entry a Scalar with no sqrt2
part).  A builder that writes the columns itself, as the no-signalling
LP's does with its +-1 entries, or that takes some columns of a built
matrix, as the content LP does with its kept vertices, uses the
constructor, which checks nothing.  :class:`LpProblem` builds a plain ``A`` into a ``Matrix`` and
keeps a ``Matrix`` as it is, so a matrix that callers share (both of
hvlab's LPs cache theirs per set of spaces) is built only once.

:func:`solve_lp` starts from the slack basis, which is feasible exactly
when ``b >= 0``, and so solves only such problems: a negative
right-hand-side entry is refused with :class:`~hvlab.errors.LpFailure`
naming its row, before any tableau row is built.  Both of hvlab's LPs
qualify: the content LP's right-hand side is a box and the
no-signalling LP's is 0 or 1.  :class:`LpProblem` itself still accepts
any ``b``.

The tableau is condensed (a dictionary; Chvatal, *Linear Programming*,
1983, ch. 2-3): it holds only the n nonbasic columns, the m x n cells of
the matrix and no slack block.  Column j is labelled by its variable
``nonbasic[j]`` and row i by its basic variable ``basis[i]``, the slack
of row i being variable n + i.  Since every basis inverse of a rational
matrix is rational, the tableau is kept in integers: row i is Python
ints over one positive int denominator, with the right-hand side
``(rp_i + rq_i*sqrt2)`` over it too.  A solve starts by scattering the
columns into these rows, row i over the lcm of b_i's denominator and
those of its own entries.  The reduced costs are two more such rows, P
and Q for their rational and sqrt2 parts, whose right-hand sides hold
the objective value's parts; from the slack basis they are -c.  A pivot
on row r and column c swaps the two labels: row r goes over its entry
R_c, with its old denominator in column c, and every other row is
cleared of the entering column and takes the leaving variable's entry
there, in place when the pivot entry divides its factor, else
cross-multiplied and brought to lowest terms by one gcd.  These are the
ints of the dense tableau's nonbasic columns; Scalars are built only for
the answer.

Bland's anti-cycling rule is used throughout, so termination is
guaranteed: enter the nonbasic variable of lowest index (not lowest
column position) with a negative reduced cost; leave by minimum ratio,
ties broken by lowest basic variable index.  Every decision is an exact
sign of ``p + q*sqrt2`` for ints ``p`` and ``q``: a ratio test
cross-multiplies the two right-hand sides by the positive pivot-column
entries, and a reduced cost is ``P_j*dQ + Q_j*dP*sqrt2`` over the
positive ``dP*dQ``.  The decisions, and so the pivots and the returned
solution, are those of a dense tableau of Scalar entries.

The reduced cost of slack n + k is the dual multiplier of row k: its P
and Q entries while it is nonbasic, 0 while it is basic.  Its column, or
e_r while it is basic in row r, is column k of B^-1.  The dual gives an
exact strong-duality certificate that :func:`check_certificate`
verifies in ints too, independent of the pivoting code: q and y each
over their own common denominator, A.q and y.A summed from the columns'
entries, each sum over the lcm of the entry denominators it has met (1
for a 0/+-1 matrix), every row and column decided by the exact sign of
a cross-multiplied difference.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IrrationalMatrix, LpFailure
from .frozen import Frozen
from .scalar import ZERO, Scalar, _common_denominator, _reduced, _sign, format_scalar

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class Matrix(Frozen):
    """An immutable rational constraint matrix, held as its row count and
    its columns and nothing else.

    ``columns[j]`` holds the nonzero entries of column j as ``(row,
    Scalar)`` pairs in row order; the width is ``len(columns)``.  Both
    :func:`solve_lp`, which scatters them into its tableau rows, and
    :func:`check_certificate` read them.

    :meth:`from_rows` builds one from rows of Scalars that a caller
    supplies and checks each entry.  The constructor takes the two fields
    as they are and checks nothing, for builders that write the columns
    themselves or take them from another matrix.
    """

    height: int
    columns: tuple[tuple[tuple[int, Scalar], ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Scalar]], width: int) -> Matrix:
        """The matrix of the given rows, each ``width`` long.  The rows are
        checked in order: the length of each, then the type and the sqrt2
        part of each entry."""
        columns: list[list[tuple[int, Scalar]]] = [[] for _ in range(width)]
        height = 0
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != width:
                raise DimensionMismatch(f"constraint row has {len(row)} entries, expected {width}")
            for j, v in enumerate(row):
                if not isinstance(v, Scalar):
                    raise TypeError(f"constraint entries must be Scalar, got {type(v).__name__}")
                p, q, _ = v._v
                if q:
                    raise IrrationalMatrix(
                        f"constraint entry ({i}, {j}) is {format_scalar(v)}; the matrix must be rational"
                    )
                if p:
                    columns[j].append((i, v))
            height = i + 1
        return cls(height, tuple(map(tuple, columns)))


_TRIPLE = attrgetter("_v")
_ZERO = ZERO._v


class LpProblem(Frozen):
    """maximize c.q subject to A.q <= b, q >= 0, with A rational.

    A plain ``A``, a sequence of rows, is built into a :class:`Matrix` by
    :meth:`Matrix.from_rows`, which checks it; a ``Matrix`` is kept as it
    is and must have the objective's width."""

    c: tuple[Scalar, ...]
    A: Matrix
    b: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "b", tuple(self.b))
        A = self.A if isinstance(self.A, Matrix) else tuple(self.A)
        n = len(self.c)
        m = A.height if isinstance(A, Matrix) else len(A)
        if m != len(self.b):
            raise DimensionMismatch(f"{m} constraint rows but {len(self.b)} right-hand sides")
        for v in (*self.c, *self.b):
            if not isinstance(v, Scalar):
                raise TypeError(f"objective and right-hand side entries must be Scalar, got {type(v).__name__}")
        if not isinstance(A, Matrix):
            A = Matrix.from_rows(A, n)
        elif len(A.columns) != n:
            raise DimensionMismatch(f"constraint matrix has {len(A.columns)} columns, expected {n}")
        object.__setattr__(self, "A", A)


class LpSolution(Frozen):
    """Solver outcome; q, value and dual are present only when optimal."""

    status: str
    q: tuple[Scalar, ...] | None = None
    value: Scalar | None = None
    dual: tuple[Scalar, ...] | None = None


class _Tableau:
    """Condensed simplex tableau of integer rows, the reduced costs among
    them; see the module docstring.

    Entry (i, j) is ``rows[i][j] / den[i]``, the coefficient of variable
    ``nonbasic[j]`` in the row of basic variable ``basis[i]``, and the
    right-hand side of row i is ``(rp[i] + rq[i]*sqrt2) / den[i]``.
    Rows m and m+1, P and Q, are the rational and sqrt2 parts of the
    reduced costs ``z_j - c_j``, and the objective value is
    ``rhs(P) + rhs(Q)*sqrt2``.
    """

    def __init__(self, rows: list[list[int]], rp: list[int], rq: list[int], den: list[int], n: int):
        """The slack basis: variables 0 .. n-1 nonbasic, slack n + i basic in row i."""
        self.rows, self.rp, self.rq, self.den = rows, rp, rq, den
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + len(rows) - 2))

    def pivot(self, r: int, c: int) -> None:
        """Exchange the labels of row r and column c, whose entry the ratio
        test chose positive, and clear column c from every other row."""
        rows, rp, rq, den = self.rows, self.rp, self.rq, self.den
        pivot_row = rows[r]
        p, prp, prq = pivot_row[c], rp[r], rq[r]
        # Column c now stands for the leaving variable, 1 in row r: den[r] over p.
        pivot_row[c] = den[r]
        g = gcd(p, prp, prq, *pivot_row)
        if g != 1:
            pivot_row = [v // g for v in pivot_row]
            p, prp, prq = p // g, prp // g, prq // g
        rows[r], rp[r], rq[r], den[r] = pivot_row, prp, prq, p
        nonzero = None
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            row[c] = 0  # the leaving variable's entry, before the elimination
            k, rem = divmod(f, p)
            if not rem:
                # row - (f/p) * pivot_row over the same denominator.
                if nonzero is None:
                    nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
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
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def value(self) -> tuple[int, int, int]:
        """The objective value as ints (p, q, d) meaning (p + q*sqrt2)/d."""
        m = len(self.basis)
        rp, rq, dp, dq = self.rp, self.rq, self.den[m], self.den[m + 1]
        return rp[m] * dq + 2 * rq[m + 1] * dp, rq[m] * dq + rp[m + 1] * dp, dp * dq

    def run_bland(self) -> str:
        """Pivot until optimal or unbounded."""
        rows, rp, rq, den, basis, nonbasic = self.rows, self.rp, self.rq, self.den, self.basis, self.nonbasic
        m = len(basis)
        while True:
            # sign(z_j - c_j) = sign(P_j*dQ + Q_j*dP*sqrt2): both denominators are positive.
            dp, dq = den[m], den[m + 1]
            entering = -1
            for j, (p, q) in enumerate(zip(rows[m], rows[m + 1])):
                if (p < 0 or q < 0) and (entering < 0 or nonbasic[j] < nonbasic[entering]):
                    if _sign(p * dq, q * dp) < 0:
                        entering = j
            if entering < 0:
                return OPTIMAL
            # Minimum of rhs_i / a_i over a_i > 0; the row denominators cancel.
            leaving = -1
            for i in range(m):
                a = rows[i][entering]
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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact simplex from the slack basis, for ``b >= 0`` only, over a
    condensed tableau of the m x n cells of ``A``; see the module
    docstring for the labels, Bland's rule and where the dual is read."""
    for i, rhs in enumerate(problem.b):
        if rhs.sign() < 0:
            raise LpFailure(
                f"right-hand side entry {i} is {format_scalar(rhs)}; "
                "the simplex starts from the slack basis and needs b >= 0"
            )
    n = len(problem.c)
    m = len(problem.b)
    # Scatter the columns into rows: an integer entry as it is, a fraction
    # once its row's denominator is known.
    rows = [[0] * n for _ in range(m)]
    fractions = []
    for j, column in enumerate(problem.A.columns):
        for i, a in column:
            p, _, d = a._v
            if d == 1:
                rows[i][j] = p
            else:
                fractions.append((i, j, p, d))
    # Row i and its right-hand side over the lcm of their denominators.
    b = list(map(_TRIPLE, problem.b))
    den = [bd for _, _, bd in b]
    for i, _, _, d in fractions:
        den[i] = lcm(den[i], d)
    rp, rq = [], []
    for i, (bp, bq, bd) in enumerate(b):
        d = den[i]
        if d != 1:
            rows[i] = [v * d for v in rows[i]]
            scale = d // bd
            bp, bq = bp * scale, bq * scale
        rp.append(bp)
        rq.append(bq)
    for i, j, p, d in fractions:
        rows[i][j] = p * (den[i] // d)
    # Rows P and Q hold -c: the basic slacks cost 0, so nothing needs pricing out.
    ps, qs, d = _common_denominator(problem.c)
    rows += [[-p for p in ps], [-q for q in qs]]
    rp += [0, 0]
    rq += [0, 0]
    den += [d, d]

    tableau = _Tableau(rows, rp, rq, den, n)
    if tableau.run_bland() == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            q[bi] = _reduced(tableau.rp[i], tableau.rq[i], tableau.den[i])
    # The reduced cost of slack i is the dual multiplier of constraint i:
    # read from its column while it is nonbasic, 0 while it is basic.
    dual = [ZERO] * m
    P, Q, dp, dq = tableau.rows[m], tableau.rows[m + 1], tableau.den[m], tableau.den[m + 1]
    for j, v in enumerate(tableau.nonbasic):
        if v >= n:
            dual[v - n] = _reduced(P[j] * dq, Q[j] * dp, dp * dq)
    return LpSolution(OPTIMAL, tuple(q), _reduced(*tableau.value()), tuple(dual))


def _widen(d: int, ad: int) -> tuple[int, int]:
    """(f, k) that bring a sum over d and an entry over ad to their lcm
    d*f: the sum's numerators are multiplied by f, the entry's by k."""
    f = ad // gcd(d, ad)
    return f, d * f // ad


def check_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Verify the strong-duality certificate by direct arithmetic.

    Requires primal feasibility (A.q <= b, q >= 0), dual feasibility
    (y >= 0, y.A >= c componentwise) and matching objectives
    (c.q == y.b == value).  Deliberately shares no code with the solver;
    see the module docstring.  c.q and y.b are one Scalar product per
    nonzero term, summed as ints.
    """
    if solution.status != OPTIMAL:
        return False
    if solution.q is None or solution.value is None or solution.dual is None:
        return False
    n = len(problem.c)
    m = len(problem.b)
    if len(solution.q) != n or len(solution.dual) != m:
        return False
    # q over its support, y in full, each as ints over its own common denominator.
    support = [j for j, v in enumerate(map(_TRIPLE, solution.q)) if v != _ZERO]
    qp, qq, qd = _common_denominator([solution.q[j] for j in support])
    yp, yq, yd = _common_denominator(solution.dual)
    pairs = chain(zip(qp, qq), zip(yp, yq))
    if min(chain(qp, qq, yp, yq), default=0) < 0 and any(_sign(p, q) < 0 for p, q in pairs):
        return False
    # A.q: row i is (P[i] + Q[i]*sqrt2) / (D[i]*qd).
    P, Q, D = [0] * m, [0] * m, [1] * m
    for j, p, q in zip(support, qp, qq):
        for i, a in problem.A.columns[j]:
            an, _, ad = a._v
            if ad != D[i]:
                f, k = _widen(D[i], ad)
                P[i], Q[i], D[i] = P[i] * f, Q[i] * f, D[i] * f
                an *= k
            P[i] += an * p
            Q[i] += an * q
    for (bp, bq, bd), p, q, d in zip(map(_TRIPLE, problem.b), P, Q, D):
        t = d * qd
        if _sign(p * bd - bp * t, q * bd - bq * t) > 0:
            return False
    # y.A: column j is (p + q*sqrt2) / (d*yd).
    for column, (cp, cq, cd) in zip(problem.A.columns, map(_TRIPLE, problem.c)):
        p, q, d = 0, 0, 1
        for i, a in column:
            an, _, ad = a._v
            if ad != d:
                f, k = _widen(d, ad)
                p, q, d = p * f, q * f, d * f
                an *= k
            p += an * yp[i]
            q += an * yq[i]
        t = d * yd
        if _sign(p * cd - cp * t, q * cd - cq * t) < 0:
            return False
    primal = _common_denominator([problem.c[j] * solution.q[j] for j in support])
    dual = _common_denominator(
        [w * bound for w, bound, p, q in zip(solution.dual, problem.b, yp, yq) if p or q]
    )
    vp, vq, vd = solution.value._v
    return all(sum(ps) * vd == vp * d and sum(qs) * vd == vq * d for ps, qs, d in (primal, dual))
