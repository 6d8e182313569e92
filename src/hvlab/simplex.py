"""Exact one-phase simplex over Q(sqrt(2)) with an integer constraint matrix.

Solves  maximize c.q  subject to  A.q <= b, q >= 0, where the entries of
``A`` are integers and ``b`` and ``c`` may be any values of the field:
an ``A`` entry with a fraction or a sqrt2 part is refused with
:class:`~hvlab.errors.IrrationalMatrix`.  Both of hvlab's LPs fit this
contract, with a 0/+-1 matrix and sqrt2 only in ``b`` (the content LP)
or only in ``c`` (the no-signalling LP).  A caller with rational rows
scales each row and its b_i by the lcm of the row's denominators, which
leaves the feasible set, the optimum and q unchanged and divides the
dual multiplier of that row by the same lcm.

The matrix is a :class:`Matrix`, which holds one view of it: its row
count and each column's nonzero entries as ints, read by both the solver
and :func:`check_certificate`.  Rows that a caller supplies are checked
once, entry by entry, when :meth:`Matrix.from_rows` builds the matrix
from them (every row the same width, every entry a Scalar that is an
integer).  A builder that writes the columns itself, as the
no-signalling LP's does with its +-1 entries, or that takes some columns
of a built matrix, as the content LP does with its kept vertices, uses
the constructor, which checks nothing.  :class:`LpProblem` builds a
plain ``A`` into a ``Matrix`` and keeps a ``Matrix`` as it is, so a
matrix that callers share (both of hvlab's LPs cache theirs per set of
spaces) is built only once.

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
of row i being variable n + i.  Since every basis inverse of an integer
matrix is rational, the tableau is kept in integers: row i is Python
ints over one positive int denominator, with the right-hand side
``(rp_i + rq_i*sqrt2)`` over it too.  A solve starts by scattering the
columns into these rows, row i over b_i's denominator.  The reduced
costs are two more such rows, P and Q for their rational and sqrt2
parts, whose right-hand sides hold the objective value's parts; from
the slack basis they are -c.  A pivot on row r and column c swaps the
two labels: row r goes over its entry R_c, with its old denominator in
column c, and every other row is cleared of the entering column and
takes the leaving variable's entry there, in place when the pivot entry
divides its factor, else cross-multiplied and brought to lowest terms by
one gcd.  These are the ints of the dense tableau's nonbasic columns;
Scalars are built only for the answer.

The entering variable is the one with the most negative reduced cost
(Dantzig's rule), ties going to the lowest variable index (not lowest
column position); the leaving variable is chosen by minimum ratio, ties
going to the lowest basic variable index.  Every decision is an exact
sign of ``p + q*sqrt2`` for ints ``p`` and ``q``: a ratio test
cross-multiplies the two right-hand sides by the positive pivot-column
entries, a reduced cost is ``P_j*dQ + Q_j*dP*sqrt2`` over the positive
``dP*dQ``, and since P and Q each have one denominator, two reduced
costs j and k compare as ``(P_j - P_k)*dQ + (Q_j - Q_k)*dP*sqrt2``.  The
decisions, and so the pivots and the returned solution, are those of a
dense tableau of Scalar entries.

Dantzig's rule alone can cycle through degenerate pivots, those whose
leaving row has right-hand side 0 and which leave the objective where it
is.  So the loop keeps a key of the basis through each run of them: the
XOR of a fixed 64-bit mix (splitmix64's output step) of each basic
label, taken against the run's first basis, so that it starts at 0 and
each pivot XORs in the mixes of the two labels it swaps.  When a key
repeats, the entering rule switches to Bland's (lowest index with a
negative reduced cost) until the next pivot that is not degenerate.
Every solve ends: a pivot that is not degenerate raises the objective,
so no basis before it comes back and there are finitely many of them; a
degenerate run under Dantzig's rule repeats a basis within finitely many
pivots, and a repeated basis repeats its key; and Bland's rule, with
this leaving rule, never repeats a basis (Bland, Math. Oper. Res. 2, 103
(1977)), so it too leaves the run or ends the solve.  Two bases whose
keys collide only switch the rule early, which is as safe.

The reduced cost of slack n + k is the dual multiplier of row k: its P
and Q entries while it is nonbasic, 0 while it is basic.  Its column, or
e_r while it is basic in row r, is column k of B^-1.  The dual gives an
exact strong-duality certificate that :func:`check_certificate`
verifies in ints too, independent of the pivoting code: q and y each
over their own common denominator, A.q and y.A summed from the columns'
int entries over those denominators, every row and column decided by the
exact sign of a cross-multiplied difference, and c.q and y.b summed as
int products over q's and y's supports.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IrrationalMatrix, LpFailure
from .frozen import Frozen
from .scalar import ZERO, Scalar, _common_denominator, _reduced, _sign, format_scalar

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class Matrix(Frozen):
    """An immutable integer constraint matrix, held as its row count and
    its columns and nothing else.

    ``columns[j]`` holds the nonzero entries of column j as ``(row,
    int)`` pairs in row order; the width is ``len(columns)``.  Both
    :func:`solve_lp`, which scatters them into its tableau rows, and
    :func:`check_certificate` read them.  A rational row is scaled by the
    lcm of its denominators, with its right-hand side, before it is
    given.

    :meth:`from_rows` builds one from rows of Scalars that a caller
    supplies and checks each entry.  The constructor takes the two fields
    as they are and checks nothing, for builders that write the columns
    themselves or take them from another matrix.
    """

    height: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Scalar]], width: int) -> Matrix:
        """The matrix of the given rows, each ``width`` long.  The rows are
        checked in order: the length of each, then the type of each entry
        and that it is an integer, with no fraction and no sqrt2 part."""
        columns: list[list[tuple[int, int]]] = [[] for _ in range(width)]
        height = 0
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != width:
                raise DimensionMismatch(f"constraint row has {len(row)} entries, expected {width}")
            for j, v in enumerate(row):
                if not isinstance(v, Scalar):
                    raise TypeError(f"constraint entries must be Scalar, got {type(v).__name__}")
                p, q, d = v._v
                if q or d != 1:
                    raise IrrationalMatrix(
                        f"constraint entry ({i}, {j}) is {format_scalar(v)}; the matrix must be integer"
                    )
                if p:
                    columns[j].append((i, p))
            height = i + 1
        return cls(height, tuple(map(tuple, columns)))


_TRIPLE = attrgetter("_v")
_ZERO = ZERO._v
_MASK64 = 2**64 - 1


class LpProblem(Frozen):
    """maximize c.q subject to A.q <= b, q >= 0, with A integer.

    A plain ``A``, a sequence of rows of Scalars, is built into a
    :class:`Matrix` by :meth:`Matrix.from_rows`, which refuses an entry
    that is not an integer; a row with fractions is scaled, with its
    right-hand side, by the lcm of its denominators first.  A ``Matrix``
    is kept as it is and must have the objective's width."""

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

    def run(self) -> str:
        """Pivot until optimal or unbounded; see the module docstring for
        the entering rule and the guard that makes it terminate."""
        rows, rp, rq, den, basis, nonbasic = self.rows, self.rp, self.rq, self.den, self.basis, self.nonbasic
        m = len(basis)
        # Keys of the bases of the current degenerate run, each the XOR of
        # the mixed labels that differ from the run's first basis.
        seen: set[int] = set()
        key = 0
        bland = False
        while True:
            # z_j - c_j = P_j/dP + (Q_j/dQ)*sqrt2 with both denominators positive, so
            # its sign is that of P_j*dQ + Q_j*dP*sqrt2, and it is below z_k - c_k
            # when (P_j - P_k)*dQ + (Q_j - Q_k)*dP*sqrt2 is negative.
            dp, dq = den[m], den[m + 1]
            entering = -1
            if bland:
                for j, (p, q) in enumerate(zip(rows[m], rows[m + 1])):
                    if (p < 0 or q < 0) and (entering < 0 or nonbasic[j] < nonbasic[entering]):
                        if _sign(p * dq, q * dp) < 0:
                            entering = j
            else:
                for j, (p, q) in enumerate(zip(rows[m], rows[m + 1])):
                    if p >= 0 and q >= 0:
                        continue
                    if entering < 0:
                        if (p > 0 or q > 0) and _sign(p * dq, q * dp) > 0:
                            continue
                    else:
                        s = p - low_p if q == low_q else _sign((p - low_p) * dq, (q - low_q) * dp)
                        if s > 0 or (s == 0 and nonbasic[j] > nonbasic[entering]):
                            continue
                    entering, low_p, low_q = j, p, q
            if entering < 0:
                return OPTIMAL
            # Minimum of rhs_i / a_i over a_i > 0; the row denominators cancel.
            leaving = -1
            for i in range(m):
                a = rows[i][entering]
                if a <= 0:
                    continue
                if leaving >= 0:
                    if not (best_p or best_q):
                        # The least ratio so far is 0, and no ratio is negative.
                        if rp[i] or rq[i] or basis[i] > basis[leaving]:
                            continue
                    else:
                        s, z = rp[i] * best_a - best_p * a, rq[i] * best_a - best_q * a
                        if z:
                            s = _sign(s, z)
                        if s > 0 or (s == 0 and basis[i] > basis[leaving]):
                            continue
                leaving, best_a, best_p, best_q = i, a, rp[i], rq[i]
            if leaving < 0:
                return UNBOUNDED
            if rp[leaving] or rq[leaving]:
                # A step of positive length raises the objective: no basis seen so far returns.
                if seen:
                    seen.clear()
                    bland = False
                self.pivot(leaving, entering)
                continue
            if not seen:
                key = 0
                seen.add(key)
            labels = (basis[leaving], nonbasic[entering])
            self.pivot(leaving, entering)
            for z in labels:
                # splitmix64's output step, a fixed bijection of 64-bit ints.
                z = (z + 0x9E3779B97F4A7C15) & _MASK64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                key ^= z ^ (z >> 31)
            if key in seen:
                bland = True
            else:
                seen.add(key)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact simplex from the slack basis, for ``b >= 0`` only, over a
    condensed tableau of the m x n cells of ``A``; see the module
    docstring for the labels, the pivoting rule and where the dual is read."""
    b = list(map(_TRIPLE, problem.b))
    for i, (p, q, _) in enumerate(b):
        if (p < 0 or q < 0) and _sign(p, q) < 0:
            raise LpFailure(
                f"right-hand side entry {i} is {format_scalar(problem.b[i])}; "
                "the simplex starts from the slack basis and needs b >= 0"
            )
    n = len(problem.c)
    m = len(problem.b)
    # Row i and its right-hand side over b_i's denominator.
    rp, rq, den = [p for p, _, _ in b], [q for _, q, _ in b], [d for _, _, d in b]
    rows = [[0] * n for _ in range(m)]
    for j, column in enumerate(problem.A.columns):
        for i, a in column:
            rows[i][j] = a * den[i]
    # Rows P and Q hold -c: the basic slacks cost 0, so nothing needs pricing out.
    ps, qs, d = _common_denominator(problem.c)
    rows += [[-p for p in ps], [-q for q in qs]]
    rp += [0, 0]
    rq += [0, 0]
    den += [d, d]

    tableau = _Tableau(rows, rp, rq, den, n)
    if tableau.run() == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    q = [ZERO] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n and (tableau.rp[i] or tableau.rq[i]):
            q[bi] = _reduced(tableau.rp[i], tableau.rq[i], tableau.den[i])
    # The reduced cost of slack i is the dual multiplier of constraint i:
    # read from its column while it is nonbasic, 0 while it is basic.
    dual = [ZERO] * m
    P, Q, dp, dq = tableau.rows[m], tableau.rows[m + 1], tableau.den[m], tableau.den[m + 1]
    for j, v in enumerate(tableau.nonbasic):
        if v >= n and (P[j] or Q[j]):
            dual[v - n] = _reduced(P[j] * dq, Q[j] * dp, dp * dq)
    return LpSolution(OPTIMAL, tuple(q), _reduced(*tableau.value()), tuple(dual))


def check_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Verify the strong-duality certificate by direct arithmetic.

    Requires primal feasibility (A.q <= b, q >= 0), dual feasibility
    (y >= 0, y.A >= c componentwise) and matching objectives
    (c.q == y.b == value).  Deliberately shares no code with the solver;
    see the module docstring.  c.q and y.b are summed in ints too, and no
    Scalar product is formed.

    The sqrt2 half of A.q skips each q entry with no sqrt2 part, and the
    sqrt2 half of y.A is skipped whole when no entry of y has one: A is
    an integer matrix, so such an entry adds exactly 0 to that half, and
    every comparison still reads the half it skipped as 0 against c's or
    b's sqrt2 part.  The content LP's dual is rational, since its ``c`` is
    all ones, and so is the no-signalling LP's primal, since its ``b`` is.
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
    # A.q: row i is (P[i] + Q[i]*sqrt2) / qd; a q entry with no sqrt2 part
    # adds nothing to Q.
    P, Q = [0] * m, [0] * m
    for j, p, q in zip(support, qp, qq):
        if q:
            for i, a in problem.A.columns[j]:
                P[i] += a * p
                Q[i] += a * q
        else:
            for i, a in problem.A.columns[j]:
                P[i] += a * p
    for (bp, bq, bd), p, q in zip(map(_TRIPLE, problem.b), P, Q):
        x, z = p * bd - bp * qd, q * bd - bq * qd
        if (_sign(x, z) if z else x) > 0:
            return False
    # y.A: column j is (p + q*sqrt2) / yd, q being 0 when y is rational.
    rational = not any(yq)
    for column, (cp, cq, cd) in zip(problem.A.columns, map(_TRIPLE, problem.c)):
        p = q = 0
        if rational:
            for i, a in column:
                p += a * yp[i]
        else:
            for i, a in column:
                p += a * yp[i]
                q += a * yq[i]
        x, z = p * cd - cp * yd, q * cd - cq * yd
        if (_sign(x, z) if z else x) < 0:
            return False
    # c.q over q's support and y.b over y's, each a sum of int products over
    # two common denominators, (p + q*sqrt2) / (cd*d), equal to the value.
    weights = [i for i, (p, q) in enumerate(zip(yp, yq)) if p or q]
    sums = (
        (_common_denominator([problem.c[j] for j in support]), qp, qq, qd),
        (_common_denominator([problem.b[i] for i in weights]), [yp[i] for i in weights], [yq[i] for i in weights], yd),
    )
    vp, vq, vd = solution.value._v
    for (cp, cq, cd), xp, xq, d in sums:
        p = sum(map(mul, cp, xp)) + 2 * sum(map(mul, cq, xq))
        q = sum(map(mul, cp, xq)) + sum(map(mul, cq, xp))
        if p * vd != vp * cd * d or q * vd != vq * cd * d:
            return False
    return True
