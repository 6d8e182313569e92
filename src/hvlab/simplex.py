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

The module is one int core and two thin Scalar adapters.  The core is
two private functions that share no code, and every vector goes in and
comes out of it in one form: ints ``(ps, qs, d)`` over one positive
common denominator, one entry per column or per row, zeros included.
:func:`_solve_ints` takes the matrix's columns and ``c`` and ``b`` in
that form, and returns the final tableau, from which
:meth:`_Tableau.primal` and :meth:`_Tableau.dual` read q and the dual y
in it too, q over the lcm of its basic rows' denominators and y over
``dP*dQ`` (below), and :meth:`_Tableau.value` reads the value as a
triple.  :func:`_check_ints` checks the strong-duality certificate from
those four vectors and the value.  Every vector of Scalars crosses into
that form through one reader, :func:`_read`, which checks each entry's
type as it goes: :class:`LpProblem` reads its ``c`` and ``b`` once, when
it is built, and keeps the result, and :func:`check_certificate` reads
an :class:`LpSolution`'s q, value and dual.  :func:`solve_lp` and
:func:`check_certificate` are the adapters: they hand the problem's kept
``c`` and ``b`` to the core, and :func:`solve_lp` builds Scalars only
for the answer, through :func:`_dense`, the one reader from that form
to Scalars.
Both of hvlab's LPs are solved by the core itself.
``decompose.max_local_content`` hands it the kept columns of
the cached vertex matrix, ``c`` as all ones over 1 and ``b`` as the
box's int view, reads q, y and the value with the tableau's readers,
and builds Scalars only for the weights, the residual cells, the
content and the certificate it reports; it checks no certificate
itself, and ``hvlab decompose --verify`` checks that one through
:func:`check_certificate`.  ``bell.ns_bound`` sums its objective in
ints from the expression's int view, takes the right-hand side cached
as ints over 1, checks the tableau's int answer with :func:`_check_ints`,
and builds one Scalar, its bound.

The matrix is a :class:`Matrix`, which holds one view of it: its row
count and each column's nonzero entries as ints, read by both halves of
the core.  Rows that a caller supplies are checked once, entry by entry,
when :meth:`Matrix.from_rows` builds the matrix from them (every row the
same width, every entry a Scalar that is an integer).  A builder that
writes the columns itself, as the no-signalling LP's does with its +-1
entries, uses the constructor, which checks nothing; the content LP
hands the core some columns of its built matrix as they are.
:class:`LpProblem` builds a plain ``A`` into a ``Matrix`` and keeps a
``Matrix`` as it is, so a matrix that callers share (both of hvlab's LPs
cache theirs per set of spaces) is built only once.

The solve starts from the slack basis, which is feasible exactly when
``b >= 0``, and so solves only such problems: a negative right-hand-side
entry is refused with :class:`~hvlab.errors.LpFailure` naming its row,
before any tableau row is built.  Both of hvlab's LPs qualify: the
content LP's right-hand side is a box and the no-signalling LP's is 0 or
1 in each row.  :class:`LpProblem` itself still accepts any ``b``.

The tableau is condensed (a dictionary; Chvatal, *Linear Programming*,
1983, ch. 2-3): it holds only the n nonbasic columns, the m x n cells of
the matrix and no slack block.  Column j is labelled by its variable
``nonbasic[j]`` and row i by its basic variable ``basis[i]``, the slack
of row i being variable n + i.  Since every basis inverse of an integer
matrix is rational, the tableau is kept in integers: row i is Python
ints over one positive int denominator, with the right-hand side
``(rp_i + rq_i*sqrt2)`` over it too.  A solve starts by scattering the
columns into these rows, every row over b's denominator.  The reduced
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
is.  So the loop keeps the set of bases of each run of them, and when a
basis repeats, the entering rule switches to Bland's (the lowest index
with a negative reduced cost) until the next pivot that is not
degenerate.  Both rules go through one loop over the reduced costs,
which tests each for negativity once and ranks the negative ones by
value and then index, or by index alone.  Every solve ends: a pivot that
is not degenerate raises the objective, so no basis before it comes back
and there are finitely many of them; a degenerate run under Dantzig's
rule repeats a basis within finitely many pivots; and Bland's rule, with
this leaving rule, never repeats a basis (Bland, Math. Oper. Res. 2, 103
(1977)), so it too leaves the run or ends the solve.

The reduced cost of slack n + k is the dual multiplier of row k: its P
and Q entries while it is nonbasic, 0 while it is basic.  Its column, or
e_r while it is basic in row r, is column k of B^-1.  The dual gives an
exact strong-duality certificate that :func:`_check_ints` verifies in
ints, independent of the pivoting code: q and y each over its own common
denominator, A.q and y.A summed from the columns' int entries over
those denominators, every row and column decided by the exact sign of a
cross-multiplied difference, and c.q and y.b summed as int products, c
and b each over its own denominator.  It accepts any positive
denominators, so the tableau's answer, whose q and y need not be in
lowest terms, is checked as it is read off.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IrrationalMatrix, LpFailure
from .frozen import Frozen
from .scalar import ONE, ZERO, Scalar, _common_denominator, _Ints, _reduced, _sign, format_scalar

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class Matrix(Frozen):
    """An immutable integer constraint matrix, held as its row count and
    its columns and nothing else.

    ``columns[j]`` holds the nonzero entries of column j as ``(row,
    int)`` pairs in row order; the width is ``len(columns)``.  Both
    :func:`_solve_ints`, which scatters them into its tableau rows, and
    :func:`_check_ints` read them.  A rational row is scaled by the
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


class LpProblem(Frozen):
    """maximize c.q subject to A.q <= b, q >= 0, with A integer.

    A plain ``A``, a sequence of rows of Scalars, is built into a
    :class:`Matrix` by :meth:`Matrix.from_rows`, which refuses an entry
    that is not an integer; a row with fractions is scaled, with its
    right-hand side, by the lcm of its denominators first.  A ``Matrix``
    is kept as it is and must have the objective's width.

    The checks run in order: the row count, then the type of each entry
    of ``c`` and ``b``, then the matrix.  ``c`` and ``b`` are read into
    the core's ints as they are checked, by :func:`_read`, and kept as
    ``_ints``, the pair of them, which :func:`solve_lp` and
    :func:`check_certificate` hand to the core; the pair is not a field,
    so equality, hash and repr stay those of (c, A, b)."""

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
        refusal = "objective and right-hand side entries must be Scalar"
        object.__setattr__(self, "_ints", (_read(self.c, refusal), _read(self.b, refusal)))
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

    def primal(self) -> _Ints:
        """q as ints over one common denominator, the lcm of the
        denominators of the rows that hold its nonzero entries: q_j is the
        right-hand side of its row while basic, 0 while nonbasic."""
        n, basis, rp, rq, den = len(self.nonbasic), self.basis, self.rp, self.rq, self.den
        rows = [i for i, v in enumerate(basis) if v < n and (rp[i] or rq[i])]
        d = lcm(*(den[i] for i in rows))
        ps, qs = [0] * n, [0] * n
        for i in rows:
            k = d // den[i]
            ps[basis[i]], qs[basis[i]] = rp[i] * k, rq[i] * k
        return ps, qs, d

    def dual(self) -> _Ints:
        """y as ints over dP*dQ: y_k is the reduced cost of slack n + k,
        read from its P and Q entries while it is nonbasic, 0 while it is
        basic."""
        nonbasic, n, m = self.nonbasic, len(self.nonbasic), len(self.basis)
        P, Q, dp, dq = self.rows[m], self.rows[m + 1], self.den[m], self.den[m + 1]
        ps, qs = [0] * m, [0] * m
        for j, v in enumerate(nonbasic):
            if v >= n:
                ps[v - n], qs[v - n] = P[j] * dq, Q[j] * dp
        return ps, qs, dp * dq

    def run(self) -> str:
        """Pivot until optimal or unbounded; see the module docstring for
        the entering rule and the guard that makes it terminate."""
        rows, rp, rq, den, basis, nonbasic = self.rows, self.rp, self.rq, self.den, self.basis, self.nonbasic
        m = len(basis)
        # The bases of the current degenerate run.
        seen: set[frozenset[int]] = set()
        bland = False
        while True:
            # z_j - c_j = P_j/dP + (Q_j/dQ)*sqrt2 with both denominators positive, so
            # its sign is that of P_j*dQ + Q_j*dP*sqrt2, and it is below z_k - c_k
            # when (P_j - P_k)*dQ + (Q_j - Q_k)*dP*sqrt2 is negative.
            dp, dq = den[m], den[m + 1]
            entering, low_p, low_q = -1, 0, 0
            for j, (p, q) in enumerate(zip(rows[m], rows[m + 1])):
                if p >= 0 and q >= 0:
                    continue
                # Compared with the lowest so far, which starts at 0 and stays
                # there under Bland's rule, in one test of negativity and rank;
                # ties and Bland's rule go to the lowest label.
                s = p - low_p if q == low_q else _sign((p - low_p) * dq, (q - low_q) * dp)
                if s > 0 or (s == 0 or bland) and entering >= 0 and nonbasic[j] > nonbasic[entering]:
                    continue
                entering = j
                if not bland:
                    low_p, low_q = p, q
            if entering < 0:
                return OPTIMAL
            # Minimum of rhs_i / a_i over a_i > 0; the row denominators cancel.
            leaving = -1
            for i in range(m):
                a = rows[i][entering]
                if a <= 0:
                    continue
                if leaving >= 0:
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
                seen.clear()
                bland = False
                self.pivot(leaving, entering)
                continue
            if not seen:
                seen.add(frozenset(basis))
            self.pivot(leaving, entering)
            key = frozenset(basis)
            if key in seen:
                bland = True
            else:
                seen.add(key)


def _solve_ints(columns: Sequence[Sequence[tuple[int, int]]], c: _Ints, b: _Ints) -> _Tableau | None:
    """The int core of :func:`solve_lp`: maximize c.q subject to A.q <= b,
    q >= 0, for the matrix of ``columns``, c and b each as ints ``(ps, qs,
    d)`` over one positive denominator.  Returns None when the LP is
    unbounded, else the final tableau, whose :meth:`~_Tableau.primal`,
    :meth:`~_Tableau.dual` and :meth:`~_Tableau.value` read the answer in
    ints.  A negative b_i is refused with :class:`~hvlab.errors.LpFailure`
    naming row i, before any tableau row is built."""
    bp, bq, bd = b
    for i, (p, q) in enumerate(zip(bp, bq)):
        if (p < 0 or q < 0) and _sign(p, q) < 0:
            raise LpFailure(
                f"right-hand side entry {i} is {format_scalar(_reduced(p, q, bd))}; "
                "the simplex starts from the slack basis and needs b >= 0"
            )
    ps, qs, d = c
    n = len(ps)
    # Every row and its right-hand side over b's denominator.
    rows = [[0] * n for _ in bp]
    for j, column in enumerate(columns):
        for i, a in column:
            rows[i][j] = a * bd
    # Rows P and Q hold -c: the basic slacks cost 0, so nothing needs pricing out.
    rows += [[-p for p in ps], [-q for q in qs]]
    tableau = _Tableau(rows, [*bp, 0, 0], [*bq, 0, 0], [bd] * len(bp) + [d, d], n)
    return None if tableau.run() == UNBOUNDED else tableau


def _check_ints(
    columns: Sequence[Sequence[tuple[int, int]]],
    c: _Ints,
    b: _Ints,
    q: _Ints,
    y: _Ints,
    value: tuple[int, int, int],
) -> bool:
    """The int core of :func:`check_certificate`: the certificate (q, y,
    value) of the LP of :func:`_solve_ints`.  c and q have one entry per
    column and b and y one per row, each as ints ``(ps, qs, d)`` over one
    positive denominator, and the value is a triple.  Requires q >= 0,
    y >= 0, A.q <= b, y.A >= c componentwise and c.q == y.b == value.
    Shares no code with the pivoting.

    A.q skips each zero entry of q and its sqrt2 half each entry with no
    sqrt2 part, and the sqrt2 half of y.A is skipped whole when no entry
    of y has one: A is an integer matrix, so such an entry adds exactly 0
    to that half, and every comparison still reads the half it skipped as
    0 against c's or b's sqrt2 part.  The content LP's dual is rational,
    since its ``c`` is all ones, and so is the no-signalling LP's primal,
    since its ``b`` is.
    """
    cp, cq, cd = c
    bp, bq, bd = b
    qp, qq, qd = q
    yp, yq, yd = y
    pairs = chain(zip(qp, qq), zip(yp, yq))
    if min(chain(qp, qq, yp, yq), default=0) < 0 and any((_sign(p, s) if s else p) < 0 for p, s in pairs):
        return False
    # A.q: row i is (P[i] + Q[i]*sqrt2) / qd; a q entry with no sqrt2 part
    # adds nothing to Q.
    P, Q = [0] * len(bp), [0] * len(bp)
    for column, p, s in zip(columns, qp, qq):
        if s:
            for i, a in column:
                P[i] += a * p
                Q[i] += a * s
        elif p:
            for i, a in column:
                P[i] += a * p
    for p, s, bp_i, bq_i in zip(P, Q, bp, bq):
        x, z = p * bd - bp_i * qd, s * bd - bq_i * qd
        if (_sign(x, z) if z else x) > 0:
            return False
    # y.A: column j is (p + s*sqrt2) / yd, s being 0 when y is rational.
    rational = not any(yq)
    for column, cp_j, cq_j in zip(columns, cp, cq):
        p = s = 0
        if rational:
            for i, a in column:
                p += a * yp[i]
        else:
            for i, a in column:
                p += a * yp[i]
                s += a * yq[i]
        x, z = p * cd - cp_j * yd, s * cd - cq_j * yd
        if (_sign(x, z) if z else x) < 0:
            return False
    # c.q is (p + s*sqrt2) / (cd*qd), over q's nonzero entries.
    p = s = 0
    for cp_j, cq_j, x, z in zip(cp, cq, qp, qq):
        if x or z:
            p += cp_j * x + 2 * cq_j * z
            s += cp_j * z + cq_j * x
    vp, vq, vd = value
    if p * vd != vp * cd * qd or s * vd != vq * cd * qd:
        return False
    # y.b is (p + s*sqrt2) / (bd*yd), over y's nonzero entries.
    p = s = 0
    for bp_i, bq_i, x, z in zip(bp, bq, yp, yq):
        if x or z:
            p += bp_i * x + 2 * bq_i * z
            s += bp_i * z + bq_i * x
    return p * vd == vp * bd * yd and s * vd == vq * bd * yd


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact simplex from the slack basis, for ``b >= 0`` only, over a
    condensed tableau of the m x n cells of ``A``; see the module
    docstring for the labels, the pivoting rule and where the dual is read.
    The Scalar adapter of :func:`_solve_ints`: it hands over the
    problem's kept ``c`` and ``b`` and builds q and y as Scalars from the
    tableau's int readers."""
    tableau = _solve_ints(problem.A.columns, *problem._ints)
    if tableau is None:
        return LpSolution(UNBOUNDED)
    return LpSolution(OPTIMAL, _dense(tableau.primal()), _reduced(*tableau.value()), _dense(tableau.dual()))


def _read(values: Sequence[Scalar], refusal: str) -> _Ints:
    """The values as the core's ints ``(ps, qs, d)``, by
    :func:`~hvlab.scalar._common_denominator`, once each is checked to be
    a Scalar: the first that is not is refused with ``TypeError``, its
    message ``refusal`` followed by ``", got "`` and the entry's type."""
    for v in values:
        if not isinstance(v, Scalar):
            raise TypeError(f"{refusal}, got {type(v).__name__}")
    return _common_denominator(values)


def _dense(vector: _Ints) -> tuple[Scalar, ...]:
    """A vector of ints ``(ps, qs, d)`` as Scalars in lowest terms, the
    shared ZERO and ONE for each entry 0 or 1: a lifted content dual is 1
    on every zero cell."""
    ps, qs, d = vector
    return tuple([ZERO if not (p or q) else ONE if p == d and not q else _reduced(p, q, d) for p, q in zip(ps, qs)])


def check_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    """Verify the strong-duality certificate by direct arithmetic: primal
    feasibility (A.q <= b, q >= 0), dual feasibility (y >= 0, y.A >= c
    componentwise) and matching objectives (c.q == y.b == value).

    The Scalar adapter of :func:`_check_ints`: it hands over the
    problem's kept ``c`` and ``b`` and reads q, the value and the dual,
    in that order, by :func:`_read`, and the check makes no Scalar
    product.  Another status, a missing part or a part of the wrong
    length gives False; an entry of q, value or dual that is not a Scalar
    is refused with ``TypeError`` naming its field.
    """
    if solution.status != OPTIMAL:
        return False
    if solution.q is None or solution.value is None or solution.dual is None:
        return False
    if len(solution.q) != len(problem.c) or len(solution.dual) != len(problem.b):
        return False
    q = _read(solution.q, "LpSolution.q must hold Scalars")
    (vp,), (vq,), vd = _read((solution.value,), "LpSolution.value must hold Scalars")
    y = _read(solution.dual, "LpSolution.dual must hold Scalars")
    return _check_ints(problem.A.columns, *problem._ints, q, y, (vp, vq, vd))
