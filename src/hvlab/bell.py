"""Linear Bell functionals on behaviors.

An expression is a :class:`~hvlab.boxes.Tensor` read as coefficients
c(a,b,x,y), so it shares a behavior's spaces and row-major table layout;
its value on a box is the full contraction.  The local bound is a
best-response search on the table written as Python ints over one
common denominator (:func:`_best_response`, which takes a plain table so
that other searches can call it): it walks Alice's |X|^|A| output tables
depth-first, and for each one Bob's best reply splits into one
independent choice per setting.  The sum over Alice's settings is kept
for every depth, so a table costs about |B| * |Y| int additions (a
vector of them, twice that with sqrt2 parts) and as many comparisons,
and one Scalar is built for the answer; spaces past
``boxes.STRATEGY_BUDGET`` total strategies are refused before anything
is built.  The search reads the entries that each of Alice's (setting,
outcome) pairs adds, one per Bob (setting, outcome), through one
``operator.itemgetter`` over their cell indices (:func:`_gathers`); the
gathers depend only on the shape, so they are kept for the
``boxes.CACHED_SPACES`` most recently used shapes, each entry |A||X|
gathers of |B||Y| indices.  At the budget, the median of seven fresh
expressions with cells in -3..3 (plus -2..2 times sqrt2) took about
0.8 ms for a rational table and 1.4 ms for a sqrt2 one at four settings
and four outcomes per side, and 1.2 and 1.6 ms at eight settings and
two outcomes, with Python 3.11.7 on a shared 2-core host.

The no-signalling bound is an exact LP over the no-signalling polytope
in Collins-Gisin coordinates (Collins and Gisin, J. Phys. A 37, 1775
(2004)): the marginals and joint probabilities of every outcome but the
last, one inequality per table cell that is not itself a coordinate and
no equalities, so its right-hand side is nonnegative, as the simplex
requires.  A cell with neither outcome last is its own joint
coordinate, whose row would only restate q >= 0, so it has none and its
coefficient goes to that coordinate's objective.  :func:`ns_bound`
works in ints from end to end: it sums the objective from the
expression's int view, solves and checks the LP's strong-duality
certificate with the int core of :mod:`hvlab.simplex`
(``_solve_ints`` and ``_check_ints``), and builds one Scalar, the
bound, only once that check passes.  :func:`_ns_lp` wraps the same int
objective in an :class:`~hvlab.simplex.LpProblem` of Scalars for
callers of :func:`~hvlab.simplex.solve_lp`.

The constraints of that LP depend only on the spaces, so each process
builds them once per set of spaces and keeps them for the
``boxes.CACHED_SPACES`` = 4 most recently used sets: every expression
on those spaces shares one :class:`~hvlab.simplex.Matrix`, built
once, with its right-hand sides, as the int triples the core reads, and
the table cell of each row.  With at least two outcomes per side the
matrix has |A||B|(|X|+|Y|-1) rows, against |A||B||X||Y| cells, of
|A|(|X|-1) + |B|(|Y|-1) + |A||B|(|X|-1)(|Y|-1) columns, and an entry
holds it only as each column's nonzero entries, the ints +-1.  Measured
with tracemalloc under Python 3.11, one setting with 45 outcomes per
side (89 rows of 2024 columns; its 2025 x 2024 Collins-Gisin cells are
just within ``NS_CELL_BUDGET`` = 2**22) takes 0.79 MiB with its cell
maps, and its build, which writes no dense row, peaks at 1.06 MiB; the
simplex tableau that a solve scatters the columns into holds all m x n
cells, and :func:`ns_bound` and ``solve_lp`` of :func:`_ns_lp` each
peak at 1.9 MiB over the cached entry.  Spaces whose full Collins-Gisin
matrix would pass that budget are refused before anything is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, repeat
from math import gcd
from operator import add, itemgetter, mul
from typing import Callable, Iterator, Sequence

from .boxes import (
    CACHED_SPACES,
    Behavior,
    LabelSet,
    Spaces,
    Tensor,
    _int_view,
    _strategy_count,
    deterministic_behavior,
)
from .errors import LpFailure, SizeBudgetExceeded, SpaceMismatch
from .frozen import Frozen
from .scalar import ONE, ZERO, Scalar, _reduced, _sign, as_scalar
from .simplex import LpProblem, Matrix, _check_ints, _Ints, _solve_ints


class BellExpression(Tensor):
    """Coefficient tensor c(a,b,x,y) defining a linear functional on behaviors."""

    coefficient = Tensor.value

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return self.table


def evaluate(expression: BellExpression, behavior: Behavior) -> Scalar:
    """Full contraction sum c(a,b,x,y) * P(x,y|a,b), in the two tensors'
    int views over dc and db, then divided by dc*db."""
    if expression.spaces != behavior.spaces:
        raise SpaceMismatch("expression and behavior spaces differ")
    cp, cq, dc = _int_view(expression)
    bp, bq, db = _int_view(behavior)
    p = sum(map(mul, cp, bp)) + 2 * sum(map(mul, cq, bq))
    return _reduced(p, sum(map(mul, cp, bq)) + sum(map(mul, cq, bp)), dc * db)


def chsh() -> BellExpression:
    """The CHSH correlator functional on settings A in {0,2}, B in {1,3}.

    Coefficients are s(a,b)*x*y with the sign flipped on the (0,3)
    setting pair, so the maximally violating box evaluates to +2*sqrt2.
    """
    settings_a = LabelSet(("0", "2"))
    settings_b = LabelSet(("1", "3"))
    outcomes = LabelSet(("+1", "-1"))
    values = {"+1": 1, "-1": -1}

    def coefficient(a: str, b: str, x: str, y: str) -> Scalar:
        sign = -1 if (a, b) == ("0", "3") else 1
        return as_scalar(sign * values[x] * values[y])

    return BellExpression.from_function(settings_a, settings_b, outcomes, outcomes, coefficient)


class DeterministicStrategy(Frozen):
    """A pair of functions from settings to outcomes, one per side."""

    outputs_a: tuple[str, ...]
    outputs_b: tuple[str, ...]

    def to_behavior(self, spaces: Spaces) -> Behavior:
        return deterministic_behavior(*spaces, self.outputs_a, self.outputs_b)


def local_bound(expression: BellExpression) -> tuple[Scalar, DeterministicStrategy]:
    """Exact maximum over all deterministic local strategies.

    Ties are broken by the first strategy in lexicographic order of the
    (Alice, Bob) output tables, so the witness is deterministic; see
    :func:`_best_response`, which searches the table written as ints over
    one common denominator, the expression's int view.
    """
    _strategy_count(expression.spaces)
    ps, qs, den = _int_view(expression)
    p, q, xs, ys = _best_response(tuple(map(len, expression.spaces)), ps, qs)
    _, _, outcomes_x, outcomes_y = expression.spaces
    return _reduced(p, q, den), DeterministicStrategy(
        tuple(outcomes_x.labels[ix] for ix in xs), tuple(outcomes_y.labels[iy] for iy in ys)
    )


def _best_response(
    shape: tuple[int, int, int, int], ps: Sequence[int], qs: Sequence[int]
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The best deterministic strategy for a plain table: ``shape`` is
    (|A|, |B|, |X|, |Y|) and cell i of the row-major (a, b, x, y) table is
    ``ps[i] + qs[i]*sqrt2``.  Returns the strategy's value as ints (p, q),
    meaning p + q*sqrt2, and its output indices (xs, ys) per setting.

    Alice's output tables are walked in lexicographic order, and Bob's
    best reply to one splits into one independent choice per setting,
    whose first maximising outcome is taken; a total replaces the best
    only when strictly greater, so the strategy is the lexicographically
    first maximiser.  A table with no sqrt2 part is searched in plain
    ints; otherwise each value is a (p, q) pair compared by the exact
    sign of the difference.  ``ps`` and ``qs`` may be lists or tuples:
    the columns that the walk adds are read off them as tuples by the
    shape's cached gathers (:func:`_gathers`).
    """
    _, nb, _, ny = shape
    width = nb * ny
    rational = not any(qs)
    # columns[a][x] holds c(a, b, x, y) for every Bob (b, y), b-major, the
    # sqrt2 parts after the rational ones when the table has any.
    if rational:
        columns = [[gather(ps) for gather in row] for row in _gathers(shape)]
    else:
        columns = [[gather(ps) + gather(qs) for gather in row] for row in _gathers(shape)]
    starts = range(0, width, ny)
    best: tuple[int, int, tuple[int, ...], tuple[int, ...]] | None = None
    for xs, sums in _alice_tables(columns):
        if rational:
            replies = [sums[i : i + ny] for i in starts]
            total = sum(map(max, replies))
            if best is None or total > best[0]:
                best = total, 0, tuple(xs), tuple(reply.index(max(reply)) for reply in replies)
            continue
        total_p = total_q = 0
        ys = []
        for i in starts:
            iy, bp, bq = i, sums[i], sums[width + i]
            for j in range(i + 1, i + ny):
                if _sign(sums[j] - bp, sums[width + j] - bq) > 0:
                    iy, bp, bq = j, sums[j], sums[width + j]
            total_p += bp
            total_q += bq
            ys.append(iy - i)
        if best is None or _sign(total_p - best[0], total_q - best[1]) > 0:
            best = total_p, total_q, tuple(xs), tuple(ys)
    return best


@lru_cache(maxsize=CACHED_SPACES)
def _gathers(
    shape: tuple[int, int, int, int],
) -> tuple[tuple[Callable[[Sequence[int]], tuple[int, ...]], ...], ...]:
    """For a table of ``shape`` (|A|, |B|, |X|, |Y|), one gather per
    Alice setting a and outcome x: a callable that reads c(a, b, x, y)
    for every Bob (b, y), b-major, off the row-major (a, b, x, y) table
    as a tuple of |B||Y| entries, in C.  Kept for the ``CACHED_SPACES``
    most recently used shapes, so every table of one shape shares them.

    ``itemgetter`` of a single index returns the bare entry, so with
    |B||Y| = 1 each gather wraps its one entry in a tuple itself."""
    na, nb, nx, ny = shape

    def gather(a: int, x: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
        cells = [((a * nb + b) * nx + x) * ny + y for b in range(nb) for y in range(ny)]
        if len(cells) > 1:
            return itemgetter(*cells)
        (cell,) = cells
        return lambda table: (table[cell],)

    return tuple(tuple(gather(a, x) for x in range(nx)) for a in range(na))


def _alice_tables(columns: Sequence[Sequence[Sequence[int]]]) -> Iterator[tuple[list[int], list[int]]]:
    """Every output table xs of Alice, in lexicographic order, with the
    sum of columns[a][xs[a]] over her settings a.

    Depth-first: the partial sum over the settings fixed so far is kept
    for every depth, so moving to the next table adds one column for each
    setting that changed, on average little more than one per table.  The
    yielded list xs is reused; copy it to keep it.
    """
    na, nx = len(columns), len(columns[0])
    xs = [0] * na
    sums = [[0] * len(columns[0][0])]
    for a in range(na):
        sums.append(list(map(add, sums[a], columns[a][0])))
    while True:
        yield xs, sums[na]
        a = na - 1
        while xs[a] == nx - 1:
            xs[a] = 0
            a -= 1
            if a < 0:
                return
        xs[a] += 1
        for k in range(a, na):
            sums[k + 1] = list(map(add, sums[k], columns[k][xs[k]]))


# Most cells, rows times columns, of the full Collins-Gisin matrix of the
# no-signalling LP, one row per table cell.  The LP that _ns_lp builds
# keeps fewer rows, so its simplex tableau, which holds exactly its m x n
# cells, stays within the budget too.  The strategy budget lets through
# far more: one setting and 128 outcomes per side give 16 384 rows of
# 16 383 columns in full.  With one setting per side, 45 outcomes (2025
# rows of 2024 columns in full) are within it and 46 are not; ns_bound of
# a 45-outcome expression, whose LP has 89 rows, took 0.03 s at 18 MB
# peak RSS and peaked at 1.9 MiB of tracemalloc over the cached entry, as
# solve_lp of its _ns_lp does, with Python 3.11 on a shared 2-core host
# (0.065 s, 50 MB and 31.9 MiB with one row per cell).
NS_CELL_BUDGET = 2**22


def _ns_lp(expression: BellExpression) -> LpProblem:
    """LP over the Collins-Gisin coordinates q maximising the expression
    less its constant part, as an :class:`~hvlab.simplex.LpProblem` of
    Scalars: the LP that :func:`ns_bound` solves in ints, from the same
    int objective (:func:`_ns_objective`) and the same cached entry."""
    constraints, rhs, (ps, qs, d) = _ns_objective(expression)
    return LpProblem(tuple(map(_reduced, ps, qs, repeat(d))), constraints, tuple(_reduced(*t) for t in rhs))


def _ns_objective(expression: BellExpression) -> tuple[Matrix, tuple[tuple[int, int, int], ...], _Ints]:
    """The cached matrix and right-hand sides of the expression's spaces
    (see :func:`_ns_constraints`) and the objective as ints ``(ps, qs,
    d)``.  Spaces whose full Collins-Gisin matrix, one row per table cell,
    would pass ``NS_CELL_BUDGET`` cells are refused before any matrix is
    built, on every call.

    A cell with a row is b_i - A_i.q, and a cell without one is its own
    coordinate q_j, so the expression is c.b - (A^T.c).q plus c_cell*q_j
    for each of the latter.  The objective is summed from the int entries
    of the columns of ``A`` and the coefficients of those cells, in ints
    over the table's common denominator, its int view, and then brought
    over the lcm of its entries' own denominators by one gcd, the ints
    that :func:`~hvlab.scalar._common_denominator` reads off its Scalars.
    """
    na, nb, nx, ny = map(len, expression.spaces)
    rows, columns = na * nb * nx * ny, na * (nx - 1) + nb * (ny - 1) + na * nb * (nx - 1) * (ny - 1)
    if rows * columns > NS_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"the no-signalling LP's full Collins-Gisin matrix, {rows} rows of {columns} columns "
            f"({rows * columns} cells), exceeds the budget of {NS_CELL_BUDGET} cells"
        )
    constraints, rhs, cells, own = _ns_constraints(expression.spaces)
    ps, qs, den = _int_view(expression)
    objective_p, objective_q = [0] * columns, [0] * columns
    for cell, j in own:
        objective_p[j] += ps[cell]
        objective_q[j] += qs[cell]
    row_p, row_q = [ps[cell] for cell in cells], [qs[cell] for cell in cells]
    for j, column in enumerate(constraints.columns):
        p, q = objective_p[j], objective_q[j]
        for i, a in column:
            p -= a * row_p[i]
            q -= a * row_q[i]
        objective_p[j], objective_q[j] = p, q
    g = gcd(den, *objective_p, *objective_q)
    if g != 1:
        objective_p, objective_q, den = [p // g for p in objective_p], [q // g for q in objective_q], den // g
    return constraints, rhs, (objective_p, objective_q, den)


@lru_cache(maxsize=CACHED_SPACES)
def _ns_constraints(
    spaces: Spaces,
) -> tuple[Matrix, tuple[tuple[int, int, int], ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The no-signalling polytope A.q <= b in Collins-Gisin coordinates,
    with the table cell of each row and the coordinate of each cell that
    has no row.

    The columns are Alice's marginals p(x|a) for every outcome x but the
    last, Bob's p(y|b) likewise, then the joint p(x,y|a,b) for x and y
    both not last, each group row-major.  A no-signalling box is fixed by
    these numbers, and each table cell is b_i - A_i.q: P(x,y|a,b) is
    p(x|a)*p(y|b) with a last outcome's factor read as 1 minus the sum of
    the others, expanded and with each product p(x|a)*p(y|b) read as
    p(x,y|a,b).  A cell's row states that the cell is nonnegative; b_i is
    1 where both outcomes are last and 0 elsewhere, so the slack basis is
    feasible.  A cell whose row would be -q_j <= 0 with b_i = 0, one with
    neither outcome last or with a last outcome on a side that has only
    one, is the coordinate q_j itself: its row restates q_j >= 0, so it
    has none, and the rows are those of the other cells, in table order.
    With at least two outcomes per side that leaves |A||B|(|X|+|Y|-1) of
    the |A||B||X||Y| cells.  The q that satisfy the rows are exactly the
    no-signalling boxes, so the LP is always feasible and bounded.

    Returns the matrix, its right-hand sides as ``(p, q, d)`` triples,
    the form :func:`~hvlab.simplex._solve_ints` reads, ``cells`` (the
    table cell of each row) and ``own`` (a ``(cell, j)`` pair for each
    cell that is q_j).  Each entry, the int 1 or -1, is appended to its
    column once its cell is known to keep a row, so the plain constructor
    builds the matrix."""
    na, nb, nx, ny = (len(space) for space in spaces)
    kx, ky = nx - 1, ny - 1
    n_alice, n_bob = na * kx, nb * ky
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n_alice + n_bob + na * nb * kx * ky)]
    cells: list[int] = []
    own: list[tuple[int, int]] = []

    def terms(i: int, k: int) -> tuple[tuple[int, int | None], ...]:
        # Outcome i of k + 1 as signed marginal terms, None for the constant 1.
        return ((1, i),) if i < k else ((1, None), *((-1, j) for j in range(k)))

    for cell, (ia, ib, ix, iy) in enumerate(product(range(na), range(nb), range(nx), range(ny))):
        entries = []
        for sx, jx in terms(ix, kx):
            for sy, jy in terms(iy, ky):
                if jx is None and jy is None:
                    continue  # the constant, in b
                if jy is None:
                    column = ia * kx + jx
                elif jx is None:
                    column = n_alice + ib * ky + jy
                else:
                    column = n_alice + n_bob + ((ia * nb + ib) * kx + jx) * ky + jy
                entries.append((column, -sx * sy))  # minus the sign of its term
        if len(entries) == 1 and entries[0][1] == -1:
            own.append((cell, entries[0][0]))
            continue
        row = len(cells)
        for column, a in entries:
            columns[column].append((row, a))
        cells.append(cell)
    matrix = Matrix(len(cells), tuple(map(tuple, columns)))
    last = nx * ny - 1
    rhs = tuple(ONE._v if cell % (nx * ny) == last else ZERO._v for cell in cells)
    return matrix, rhs, tuple(cells), tuple(own)


def ns_bound(expression: BellExpression) -> Scalar:
    """Exact maximum of the functional over all no-signalling behaviors.

    The LP is solved and its strong-duality certificate checked in ints,
    by :func:`~hvlab.simplex._solve_ints` and
    :func:`~hvlab.simplex._check_ints`, over the cached matrix and
    right-hand sides and the int objective; a solution that fails the
    check raises :class:`~hvlab.errors.LpFailure`.  The one Scalar built is
    the answer, the constant part plus the LP's value.
    """
    constraints, rhs, c = _ns_objective(expression)
    tableau = _solve_ints(constraints.columns, c, rhs)
    if tableau is None:
        raise LpFailure("no-signalling bound LP ended unbounded")
    value = tableau.value()
    if not _check_ints(constraints.columns, c, rhs, tableau.primal(), tableau.dual(), value):
        raise LpFailure("no-signalling bound LP solution failed its strong-duality certificate check")
    # The constant part c.b: b is 1 where both outcomes are last, 0 elsewhere.
    ps, qs, den = _int_view(expression)
    _, _, nx, ny = map(len, expression.spaces)
    last = slice(nx * ny - 1, None, nx * ny)
    vp, vq, vd = value
    return _reduced(sum(ps[last]) * vd + vp * den, sum(qs[last]) * vd + vq * den, den * vd)
