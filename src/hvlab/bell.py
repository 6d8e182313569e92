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
in cell coordinates: the Collins-Gisin coordinates (Collins and Gisin,
J. Phys. A 37, 1775 (2004)), the marginals and joints of every outcome
but the last, under a unimodular change that makes each coordinate a
table cell that is 0 at the all-last deterministic box (see
:func:`_ns_constraints`), so the polytope and every bound are the same.
The LP has one inequality per table cell that is not a coordinate and
no equalities: a coordinate's own row would only restate q >= 0, so it
has none and its coefficient goes to that coordinate's objective.  The
right-hand side is 1 where both outcomes are last and 0 elsewhere,
nonnegative as the simplex requires, so the slack basis, the all-last
box, is feasible.  :func:`ns_bound` works in ints from end to end: it
sums the objective from the expression's int view, solves and checks
the LP's strong-duality certificate with the int core of
:mod:`hvlab.simplex` (``_solve_ints`` and ``_check_ints``), and builds
one Scalar, the bound, only once that check passes.  :func:`_ns_lp`
wraps the same int objective in an :class:`~hvlab.simplex.LpProblem` of
Scalars for callers of :func:`~hvlab.simplex.solve_lp`.

The constraints of that LP depend only on the spaces, so each process
builds them once per set of spaces and keeps them for the
``boxes.CACHED_SPACES`` = 4 most recently used sets: every expression
on those spaces shares one :class:`~hvlab.simplex.Matrix`, built
once, with its right-hand sides, as the int triples the core reads, the
table cell of each row and, as one tuple of ints, the cell of each
column.  With at least two outcomes per side the matrix has
|A||B||X||Y| - n rows of n = |A|(|X|-1) + |B|(|Y|-1) +
|A||B|(|X|-1)(|Y|-1) columns, and an entry holds it only as each
column's nonzero entries, the ints +-1.  Measured with tracemalloc under
Python 3.11, one setting with 45 outcomes per side (1 row of 2024
columns; its 2025 x 2024 cells in full are just within
``NS_CELL_BUDGET`` = 2**22) takes 0.28 MiB with its cell maps, and its
build, which writes no dense row, peaks at 0.55 MiB; the simplex tableau
that a solve scatters the columns into holds all m x n cells, and
:func:`ns_bound` and ``solve_lp`` of :func:`_ns_lp` peak at 0.33 and
0.22 MiB over the cached entry.  Spaces whose full matrix, one row per
table cell, would pass that budget are refused before anything is built.
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
# no-signalling LP, one row per table cell: |A||B||X||Y| x n, the same in
# cell coordinates.  The LP that _ns_lp builds keeps fewer rows, so its
# simplex tableau, which holds exactly its m x n cells, stays within the
# budget too.  The strategy budget lets through far more: one setting and
# 128 outcomes per side give 16 384 rows of 16 383 columns in full.  With
# one setting per side, 45 outcomes (2025 rows of 2024 columns in full)
# are within it and 46 are not; ns_bound of a 45-outcome expression,
# whose LP has 1 row, took 0.007 s at 16.7 MB peak RSS and peaked at
# 0.33 MiB of tracemalloc over the cached entry (solve_lp of its _ns_lp
# at 0.22 MiB), with Python 3.11 on a shared 2-core host (0.03 s, 18.5 MB
# and 1.9 MiB with 89 rows in Collins-Gisin coordinates).
NS_CELL_BUDGET = 2**22


def _ns_lp(expression: BellExpression) -> LpProblem:
    """LP over the cell coordinates q maximising the expression less its
    constant part, as an :class:`~hvlab.simplex.LpProblem` of Scalars:
    the LP that :func:`ns_bound` solves in ints, from the same int
    objective (:func:`_ns_objective`) and the same cached entry."""
    constraints, rhs, (ps, qs, d) = _ns_objective(expression)
    return LpProblem(tuple(map(_reduced, ps, qs, repeat(d))), constraints, tuple(_reduced(*t) for t in rhs))


def _ns_objective(expression: BellExpression) -> tuple[Matrix, tuple[tuple[int, int, int], ...], _Ints]:
    """The cached matrix and right-hand sides of the expression's spaces
    (see :func:`_ns_constraints`) and the objective as ints ``(ps, qs,
    d)``.  Spaces whose full matrix, one row per table cell, would pass
    ``NS_CELL_BUDGET`` cells are refused before any matrix is built, on
    every call.

    A cell with a row is b_i - A_i.q, and a cell without one is a
    coordinate q_j, its own or one it restates, so the expression is
    c.b - (A^T.c).q plus c_cell*q_j for each of the latter.  The
    objective starts from the coefficients of the coordinates' cells,
    gathered through the entry's ``coords``, and the restated cells'; the
    rest is summed from the int entries of the columns of ``A``, in ints
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
    constraints, rhs, cells, coords, restated = _ns_constraints(expression.spaces)
    ps, qs, den = _int_view(expression)
    objective_p, objective_q = [ps[cell] for cell in coords], [qs[cell] for cell in coords]
    for cell, j in restated:
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
) -> tuple[Matrix, tuple[tuple[int, int, int], ...], tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The no-signalling polytope A.q <= b in cell coordinates, with the
    table cell of each row, the cell that each coordinate is and the
    coordinate of each cell whose row would restate q_j >= 0.

    Every coordinate is a table cell that is 0 at the all-last
    deterministic box.  For every outcome x of Alice's but the last it is
    P(x, last | a, b0), b0 Bob's first setting, then for every outcome y
    of Bob's but the last P(last, y | a0, b), a0 Alice's first setting,
    then the joint P(x, y | a, b) for x and y both not last, each group
    row-major.  These are the Collins-Gisin coordinates (Collins and Gisin,
    J. Phys. A 37, 1775 (2004)) under a unimodular change: p(x|a) is
    P(x, last | a, b0) plus the joints of (a, b0) at x, and p(y|b) is
    P(last, y | a0, b) plus the joints of (a0, b) at y.  A no-signalling
    box is fixed by them, and each other table cell is b_i - A_i.q, with
    every entry of A_i +-1:

    - P(x, last | a, b) for b != b0 is P(x, last | a, b0) plus the joints
      of (a, b0) at x less those of (a, b) at x;
    - P(last, y | a, b) for a != a0 is P(last, y | a0, b) plus the joints
      of (a0, b) at y less those of (a, b) at y;
    - P(last, last | a, b) is 1 less Alice's coordinates at a and Bob's at
      b, less the joints of (a0, b0) when a = a0 or b = b0, and otherwise
      less the joints of (a, b0) and of (a0, b) plus those of (a, b).

    A cell's row states that the cell is nonnegative; b_i is 1 where both
    outcomes are last and 0 elsewhere, so b >= 0 and the slack basis, the
    all-last box, is feasible.  A coordinate's cell has no row, and nor
    has a cell that is one coordinate with b_i = 0 (on a side with one
    outcome, the cell of its last outcome at a setting but the first), a
    row that would only restate q_j >= 0.  The rows are those of the other
    cells, in table order: with at least two outcomes per side that is
    |A||B||X||Y| - n of the cells, n the number of columns.  The q that
    satisfy the rows are exactly the no-signalling boxes, so the LP is
    always feasible and bounded.

    Returns the matrix, its right-hand sides as ``(p, q, d)`` triples,
    the form :func:`~hvlab.simplex._solve_ints` reads, ``cells`` (the
    table cell of each row), ``coords`` (the cell of each column) and
    ``restated`` (a ``(cell, j)`` pair for each cell that is q_j but not
    its coordinate).  Each entry, the int 1 or -1, is appended to its
    column as its row is kept, so the plain constructor builds the
    matrix."""
    na, nb, nx, ny = (len(space) for space in spaces)
    kx, ky = nx - 1, ny - 1
    n_alice, n_bob = na * kx, nb * ky
    n = n_alice + n_bob + na * nb * kx * ky
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    coords = [0] * n
    cells: list[int] = []
    restated: list[tuple[int, int]] = []

    def joints(a: int, b: int, x: int | None = None, y: int | None = None) -> range:
        # The joint columns of (a, b), at Alice's outcome x or Bob's y if given.
        start = n_alice + n_bob + (a * nb + b) * kx * ky
        if x is not None:
            return range(start + x * ky, start + (x + 1) * ky)
        if y is not None:
            return range(start + y, start + kx * ky, ky)
        return range(start, start + kx * ky)

    for cell, (a, b, x, y) in enumerate(product(range(na), range(nb), range(nx), range(ny))):
        # The cell is b_i + sum(q over plus) - sum(q over minus).
        if x < kx and y < ky:
            coords[joints(a, b, x)[y]] = cell
            continue
        if x < kx:
            if b == 0:
                coords[a * kx + x] = cell
                continue
            plus, minus = [a * kx + x, *joints(a, 0, x)], joints(a, b, x)
        elif y < ky:
            if a == 0:
                coords[n_alice + b * ky + y] = cell
                continue
            plus, minus = [n_alice + b * ky + y, *joints(0, b, y=y)], joints(a, b, y=y)
        else:
            margins = [*range(a * kx, (a + 1) * kx), *range(n_alice + b * ky, n_alice + (b + 1) * ky)]
            if a == 0 or b == 0:
                plus, minus = [], [*margins, *joints(0, 0)]
            else:
                plus, minus = joints(a, b), [*margins, *joints(a, 0), *joints(0, b)]
        if not minus and len(plus) == 1:
            restated.append((cell, plus[0]))
            continue
        row = len(cells)
        for j in plus:
            columns[j].append((row, -1))
        for j in minus:
            columns[j].append((row, 1))
        cells.append(cell)
    matrix = Matrix(len(cells), tuple(map(tuple, columns)))
    last = nx * ny - 1
    rhs = tuple(ONE._v if cell % (nx * ny) == last else ZERO._v for cell in cells)
    return matrix, rhs, tuple(cells), tuple(coords), tuple(restated)


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
