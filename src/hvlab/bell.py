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
is built.  At that budget (four settings and four outcomes per side, or
eight and two) a search takes 2-4 ms with Python 3.11 on a shared 2-core
host.

The no-signalling bound is an exact LP over the no-signalling polytope
in Collins-Gisin coordinates (Collins and Gisin, J. Phys. A 37, 1775
(2004)): the marginals and joint probabilities of every outcome but the
last, one inequality per table cell and no equalities, so its
right-hand side is nonnegative, as the simplex requires.  Its value is
returned only once its certificate checks.

The constraints of that LP depend only on the spaces, so each process
builds them once per set of spaces and keeps them for the
``boxes.CACHED_SPACES`` = 4 most recently used sets: every expression
on those spaces shares one :class:`~hvlab.simplex.Matrix`, built
once, with its right-hand sides.  The matrix has |A||B||X||Y| rows of
|A|(|X|-1) + |B|(|Y|-1) + |A||B|(|X|-1)(|Y|-1) columns, and an entry
holds it only as each column's nonzero entries, references to the
shared ONE and -1 Scalars.  Measured with tracemalloc under Python
3.11, 5522 (100 rows of 35 columns) takes 0.007 MiB, and one setting
with 45 outcomes per side (2025 rows of 2024 columns, just within
``NS_CELL_BUDGET`` = 2**22 cells) takes 0.64 MiB, and its build, which
writes no dense row, peaks at 0.84 MiB; the simplex tableau that a solve
scatters the columns into holds all m x n cells, and the solve peaks at
31.9 MiB.  Spaces whose matrix would pass that budget are refused before
it is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add, mul
from typing import Iterator, Sequence

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
from .simplex import OPTIMAL, LpProblem, Matrix, check_certificate, solve_lp


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
    sign of the difference.
    """
    na, nb, nx, ny = shape
    width = nb * ny
    rational = not any(qs)
    # columns[a][x] lists c(a, b, x, y) for every Bob (b, y), b-major, the
    # sqrt2 parts after the rational ones when the table has any.
    parts = (ps,) if rational else (ps, qs)
    columns = [
        [
            [part[((a * nb + b) * nx + x) * ny + y] for part in parts for b in range(nb) for y in range(ny)]
            for x in range(nx)
        ]
        for a in range(na)
    ]
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


def _alice_tables(columns: list[list[list[int]]]) -> Iterator[tuple[list[int], list[int]]]:
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


# Most cells, rows times columns, of the no-signalling LP's constraint
# matrix that _ns_lp will build, and so of the simplex tableau, which
# holds exactly those m x n cells.  The strategy budget lets through far
# more: one setting and 128 outcomes per side give 16 384 rows of 16 383
# columns.  With one setting per side, 45 outcomes (2025 rows of 2024
# columns) are within it and 46 are not; ns_bound of a 45-outcome
# expression took 0.12-0.15 s at 48 MB peak RSS, its solve_lp 31.9 MiB of
# tracemalloc and its cached matrix 0.64 MiB, with Python 3.11 on a
# shared 2-core host.
NS_CELL_BUDGET = 2**22


def _ns_lp(expression: BellExpression) -> LpProblem:
    """LP over the Collins-Gisin coordinates q maximising the expression
    less its constant part; see :func:`_ns_constraints`.  Spaces whose
    matrix would pass ``NS_CELL_BUDGET`` cells are refused before it is
    built, on every call.

    Cell i of the table is b_i - A_i.q, so the expression is
    c.b - (A^T.c).q and the objective is -A^T.c, read from the columns
    of ``A``: every entry is +-1, so a coefficient is added or subtracted,
    in ints over the table's common denominator, its int view.
    """
    na, nb, nx, ny = map(len, expression.spaces)
    rows, columns = na * nb * nx * ny, na * (nx - 1) + nb * (ny - 1) + na * nb * (nx - 1) * (ny - 1)
    if rows * columns > NS_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"the no-signalling LP's {rows} rows of {columns} columns ({rows * columns} cells) exceed "
            f"the budget of {NS_CELL_BUDGET} cells"
        )
    constraints, rhs = _ns_constraints(expression.spaces)
    ps, qs, den = _int_view(expression)
    objective = []
    for column in constraints.columns:
        p = q = 0
        for i, entry in column:
            if entry == ONE:
                p, q = p - ps[i], q - qs[i]
            else:
                p, q = p + ps[i], q + qs[i]
        objective.append(_reduced(p, q, den))
    return LpProblem(tuple(objective), constraints, rhs)


@lru_cache(maxsize=CACHED_SPACES)
def _ns_constraints(spaces: Spaces) -> tuple[Matrix, tuple[Scalar, ...]]:
    """The no-signalling polytope A.q <= b in Collins-Gisin coordinates.

    The columns are Alice's marginals p(x|a) for every outcome x but the
    last, Bob's p(y|b) likewise, then the joint p(x,y|a,b) for x and y
    both not last, each group row-major.  A no-signalling box is fixed by
    these numbers, and each table cell is b_i - A_i.q: P(x,y|a,b) is
    p(x|a)*p(y|b) with a last outcome's factor read as 1 minus the sum of
    the others, expanded and with each product p(x|a)*p(y|b) read as
    p(x,y|a,b).  There is one row per cell, in table order, stating that
    the cell is nonnegative; b_i is 1 where both outcomes are last and 0
    elsewhere, so the slack basis is feasible.  The q that satisfy the
    rows are exactly the no-signalling boxes, so the LP is always
    feasible and bounded.

    Each entry, the shared ONE or -1, is appended to its column as its
    row is worked out, so the plain constructor builds the matrix."""
    na, nb, nx, ny = (len(space) for space in spaces)
    kx, ky = nx - 1, ny - 1
    n_alice, n_bob = na * kx, nb * ky
    columns: list[list[tuple[int, Scalar]]] = [[] for _ in range(n_alice + n_bob + na * nb * kx * ky)]

    def terms(i: int, k: int) -> tuple[tuple[int, int | None], ...]:
        # Outcome i of k + 1 as signed marginal terms, None for the constant 1.
        return ((1, i),) if i < k else ((1, None), *((-1, j) for j in range(k)))

    # A cell's entry is minus the sign of its term.
    entry = {1: -ONE, -1: ONE}
    for row, (ia, ib, ix, iy) in enumerate(product(range(na), range(nb), range(nx), range(ny))):
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
                columns[column].append((row, entry[sx * sy]))
    matrix = Matrix(na * nb * nx * ny, tuple(map(tuple, columns)))
    return matrix, ((ZERO,) * (nx * ny - 1) + (ONE,)) * (na * nb)


def ns_bound(expression: BellExpression) -> Scalar:
    """Exact maximum of the functional over all no-signalling behaviors.

    The value is returned only after :func:`~hvlab.simplex.check_certificate`
    has verified the LP's strong-duality certificate; a solution that fails
    the check raises :class:`~hvlab.errors.LpFailure`.
    """
    problem = _ns_lp(expression)
    solution = solve_lp(problem)
    if solution.status != OPTIMAL:
        raise LpFailure(f"no-signalling bound LP ended {solution.status}")
    if not check_certificate(problem, solution):
        raise LpFailure("no-signalling bound LP solution failed its strong-duality certificate check")
    # The constant part c.b: b is 1 where both outcomes are last, 0 elsewhere.
    ps, qs, den = _int_view(expression)
    _, _, nx, ny = map(len, expression.spaces)
    last = slice(nx * ny - 1, None, nx * ny)
    return _reduced(sum(ps[last]), sum(qs[last]), den) + solution.value
