"""Linear Bell functionals on behaviors.

An expression is a :class:`~hvlab.boxes.Tensor` read as coefficients
c(a,b,x,y), so it shares a behavior's spaces and row-major table layout;
its value on a box is the full contraction.  The local bound is a
best-response search: it walks Alice's |X|^|A| output tables, and for
each one Bob's best reply splits into one independent choice per
setting, so it costs |X|^|A| * |B| * |Y| * |A| exact additions and no
multiplication (spaces past ``boxes.STRATEGY_BUDGET`` total strategies
are still refused).  The no-signalling bound is an exact LP over the
no-signalling polytope, returned only once its certificate checks.

The constraints of that LP depend only on the spaces, so each process
builds them once per set of spaces and keeps them for the
``boxes.CACHED_SPACES`` = 4 most recently used sets: every expression
on those spaces shares one :class:`~hvlab.simplex.Matrix`, validated
once, with its right-hand sides.  An entry holds
2 * (|A||B| + |A||X|(|B|-1) + |B||Y|(|A|-1)) rows of |A||B||X||Y|
references to the shared ZERO, ONE and -1 Scalars, the same rows as
ints and each column's nonzero entries, far less than the tableau the
solve over it builds; 5522 has 210 rows of 100 cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .boxes import (
    CACHED_SPACES,
    Behavior,
    LabelSet,
    Spaces,
    Tensor,
    _position,
    _strategy_count,
    deterministic_behavior,
)
from .errors import LpFailure, SpaceMismatch
from .scalar import ONE, ZERO, Scalar, as_scalar, compare
from .simplex import OPTIMAL, LpProblem, Matrix, check_certificate, solve_lp


class BellExpression(Tensor):
    """Coefficient tensor c(a,b,x,y) defining a linear functional on behaviors."""

    coefficient = Tensor.value

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return self.table


def evaluate(expression: BellExpression, behavior: Behavior) -> Scalar:
    """Full contraction sum c(a,b,x,y) * P(x,y|a,b)."""
    if expression.spaces != behavior.spaces:
        raise SpaceMismatch("expression and behavior spaces differ")
    total = ZERO
    for coefficient, probability in zip(expression.coefficients, behavior.table):
        if not coefficient.is_zero():
            total = total + coefficient * probability
    return total


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


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of functions from settings to outcomes, one per side."""

    outputs_a: tuple[str, ...]
    outputs_b: tuple[str, ...]

    def to_behavior(self, spaces: Spaces) -> Behavior:
        return deterministic_behavior(*spaces, self.outputs_a, self.outputs_b)


def local_bound(expression: BellExpression) -> tuple[Scalar, DeterministicStrategy]:
    """Exact maximum over all deterministic local strategies.

    Ties are broken by the first strategy in lexicographic order of the
    (Alice, Bob) output tables, so the witness is deterministic.  The
    search keeps that witness: Alice's tables are walked in order and a
    total replaces the best only when strictly greater, and Bob's best
    replies to one table form a product over his settings, whose first
    element takes the first maximising outcome at each setting.
    """
    _strategy_count(expression.spaces)
    settings_a, settings_b, outcomes_x, outcomes_y = expression.spaces
    nx = len(outcomes_x)
    # gains[ib][iy][ia][ix] = c(a, b, x, y)
    gains = [
        [
            [tuple(expression.at(ia, ib, ix, iy) for ix in range(nx)) for ia in range(len(settings_a))]
            for iy in range(len(outcomes_y))
        ]
        for ib in range(len(settings_b))
    ]
    best_value: Scalar | None = None
    best_tables: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for xs in product(range(nx), repeat=len(settings_a)):
        total = ZERO
        ys = []
        for by_outcome in gains:
            reply_value: Scalar | None = None
            for iy, by_setting in enumerate(by_outcome):
                value = ZERO
                for row, ix in zip(by_setting, xs):
                    value = value + row[ix]
                if reply_value is None or compare(value, reply_value) > 0:
                    reply_value, reply = value, iy
            total = total + reply_value
            ys.append(reply)
        if best_value is None or compare(total, best_value) > 0:
            best_value, best_tables = total, (xs, tuple(ys))
    xs, ys = best_tables
    return best_value, DeterministicStrategy(
        tuple(outcomes_x.labels[ix] for ix in xs), tuple(outcomes_y.labels[iy] for iy in ys)
    )


def _ns_lp(expression: BellExpression) -> LpProblem:
    """LP over table entries maximising the expression; see
    :func:`_ns_constraints`."""
    return LpProblem(expression.table, *_ns_constraints(expression.spaces))


@lru_cache(maxsize=CACHED_SPACES)
def _ns_constraints(spaces: Spaces) -> tuple[Matrix, tuple[Scalar, ...]]:
    """Matrix and right-hand sides of the no-signalling polytope over table
    entries: exact normalization per setting pair, then marginal equality
    against the first counterpart setting, Alice's before Bob's.  Each
    equality is a pair of inequalities, the row and its negation."""
    na, nb, nx, ny = (len(space) for space in spaces)
    n = na * nb * nx * ny
    minus_one = -ONE
    rows: list[tuple[Scalar, ...]] = []
    rhs: list[Scalar] = []

    def add_equality(plus: list[int], minus: list[int], value: Scalar, negated: Scalar) -> None:
        forward = [ZERO] * n
        backward = [ZERO] * n
        for j in plus:
            forward[j], backward[j] = ONE, minus_one
        for j in minus:
            forward[j], backward[j] = minus_one, ONE
        rows.extend((tuple(forward), tuple(backward)))
        rhs.extend((value, negated))

    for ia in range(na):
        for ib in range(nb):
            cells = [_position(nb, nx, ny, ia, ib, ix, iy) for ix in range(nx) for iy in range(ny)]
            add_equality(cells, [], ONE, minus_one)
    for ia in range(na):
        for ix in range(nx):
            for ib in range(1, nb):
                plus = [_position(nb, nx, ny, ia, ib, ix, iy) for iy in range(ny)]
                minus = [_position(nb, nx, ny, ia, 0, ix, iy) for iy in range(ny)]
                add_equality(plus, minus, ZERO, ZERO)
    for ib in range(nb):
        for iy in range(ny):
            for ia in range(1, na):
                plus = [_position(nb, nx, ny, ia, ib, ix, iy) for ix in range(nx)]
                minus = [_position(nb, nx, ny, 0, ib, ix, iy) for ix in range(nx)]
                add_equality(plus, minus, ZERO, ZERO)
    return Matrix(rows, n), tuple(rhs)


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
    return solution.value
