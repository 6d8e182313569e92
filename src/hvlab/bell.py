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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .boxes import Behavior, LabelSet, Spaces, Tensor, _strategy_count, deterministic_behavior
from .errors import LpFailure, SpaceMismatch
from .scalar import ONE, ZERO, Scalar, as_scalar, compare
from .simplex import OPTIMAL, LpProblem, check_certificate, solve_lp


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
    """LP over table entries: nonnegativity, exact normalization per
    setting pair, and marginal equality against the first counterpart
    setting (equalities encoded as inequality pairs)."""
    na, nb, nx, ny = (len(space) for space in expression.spaces)
    n = len(expression.table)
    idx = expression.index
    rows: list[tuple[Scalar, ...]] = []
    rhs: list[Scalar] = []

    def add_equality(coeffs: dict[int, Scalar], value: Scalar) -> None:
        forward = [ZERO] * n
        for j, coefficient in coeffs.items():
            forward[j] = coefficient
        rows.append(tuple(forward))
        rhs.append(value)
        rows.append(tuple(-v for v in forward))
        rhs.append(-value)

    for ia in range(na):
        for ib in range(nb):
            add_equality({idx(ia, ib, ix, iy): ONE for ix in range(nx) for iy in range(ny)}, ONE)
    for ia in range(na):
        for ix in range(nx):
            for ib in range(1, nb):
                coeffs: dict[int, Scalar] = {}
                for iy in range(ny):
                    coeffs[idx(ia, ib, ix, iy)] = ONE
                    coeffs[idx(ia, 0, ix, iy)] = -ONE
                add_equality(coeffs, ZERO)
    for ib in range(nb):
        for iy in range(ny):
            for ia in range(1, na):
                coeffs = {}
                for ix in range(nx):
                    coeffs[idx(ia, ib, ix, iy)] = ONE
                    coeffs[idx(0, ib, ix, iy)] = -ONE
                add_equality(coeffs, ZERO)
    return LpProblem(expression.table, tuple(rows), tuple(rhs))


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
