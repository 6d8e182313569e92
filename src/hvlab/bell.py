"""Linear Bell functionals on behaviors.

An expression is a :class:`~hvlab.boxes.Tensor` read as coefficients
c(a,b,x,y), so it shares a behavior's spaces and row-major table layout;
its value on a box is the full contraction.  The local bound enumerates
all deterministic strategies exhaustively (cost |X|^|A| * |Y|^|B|,
deliberately unpruned, and refused past ``boxes.STRATEGY_BUDGET``); the
no-signalling bound is an exact LP over the no-signalling polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Behavior, LabelSet, Spaces, Tensor, _output_tables, deterministic_behavior
from .errors import LpFailure, SpaceMismatch
from .scalar import ONE, ZERO, Scalar, as_scalar
from .simplex import OPTIMAL, LpProblem, solve_lp


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
    (Alice, Bob) output tables, so the witness is deterministic.
    """
    best_value: Scalar | None = None
    best_strategy: DeterministicStrategy | None = None
    for outputs_a, outputs_b in _output_tables(expression.spaces):
        strategy = DeterministicStrategy(outputs_a, outputs_b)
        value = evaluate(expression, strategy.to_behavior(expression.spaces))
        if best_value is None or value > best_value:
            best_value = value
            best_strategy = strategy
    return best_value, best_strategy


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
    """Exact maximum of the functional over all no-signalling behaviors."""
    solution = solve_lp(_ns_lp(expression))
    if solution.status != OPTIMAL:
        raise LpFailure(f"no-signalling bound LP ended {solution.status}")
    return solution.value
