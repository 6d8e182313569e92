"""Reference builders for the per-spaces structure of hvlab's two LPs.

These are the vertex audit and the no-signalling LP builder hvlab shipped
before each scenario's structure was built once per process; they are
kept here, unchanged, only so that the tests can demand that
``hvlab.decompose._vertex_output_tables`` gives the same verdict on
every table and that ``hvlab.bell._ns_lp`` builds the same ``LpProblem``
(same rows in the same order, so the same pivots).
"""

from __future__ import annotations

from hvlab.bell import BellExpression
from hvlab.boxes import Behavior, is_no_signalling, validate_behavior
from hvlab.scalar import ONE, ZERO, Scalar
from hvlab.simplex import LpProblem


def is_deterministic_vertex(behavior: Behavior) -> bool:
    return (
        validate_behavior(behavior).ok
        and all(cell.is_zero() or cell == ONE for cell in behavior.table)
        and is_no_signalling(behavior)[0]
    )


def ns_lp(expression: BellExpression) -> LpProblem:
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
