"""Reference builders for the per-spaces structure of hvlab's two LPs.

These are the vertex audit and the no-signalling LP builder hvlab shipped
before each scenario's structure was built once per process; they are
kept here, unchanged, only so that the tests can demand that
``hvlab.decompose._vertex_output_tables`` gives the same verdict on
every table and that ``hvlab.bell.ns_bound``, now an LP in Collins-Gisin
coordinates, gives this equality-pair LP's optimum.  The equality-pair LP
also keeps the reference solver's phase one under test, since its negated
normalisation rows need artificials; ``hvlab.simplex.solve_lp``, which
has no phase one, refuses it.  The no-signalling
check that summed each marginal in Scalars is kept too, with its own copy
of the Scalar-loop ``marginal`` that ``hvlab.boxes`` shipped before it
summed a box's int view, so that the index-arithmetic
``hvlab.boxes.is_no_signalling`` must give the same verdict and the same
witness, and ``hvlab.boxes.marginal`` the same distributions, without
sharing the view with the code under test.  The per-pair triviality
search that compared those Scalar marginals label by label is kept too,
on the same copy, so that ``hvlab.hvmodel.check_triviality`` and
``nontrivial_weight``, which compare two boxes' int marginal tables by
cross-multiplication, must find the same witnesses.  The Collins-Gisin builder
that summed each objective coefficient in Scalars is kept too, so that
``hvlab.bell._ns_lp``, which sums in ints over one common denominator,
must build the same ``LpProblem``.  So are the Collins-Gisin constraint
rows as that builder wrote them, one dense row of Scalars per table cell,
so that ``hvlab.bell._ns_constraints``, which appends each entry to its
column as it computes it, must build the matrix ``Matrix.from_rows``
reads off them.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from hvlab.bell import BellExpression, _ns_constraints
from hvlab.boxes import (
    Behavior,
    Spaces,
    NsWitness,
    Side,
    _require_setting,
    is_no_signalling,
    require_valid_behavior,
    validate_behavior,
)
from hvlab.hvmodel import Pair, TrivialityWitness
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


def marginal(behavior: Behavior, side: Side, settings: tuple[str, str]) -> dict[str, Scalar]:
    """One-side outcome distribution P(x|a,b) or P(y|a,b)."""
    a, b = settings
    ia = _require_setting(behavior.settings_a, a, "alice")
    ib = _require_setting(behavior.settings_b, b, "bob")
    result: dict[str, Scalar] = {}
    if side == "alice":
        for ix, x in enumerate(behavior.outcomes_x):
            total = ZERO
            for iy in range(len(behavior.outcomes_y)):
                total = total + behavior.at(ia, ib, ix, iy)
            result[x] = total
    elif side == "bob":
        for iy, y in enumerate(behavior.outcomes_y):
            total = ZERO
            for ix in range(len(behavior.outcomes_x)):
                total = total + behavior.at(ia, ib, ix, iy)
            result[y] = total
    else:
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    return result


def marginal_is_no_signalling(behavior: Behavior) -> tuple[bool, NsWitness | None]:
    """Each party's marginals, by label through ``marginal``, compared
    against the first counterpart setting."""
    require_valid_behavior(behavior)
    b_ref = behavior.settings_b.labels[0]
    for a in behavior.settings_a:
        reference = marginal(behavior, "alice", (a, b_ref))
        for b in behavior.settings_b.labels[1:]:
            other = marginal(behavior, "alice", (a, b))
            for x in behavior.outcomes_x:
                if reference[x] != other[x]:
                    return False, NsWitness("alice", a, b_ref, b, x, reference[x], other[x])
    a_ref = behavior.settings_a.labels[0]
    for b in behavior.settings_b:
        reference = marginal(behavior, "bob", (a_ref, b))
        for a in behavior.settings_a.labels[1:]:
            other = marginal(behavior, "bob", (a, b))
            for y in behavior.outcomes_y:
                if reference[y] != other[y]:
                    return False, NsWitness("bob", b, a_ref, a, y, reference[y], other[y])
    return True, None


def triviality_witness(pair: Pair, kernel: Behavior, reference: Behavior) -> TrivialityWitness | None:
    """First marginal difference between a kernel and the reference, by
    label through ``marginal``: Alice's in (a, b, x) order, then Bob's in
    (b, a, y) order."""
    for a in kernel.settings_a:
        for b in kernel.settings_b:
            km = marginal(kernel, "alice", (a, b))
            rm = marginal(reference, "alice", (a, b))
            for x in kernel.outcomes_x:
                if km[x] != rm[x]:
                    return TrivialityWitness(pair, "alice", a, b, x, km[x], rm[x])
    for b in kernel.settings_b:
        for a in kernel.settings_a:
            km = marginal(kernel, "bob", (a, b))
            rm = marginal(reference, "bob", (a, b))
            for y in kernel.outcomes_y:
                if km[y] != rm[y]:
                    return TrivialityWitness(pair, "bob", b, a, y, km[y], rm[y])
    return None


def collins_gisin_ns_lp(expression: BellExpression) -> LpProblem:
    """LP over the Collins-Gisin coordinates q maximising the expression
    less its constant part; see ``hvlab.bell._ns_constraints``.

    Cell i of the table is b_i - A_i.q, so the expression is
    c.b - (A^T.c).q and the objective is -A^T.c, read from the columns
    of ``A``: every entry is +-1, so a coefficient is added or subtracted.
    """
    constraints, rhs = _ns_constraints(expression.spaces)
    coefficients = expression.table
    objective = []
    for column in constraints.columns:
        total = ZERO
        for i, entry in column:
            coefficient = coefficients[i]
            if not coefficient.is_zero():
                total = total - coefficient if entry == ONE else total + coefficient
        objective.append(total)
    return LpProblem(tuple(objective), constraints, rhs)


def collins_gisin_rows(spaces: Spaces) -> tuple[Iterator[list[Scalar]], int]:
    """The Collins-Gisin constraint rows of ``hvlab.bell._ns_constraints``,
    one dense row of Scalars per table cell, in table order, and their
    width; each entry's column is worked out by index arithmetic and
    written into a row of ZEROs."""
    na, nb, nx, ny = (len(space) for space in spaces)
    kx, ky = nx - 1, ny - 1
    n_alice, n_bob = na * kx, nb * ky
    n = n_alice + n_bob + na * nb * kx * ky

    def terms(i: int, k: int) -> tuple[tuple[int, int | None], ...]:
        # Outcome i of k + 1 as signed marginal terms, None for the constant 1.
        return ((1, i),) if i < k else ((1, None), *((-1, j) for j in range(k)))

    # A cell's entry is minus the sign of its term.
    entry = {1: -ONE, -1: ONE}

    def rows() -> Iterator[list[Scalar]]:
        for ia, ib, ix, iy in product(range(na), range(nb), range(nx), range(ny)):
            row = [ZERO] * n
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
                    row[column] = entry[sx * sy]
            yield row

    return rows(), n
