"""Scalar-loop references for code that hvlab now runs in ints.

Each function is the code hvlab shipped before the int kernel that
replaced it, kept unchanged so that the tests can demand the same
results from the kernel where no independent oracle pins them.

- ``marginal``, the Scalar-loop one-side marginal, with
  ``marginal_is_no_signalling`` and ``triviality_witness`` on it:
  ``hvlab.boxes.marginal``, ``hvlab.boxes.is_no_signalling`` and
  ``hvlab.hvmodel.check_triviality`` must give the same distributions,
  verdicts and witnesses without sharing a box's int view.
- ``collins_gisin_ns_lp`` and ``collins_gisin_rows``, the no-signalling LP
  with its objective summed in Scalars and its matrix written as one
  dense row per table cell: ``hvlab.bell._ns_lp`` and
  ``hvlab.bell._ns_constraints`` must build the same ``LpProblem``.
- ``format_scalar`` through the reduced ``Fraction`` components, ``mix``
  with one Scalar multiply and add per cell per component, the table
  serializer that looked each cell up through ``Tensor.at`` (with the file
  dicts built on it), and ``check_product`` with one Scalar product per
  joint cell against block marginals summed by ``marginal_over``:
  ``hvlab.scalar.format_scalar``, ``hvlab.boxes.mix``,
  ``hvlab.boxes.check_product`` and the writers of ``hvlab.formats`` must
  give the same strings, tables, errors, verdicts, witnesses and bytes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Iterable, Iterator, Sequence

from hvlab.bell import BellExpression, _ns_constraints
from hvlab.boxes import (
    Behavior,
    JointTable,
    NsWitness,
    ProductWitness,
    Side,
    Spaces,
    Tensor,
    _require_setting,
    require_valid_behavior,
)
from hvlab.errors import BadPartition, SpaceMismatch, WeightSumMismatch
from hvlab.formats import _spaces_dict
from hvlab.hvmodel import ExtendedModel, HiddenVariableModel, Pair, TrivialityWitness
from hvlab.scalar import ONE, ZERO, Scalar, as_scalar
from hvlab.simplex import LpProblem


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
    of ``A``: every entry is the int +-1, so a coefficient is added or
    subtracted.
    """
    constraints, rhs = _ns_constraints(expression.spaces)
    coefficients = expression.table
    objective = []
    for column in constraints.columns:
        total = ZERO
        for i, entry in column:
            coefficient = coefficients[i]
            if not coefficient.is_zero():
                total = total - coefficient if entry == 1 else total + coefficient
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


def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form, from the reduced components ``a`` and ``b``."""
    if not s.b:
        return _format_rational(s.a)
    root = f"{_format_rational(abs(s.b))}*sqrt2"
    if not s.a:
        return root if s.b > 0 else f"-{root}"
    sign = "+" if s.b > 0 else "-"
    return f"{_format_rational(s.a)}{sign}{root}"


def mix(components: Iterable[tuple[Scalar | int, Behavior]]) -> Behavior:
    """Entrywise convex combination, one Scalar multiply and add per cell
    per component of nonzero weight."""
    pairs = [(as_scalar(w), behavior) for w, behavior in components]
    if not pairs:
        raise WeightSumMismatch("empty mixture")
    spaces = pairs[0][1].spaces
    for _, behavior in pairs:
        if behavior.spaces != spaces:
            raise SpaceMismatch("mixture components must share all label sets")
    total = ZERO
    for weight, _ in pairs:
        if weight.sign() < 0:
            raise WeightSumMismatch(f"negative mixture weight {format_scalar(weight)}")
        total = total + weight
    if total != ONE:
        raise WeightSumMismatch(f"mixture weights sum to {format_scalar(total)}, expected 1")
    size = len(pairs[0][1].table)
    table = [ZERO] * size
    for weight, behavior in pairs:
        if weight.is_zero():
            continue
        for i in range(size):
            table[i] = table[i] + weight * behavior.table[i]
    return Behavior(*spaces, tuple(table))


def serialize_table(tensor: Tensor) -> dict[str, list[list[str]]]:
    """The ``"p"`` or ``"c"`` object of one table, each cell looked up
    through ``Tensor.at`` and formatted on its own."""
    nx, ny = len(tensor.outcomes_x), len(tensor.outcomes_y)
    return {
        f"{a}|{b}": [[format_scalar(tensor.at(ia, ib, ix, iy)) for iy in range(ny)] for ix in range(nx)]
        for ia, a in enumerate(tensor.settings_a)
        for ib, b in enumerate(tensor.settings_b)
    }


def tensor_to_dict(tensor: Tensor, key: str) -> dict[str, Any]:
    """A box (key ``"p"``) or expression (``"c"``) file's document."""
    data = _spaces_dict(tensor.spaces)
    data[key] = serialize_table(tensor)
    return data


def model_to_dict(model: HiddenVariableModel | ExtendedModel) -> dict[str, Any]:
    """A model file's document, every weight and cell formatted on its own."""
    data = _spaces_dict(model.spaces)
    pairs = []
    if isinstance(model, HiddenVariableModel):
        for pair, weight, kernel in model.items():
            pairs.append(
                {"u": pair[0], "v": pair[1], "weight": format_scalar(weight), "p": serialize_table(kernel)}
            )
    else:
        for pair, weight, extension in zip(model.pairs, model.weights, model.extensions):
            entry: dict[str, Any] = {"u": pair[0], "v": pair[1], "weight": format_scalar(weight)}
            entry["w_extension"] = [
                {"w": w, "weight": format_scalar(w_weight), "p": serialize_table(kernel)}
                for w, w_weight, kernel in zip(extension.values, extension.weights, extension.kernels)
            ]
            pairs.append(entry)
    data["pairs"] = pairs
    return data


def marginal_over(joint: JointTable, names: Sequence[str]) -> dict[tuple[str, ...], Scalar]:
    """Marginal distribution of the named variables, in the given order,
    summed in Scalars."""
    positions = [joint.names.index(name) for name in names]
    result: dict[tuple[str, ...], Scalar] = {}
    for assignment, value in zip(joint.assignments(), joint.table):
        key = tuple(assignment[i] for i in positions)
        result[key] = result.get(key, ZERO) + value
    return result


def check_product(
    joint: JointTable, left: Sequence[str], right: Sequence[str]
) -> tuple[bool, ProductWitness | None]:
    """Independence of two blocks of variables, one Scalar product and
    comparison per joint cell against the Scalar block marginals."""
    left = tuple(left)
    right = tuple(right)
    names = set(joint.names)
    if not left or not right:
        raise BadPartition("both blocks of the partition must be non-empty")
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise BadPartition("duplicate variable in partition block")
    if set(left) & set(right):
        raise BadPartition(f"blocks overlap on {sorted(set(left) & set(right))}")
    if set(left) | set(right) != names:
        missing = sorted(names - set(left) - set(right))
        unknown = sorted((set(left) | set(right)) - names)
        raise BadPartition(f"not a partition (missing {missing}, unknown {unknown})")
    left_marginal = marginal_over(joint, left)
    right_marginal = marginal_over(joint, right)
    left_positions = [joint.names.index(name) for name in left]
    right_positions = [joint.names.index(name) for name in right]
    for assignment, value in zip(joint.assignments(), joint.table):
        lv = left_marginal[tuple(assignment[i] for i in left_positions)]
        rv = right_marginal[tuple(assignment[i] for i in right_positions)]
        if value != lv * rv:
            return False, ProductWitness(tuple(zip(joint.names, assignment)), value, lv, rv)
    return True, None
