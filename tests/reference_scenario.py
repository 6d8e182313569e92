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

The Scalar loops that mixed, checked and wrote tables before hvlab did
so in ints are kept last: ``format_scalar`` through the reduced
``Fraction`` components, ``mix`` with one Scalar multiply and add per
cell per component, the table serializer that looked each cell up by
position through ``Tensor.at`` (with the file dicts built on it), and
``check_product`` with one Scalar product and comparison per joint cell,
against block marginals summed in Scalars by ``marginal_over`` (once a
``JointTable`` method).
``hvlab.scalar.format_scalar``, ``hvlab.boxes.mix``,
``hvlab.boxes.check_product`` and the writers of ``hvlab.formats`` must
give the same strings, tables, errors, verdicts, witnesses and bytes.

The model checks that summed weights in Scalar loops, and the two model
constructors that each checked their own structure, are kept after them:
``model_report``, ``extended_model_problems`` and ``check_distribution``,
``model_structure`` and ``extended_model_structure`` (the constructors'
bodies, returning the normalised fields), and ``first_mover_joint``, which
built every cell through a callback reading the Scalar ``marginal`` above.
(``mix`` above keeps its Scalar weight checks too.)  The model validation,
constructors and ``first_mover_joint`` of ``hvlab.hvmodel``, which check
every weight vector through one int helper, must give the same reports,
problem lists, exception types and messages, and tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Iterable, Iterator, Mapping, Sequence

from hvlab.bell import BellExpression, _ns_constraints
from hvlab.boxes import (
    Behavior,
    JointTable,
    LabelSet,
    NsWitness,
    ProductWitness,
    Side,
    Spaces,
    Tensor,
    _require_setting,
    is_no_signalling,
    require_valid_behavior,
    validate_behavior,
)
from hvlab.errors import (
    BadPartition,
    InvalidDistribution,
    InvalidModel,
    SizeBudgetExceeded,
    SpaceMismatch,
    WeightSumMismatch,
)
from hvlab.formats import _spaces_dict
from hvlab.hvmodel import (
    FIRST_MOVER_CELL_BUDGET,
    ExtendedModel,
    HiddenVariableModel,
    ModelReport,
    Pair,
    TrivialityWitness,
    require_valid_model,
)
from hvlab.scalar import ONE, ZERO, Scalar, as_scalar
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


def model_report(model: HiddenVariableModel) -> ModelReport:
    """A model's validation report, its weights summed in Scalars."""
    negatives = []
    total = ZERO
    bad_kernels = []
    for pair, weight, kernel in model.items():
        if weight.sign() < 0:
            negatives.append((pair, weight))
        total = total + weight
        report = validate_behavior(kernel)
        if not report.ok:
            bad_kernels.append((pair, report))
    return ModelReport(tuple(negatives), total, tuple(bad_kernels))


def extended_model_problems(model: ExtendedModel) -> tuple[str, ...]:
    """An extended model's problems, its pair and w weights summed in Scalars."""
    problems: list[str] = []
    total = ZERO
    for pair, weight in zip(model.pairs, model.weights):
        if weight.sign() < 0:
            problems.append(f"negative weight {format_scalar(weight)} at pair {pair}")
        total = total + weight
    if total != ONE:
        problems.append(f"pair weights sum to {format_scalar(total)}, expected 1")
    for pair, extension in zip(model.pairs, model.extensions):
        w_total = ZERO
        for w, weight in zip(extension.values, extension.weights):
            if weight.sign() < 0:
                problems.append(f"negative weight {format_scalar(weight)} for w={w} at pair {pair}")
            w_total = w_total + weight
        if w_total != ONE:
            problems.append(f"w weights at pair {pair} sum to {format_scalar(w_total)}, expected 1")
        for w, kernel in zip(extension.values, extension.kernels):
            report = validate_behavior(kernel)
            if not report.ok:
                problems.append(f"kernel at pair {pair}, w={w}: {report.summary()}")
    return tuple(problems)


def check_distribution(dist: Mapping[str, Any], space: LabelSet, what: str) -> dict[str, Scalar]:
    """A setting distribution coerced and checked label by label, in space
    order, and summed in Scalars."""
    cleaned: dict[str, Scalar] = {}
    if set(dist.keys()) != set(space.labels):
        raise InvalidDistribution(
            f"{what} must assign a weight to exactly the settings {space.labels}"
        )
    total = ZERO
    for label in space:
        value = as_scalar(dist[label])
        if value.sign() < 0:
            raise InvalidDistribution(f"{what} has negative weight at {label!r}")
        cleaned[label] = value
        total = total + value
    if total != ONE:
        raise InvalidDistribution(f"{what} sums to {format_scalar(total)}, expected 1")
    return cleaned


def model_structure(pairs: Any, weights: Any, kernels: Any) -> tuple[Any, ...]:
    """The checks of the ``HiddenVariableModel`` constructor, with the
    normalised (pairs, weights, kernels) they leave."""
    pairs = tuple((str(u), str(v)) for u, v in pairs)
    weights = tuple(as_scalar(w) for w in weights)
    kernels = tuple(kernels)
    if not pairs:
        raise InvalidModel("model needs at least one hidden pair")
    if len(pairs) != len(weights) or len(pairs) != len(kernels):
        raise InvalidModel("pairs, weights and kernels must align")
    if len(set(pairs)) != len(pairs):
        raise InvalidModel("duplicate hidden pairs")
    spaces = kernels[0].spaces
    for kernel in kernels:
        if kernel.spaces != spaces:
            raise InvalidModel("kernels must share one set of spaces")
    return pairs, weights, kernels


def extended_model_structure(pairs: Any, weights: Any, extensions: Any) -> tuple[Any, ...]:
    """The checks of the ``ExtendedModel`` constructor, with the
    normalised (pairs, weights, extensions) they leave."""
    pairs = tuple((str(u), str(v)) for u, v in pairs)
    weights = tuple(as_scalar(w) for w in weights)
    extensions = tuple(extensions)
    if not pairs:
        raise InvalidModel("model needs at least one hidden pair")
    if len(pairs) != len(weights) or len(pairs) != len(extensions):
        raise InvalidModel("pairs, weights and extensions must align")
    if len(set(pairs)) != len(pairs):
        raise InvalidModel("duplicate hidden pairs")
    spaces = extensions[0].kernels[0].spaces
    for extension in extensions:
        for kernel in extension.kernels:
            if kernel.spaces != spaces:
                raise InvalidModel("kernels must share one set of spaces")
    return pairs, weights, extensions


def first_mover_joint(
    model: HiddenVariableModel, p_a: Mapping[str, Any], p_b: Mapping[str, Any]
) -> JointTable:
    """The (A, B, U, V, X) table when Alice measures first, one callback per
    cell, each reading the Scalar-loop ``marginal`` and doing three Scalar
    multiplies."""
    sa, sb, ox, _ = model.spaces
    u_labels = tuple(dict.fromkeys(u for u, _ in model.pairs))
    v_labels = tuple(dict.fromkeys(v for _, v in model.pairs))
    cells = len(sa) * len(sb) * len(u_labels) * len(v_labels) * len(ox)
    if cells > FIRST_MOVER_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"the first-mover joint table's {cells} cells exceed the budget of {FIRST_MOVER_CELL_BUDGET} cells"
        )
    require_valid_model(model)
    dist_a = check_distribution(p_a, sa, "setting distribution for A")
    dist_b = check_distribution(p_b, sb, "setting distribution for B")
    by_pair = {pair: (weight, kernel) for pair, weight, kernel in model.items()}

    def probability(a: str, b: str, u: str, v: str, x: str) -> Scalar:
        entry = by_pair.get((u, v))
        if entry is None:
            return ZERO
        weight, kernel = entry
        return dist_a[a] * dist_b[b] * weight * marginal(kernel, "alice", (a, b))[x]

    variables = (
        ("A", sa),
        ("B", sb),
        ("U", LabelSet(u_labels)),
        ("V", LabelSet(v_labels)),
        ("X", ox),
    )
    return JointTable.from_function(variables, probability)
