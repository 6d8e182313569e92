"""Bipartite behaviors (boxes), the labelled tensor they share with Bell
expressions, and finite joint tables.

Every table over the four spaces (a, b, x, y) is a :class:`Tensor`: the
four label sets plus one exact Scalar per cell, stored flat in row-major
order with y varying fastest.  The layout, its index, label lookup, cell
iteration and construction from a function are written there once; a
behavior is a tensor read as P(x,y|a,b), a Bell expression
(:mod:`hvlab.bell`) one read as coefficients c(a,b,x,y).

Construction only checks structure (label sets and table shape); the
probabilistic invariants are the job of :func:`validate_behavior`,
which reports violations instead of raising so that deliberately broken
tables can be inspected.  Its :class:`ValidityReport`, the one report
shape of boxes and models alike, lists the problems as strings; a box
file is validated where :mod:`hvlab.formats` reads it, so only a box
built in code can be invalid.  A box cannot change after it is built, so it
keeps on the instance (:func:`_remembered`), each built once and only
from its own table: its int view (:func:`_int_view`, the cells as ints
over their common denominator), its marginal table (:func:`_marginal_table`,
both parties' one-side marginals summed from the view) and its validity
report and no-signalling verdict.  The report's row totals, :func:`marginal`,
:func:`is_no_signalling` and the triviality search of :mod:`hvlab.hvmodel`
read the marginal table, the content and Bell code the view, and each
builds a Scalar only for a value it returns.  The verdict, kept as
``(ok, witness)`` the first time a valid box is checked, is what every
later check of that box returns; an invalid box keeps no verdict and is
refused on every call.  :func:`mix` reads its components' views too,
leaving each one on its component, and builds a Scalar only per cell of
the mixture.  A Bell expression and a :class:`JointTable`, whose
validation and :func:`check_product` read it, keep their own int views
the same way.  One helper, :func:`_negatives_and_total`, checks a
probability vector given as ints over one denominator (its negative
entries and its exact total): a box's cells, mixture weights, joint
tables, and every weight vector of :mod:`hvlab.hvmodel` and
:mod:`hvlab.decompose` go through it.  All values
are otherwise immutable and all operations pure, so everything here is
safe for concurrent use; two threads that compute one of these store
equal values.

Nothing here is cached per set of spaces; ``CACHED_SPACES`` sizes the
caches of :mod:`hvlab.decompose` (the local vertices with the content
LP's matrix) and :mod:`hvlab.bell` (the no-signalling constraints, and
the local bound's gathers per table shape).
"""

from __future__ import annotations

from itertools import islice, product, repeat
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Literal, Sequence, TypeVar

from .errors import (
    BadPartition,
    InvalidBehavior,
    InvalidJointTable,
    SizeBudgetExceeded,
    SpaceMismatch,
    UnknownOutcome,
    UnknownSetting,
    WeightSumMismatch,
)
from .frozen import Frozen
from .scalar import ONE, ZERO, Scalar, _common_denominator, _Ints, _reduced, _sign, as_scalar, format_scalar

Side = Literal["alice", "bob"]

# Most deterministic strategies |X|^|A| * |Y|^|B| that the local bound
# and vertex enumeration will accept.  Past it the input is refused
# before anything is built: a 6-setting, 3-outcome scenario would
# otherwise build 531 441 vertex behaviors.
STRATEGY_BUDGET = 65_536

# How many sets of spaces the per-spaces caches keep: the local vertices
# and the content LP's matrix in ``decompose``, the no-signalling
# constraints and the local bound's gathers (per shape) in ``bell``.
CACHED_SPACES = 4


class LabelSet(Frozen):
    """Ordered set of distinct non-empty labels; order defines indexing."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("label set must not be empty")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"labels must be non-empty strings, got {label!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels

    def position(self, label: str) -> int | None:
        try:
            return self.labels.index(label)
        except ValueError:
            return None


Spaces = tuple[LabelSet, LabelSet, LabelSet, LabelSet]


def _require_setting(space: LabelSet, label: str, side: str) -> int:
    pos = space.position(label)
    if pos is None:
        raise UnknownSetting(f"unknown {side} setting {label!r}; known: {space.labels}")
    return pos


def _require_side(side: str) -> None:
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")


def _require_outcome(space: LabelSet, label: str, side: str) -> int:
    pos = space.position(label)
    if pos is None:
        raise UnknownOutcome(f"unknown {side} outcome {label!r}; known: {space.labels}")
    return pos


def _position(nb: int, nx: int, ny: int, ia: int, ib: int, ix: int, iy: int) -> int:
    """Row-major position of cell (ia, ib, ix, iy), y fastest, in a table
    with ``nb`` Bob settings and ``nx``, ``ny`` outcomes."""
    return ((ia * nb + ib) * nx + ix) * ny + iy


_T = TypeVar("_T", bound="Tensor")


def _require_scalars(table: tuple[Any, ...]) -> None:
    """The type check of a tensor's or joint table's entries."""
    for value in table:
        if not isinstance(value, Scalar):
            raise TypeError(f"table entries must be Scalar, got {type(value).__name__}")


class Tensor(Frozen):
    """Exact table over the spaces (a, b, x, y), row-major with y fastest."""

    settings_a: LabelSet
    settings_b: LabelSet
    outcomes_x: LabelSet
    outcomes_y: LabelSet
    table: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        expected = len(self.settings_a) * len(self.settings_b) * len(self.outcomes_x) * len(self.outcomes_y)
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, expected {expected}")
        _require_scalars(self.table)

    @property
    def spaces(self) -> Spaces:
        return (self.settings_a, self.settings_b, self.outcomes_x, self.outcomes_y)

    def index(self, ia: int, ib: int, ix: int, iy: int) -> int:
        """Position in ``table`` of the cell with these label positions;
        a position outside its label set raises IndexError."""
        for name, space, i in zip(self._fields, self.spaces, (ia, ib, ix, iy)):
            if not 0 <= i < len(space):
                raise IndexError(f"{name} has no position {i}: it has {len(space)} labels")
        return _position(len(self.settings_b), len(self.outcomes_x), len(self.outcomes_y), ia, ib, ix, iy)

    def at(self, ia: int, ib: int, ix: int, iy: int) -> Scalar:
        return self.table[self.index(ia, ib, ix, iy)]

    def value(self, a: str, b: str, x: str, y: str) -> Scalar:
        """Cell lookup by labels."""
        return self.at(
            _require_setting(self.settings_a, a, "alice"),
            _require_setting(self.settings_b, b, "bob"),
            _require_outcome(self.outcomes_x, x, "alice"),
            _require_outcome(self.outcomes_y, y, "bob"),
        )

    def cells(self) -> Iterator[tuple[tuple[str, str, str, str], Scalar]]:
        """Iterate ((a,b,x,y), value) in canonical row-major order."""
        return zip(product(*self.spaces), self.table)

    @classmethod
    def from_function(
        cls: type[_T],
        settings_a: LabelSet,
        settings_b: LabelSet,
        outcomes_x: LabelSet,
        outcomes_y: LabelSet,
        fn: Callable[[str, str, str, str], Scalar],
    ) -> _T:
        spaces = (settings_a, settings_b, outcomes_x, outcomes_y)
        return cls(*spaces, tuple(as_scalar(fn(*cell)) for cell in product(*spaces)))


class Behavior(Tensor):
    """Conditional distribution P(x,y|a,b); ``table`` holds the probabilities."""

    p = Tensor.value


def _strategy_count(spaces: Spaces) -> int:
    """The number |X|^|A| * |Y|^|B| of deterministic strategies; raises
    SizeBudgetExceeded when it is past STRATEGY_BUDGET."""
    settings_a, settings_b, outcomes_x, outcomes_y = spaces
    count = len(outcomes_x) ** len(settings_a) * len(outcomes_y) ** len(settings_b)
    if count > STRATEGY_BUDGET:
        raise SizeBudgetExceeded(
            f"{count} deterministic strategies exceed the budget of {STRATEGY_BUDGET}"
        )
    return count


def _output_tables(spaces: Spaces) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every deterministic strategy as its (Alice, Bob) output tables, in
    lexicographic order; refuses more than STRATEGY_BUDGET of them."""
    _strategy_count(spaces)
    settings_a, settings_b, outcomes_x, outcomes_y = spaces
    return product(
        product(outcomes_x.labels, repeat=len(settings_a)),
        product(outcomes_y.labels, repeat=len(settings_b)),
    )


def deterministic_behavior(
    settings_a: LabelSet,
    settings_b: LabelSet,
    outcomes_x: LabelSet,
    outcomes_y: LabelSet,
    outputs_a: Sequence[str],
    outputs_b: Sequence[str],
) -> Behavior:
    """Behavior induced by fixed outcome assignments per setting.

    outputs_a[i] is Alice's outcome for her i-th setting, likewise
    outputs_b for Bob; the result has exactly one unit cell per (a, b).
    """
    if len(outputs_a) != len(settings_a) or len(outputs_b) != len(settings_b):
        raise ValueError("one output per setting is required")
    xs = [_require_outcome(outcomes_x, out, "alice") for out in outputs_a]
    ys = [_require_outcome(outcomes_y, out, "bob") for out in outputs_b]
    nb, nx, ny = len(settings_b), len(outcomes_x), len(outcomes_y)
    table = [ZERO] * (len(settings_a) * nb * nx * ny)
    for ia, ix in enumerate(xs):
        for ib, iy in enumerate(ys):
            table[_position(nb, nx, ny, ia, ib, ix, iy)] = ONE
    return Behavior(settings_a, settings_b, outcomes_x, outcomes_y, table)


def uniform_behavior(
    settings_a: LabelSet, settings_b: LabelSet, outcomes_x: LabelSet, outcomes_y: LabelSet
) -> Behavior:
    cell = ONE / (len(outcomes_x) * len(outcomes_y))
    return Behavior.from_function(settings_a, settings_b, outcomes_x, outcomes_y, lambda a, b, x, y: cell)


class ValidityReport(Frozen):
    """The validity report of a box (:func:`validate_behavior`) or of a
    model of either kind (:func:`hvlab.hvmodel.validate_model`): its
    problems in the order they are found; none means valid."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        return "; ".join(self.problems) or "valid"


_UNSET = object()


def _remembered(obj: Any, compute: Callable[[Any], Any], name: str = "_validity") -> Any:
    """``compute(obj)``, kept on the immutable ``obj`` as attribute ``name``
    after the first call; each kind of object keeps its validity report as
    ``_validity``, a box its int view as ``_ints``, marginal table as
    ``_marginals``, no-signalling verdict as ``_ns`` and, once the content
    audit of :mod:`hvlab.decompose` has checked it as a vertex, its output
    tables as ``_vertex``; a Bell expression and a joint table their int
    views, a model its locality verdict and reconstruction.  A kept value
    may be None."""
    value = getattr(obj, name, _UNSET)
    if value is _UNSET:
        value = compute(obj)
        object.__setattr__(obj, name, value)
    return value


def _int_view(tensor: Tensor | JointTable) -> _Ints:
    """The tensor's table as ints ``(ps, qs, den)`` over its common
    denominator, built from the table once and kept on the tensor (a box
    or a Bell expression) or joint table."""
    return _remembered(tensor, _ints, "_ints")


def _ints(tensor: Tensor | JointTable) -> _Ints:
    return _common_denominator(tensor.table)


def _negatives_and_total(ps: Sequence[int], qs: Sequence[int], den: int) -> tuple[list[int], Scalar]:
    """The positions of the negative entries of the vector whose entry i is
    ``(ps[i] + qs[i]*sqrt2) / den``, and its exact total: the one check of
    a probability vector, shared by box cells, mixture weights, joint
    tables, model weights, setting distributions and decomposition weights."""
    negatives = []
    if min(ps, default=0) < 0 or min(qs, default=0) < 0:
        negatives = [i for i, (p, q) in enumerate(zip(ps, qs)) if (p < 0 or q < 0) and _sign(p, q) < 0]
    return negatives, _reduced(sum(ps), sum(qs), den)


def validate_behavior(behavior: Behavior) -> ValidityReport:
    """The box's validity report: each negative cell, in table order, then
    each setting pair whose row does not sum to exactly 1."""
    return _remembered(behavior, _behavior_report)


def require_valid_behavior(behavior: Behavior) -> None:
    """Raise InvalidBehavior, with the report's problems joined by "; ",
    unless the box is valid."""
    report = validate_behavior(behavior)
    if not report.ok:
        raise InvalidBehavior(report.summary())


def _behavior_report(behavior: Behavior) -> ValidityReport:
    negatives, _ = _negatives_and_total(*_int_view(behavior))
    labels = list(product(*behavior.spaces)) if negatives else []
    problems = []
    for i in negatives:
        a, b, x, y = labels[i]
        problems.append(f"negative cell P({x},{y}|{a},{b}) = {format_scalar(behavior.table[i])}")
    mp, mq, den = _marginal_table(behavior)
    nx = len(behavior.outcomes_x)
    for j, (a, b) in enumerate(product(behavior.settings_a, behavior.settings_b)):
        p, q = sum(mp[j * nx : (j + 1) * nx]), sum(mq[j * nx : (j + 1) * nx])
        if p != den or q:
            problems.append(f"row ({a},{b}) sums to {format_scalar(_reduced(p, q, den))}")
    return ValidityReport(tuple(problems))


def _marginal_table(behavior: Behavior) -> _Ints:
    """Both parties' one-side marginals as ints over the view's denominator, kept
    on the box: Alice's P(x|a,b) in (a, b, x) order, then Bob's P(y|a,b) in (b, a, y)
    order, one row per party and own setting (entries named by :func:`_marginal_entry`)."""
    return _remembered(behavior, _marginal_sums, "_marginals")


def _marginal_sums(behavior: Behavior) -> _Ints:
    ps, qs, den = _int_view(behavior)
    na, nb, nx, ny = map(len, behavior.spaces)
    runs = [slice(i, i + ny) for i in range(0, len(ps), ny)]
    starts = [(ia * nb + ib) * nx * ny for ib in range(nb) for ia in range(na)]
    runs += [slice(start + iy, start + nx * ny, ny) for start in starts for iy in range(ny)]
    return tuple(sum(ps[run]) for run in runs), tuple(sum(qs[run]) for run in runs), den


def _marginal_entry(spaces: Spaces, k: int) -> tuple[Side, str, str, str]:
    """Entry ``k`` of a marginal table as (side, own setting, counterpart, outcome)."""
    settings_a, settings_b, outcomes_x, outcomes_y = spaces
    alice = len(settings_a) * len(settings_b) * len(outcomes_x)
    if k < alice:
        side, own, other, outcomes = "alice", settings_a, settings_b, outcomes_x
    else:
        side, own, other, outcomes, k = "bob", settings_b, settings_a, outcomes_y, k - alice
    row, io = divmod(k, len(outcomes))
    return side, own.labels[row // len(other)], other.labels[row % len(other)], outcomes.labels[io]


def marginal(behavior: Behavior, side: Side, settings: tuple[str, str]) -> dict[str, Scalar]:
    """One-side outcome distribution P(x|a,b) or P(y|a,b): a slice of the
    box's marginal table, with a Scalar per returned value."""
    a, b = settings
    ia = _require_setting(behavior.settings_a, a, "alice")
    ib = _require_setting(behavior.settings_b, b, "bob")
    _require_side(side)
    na, nb, nx, ny = map(len, behavior.spaces)
    mp, mq, den = _marginal_table(behavior)
    outcomes = behavior.outcomes_x if side == "alice" else behavior.outcomes_y
    start = (ia * nb + ib) * nx if side == "alice" else na * nb * nx + (ib * na + ia) * ny
    end = start + len(outcomes)
    return {label: _reduced(p, q, den) for label, p, q in zip(outcomes, mp[start:end], mq[start:end])}


class NsWitness(Frozen):
    """Counterexample to no-signalling: one marginal value moved when the
    other party changed setting."""

    side: Side
    setting: str
    counterpart_reference: str
    counterpart_other: str
    outcome: str
    value_reference: Scalar
    value_other: Scalar

    def __post_init__(self) -> None:
        if self.value_reference == self.value_other:
            raise ValueError("witness values must differ")

    def describe(self) -> str:
        own = "a" if self.side == "alice" else "b"
        other = "b" if self.side == "alice" else "a"
        return (
            f"{self.side} marginal at {own}={self.setting}, outcome {self.outcome} "
            f"depends on the counterpart: {other}={self.counterpart_reference} gives "
            f"{format_scalar(self.value_reference)} but {other}={self.counterpart_other} gives "
            f"{format_scalar(self.value_other)}"
        )


def is_no_signalling(behavior: Behavior) -> tuple[bool, NsWitness | None]:
    """Check that each party's marginals ignore the other's setting.

    Marginals are compared against the first counterpart setting; the
    equality relation is transitive so this is equivalent to comparing
    all pairs.  Requires a valid behavior.  Each row of the box's
    marginal table (one party, one own setting) is no-signalling when it
    repeats its first |X| (or |Y|) entries; the first moved entry, in
    table order, is the witness, and only its two values become Scalars.
    The verdict is kept on the box; an invalid box raises
    :class:`~hvlab.errors.InvalidBehavior` on every call and keeps none.
    """
    require_valid_behavior(behavior)
    return _remembered(behavior, _ns_verdict, "_ns")


def _ns_verdict(behavior: Behavior) -> tuple[bool, NsWitness | None]:
    mp, mq, den = _marginal_table(behavior)
    na, nb, nx, ny = map(len, behavior.spaces)
    alice = na * nb * nx
    rows = [(start, nb, nx) for start in range(0, alice, nb * nx)]
    rows += [(start, na, ny) for start in range(alice, len(mp), na * ny)]
    for start, counterparts, n in rows:
        ps, qs = mp[start : start + counterparts * n], mq[start : start + counterparts * n]
        if ps != ps[:n] * counterparts or qs != qs[:n] * counterparts:
            k = next(k for k in range(n, len(ps)) if ps[k] != ps[k % n] or qs[k] != qs[k % n])
            side, setting, reference, outcome = _marginal_entry(behavior.spaces, start + k % n)
            other = _marginal_entry(behavior.spaces, start + k)[2]
            values = _reduced(ps[k % n], qs[k % n], den), _reduced(ps[k], qs[k], den)
            return False, NsWitness(side, setting, reference, other, outcome, *values)
    return True, None


def mix(components: Iterable[tuple[Scalar | int, Behavior]]) -> Behavior:
    """Entrywise convex combination of behaviors sharing one set of spaces.

    Checked and summed in ints: the weights, over their common denominator,
    go through :func:`_negatives_and_total`, then each component of nonzero
    weight contributes its int view, scaled to the lcm of the views'
    denominators, times its weight; only the result's cells become Scalars."""
    pairs = [(as_scalar(w), behavior) for w, behavior in components]
    if not pairs:
        raise WeightSumMismatch("empty mixture")
    spaces = pairs[0][1].spaces
    for _, behavior in pairs:
        if behavior.spaces != spaces:
            raise SpaceMismatch("mixture components must share all label sets")
    wps, wqs, wden = _common_denominator(weight for weight, _ in pairs)
    negatives, total = _negatives_and_total(wps, wqs, wden)
    if negatives:
        raise WeightSumMismatch(f"negative mixture weight {format_scalar(pairs[negatives[0]][0])}")
    if total != ONE:
        raise WeightSumMismatch(f"mixture weights sum to {format_scalar(total)}, expected 1")
    kept = [(wp, wq, _int_view(behavior)) for wp, wq, (_, behavior) in zip(wps, wqs, pairs) if wp or wq]
    den = lcm(*(view[2] for _, _, view in kept))
    size = len(pairs[0][1].table)
    ps, qs = [0] * size, [0] * size
    for wp, wq, (vps, vqs, vden) in kept:
        # (wp + wq*sqrt2) * (x + y*sqrt2) = wp*x + 2*wq*y + (wp*y + wq*x)*sqrt2
        wp, wq = wp * (den // vden), wq * (den // vden)
        if wq:
            ps = [p + wp * x + 2 * wq * y for p, x, y in zip(ps, vps, vqs)]
            qs = [q + wp * y + wq * x for q, x, y in zip(qs, vps, vqs)]
        else:
            ps = [p + wp * x for p, x in zip(ps, vps)]
            qs = [q + wp * y for q, y in zip(qs, vqs)]
    return Behavior(*spaces, tuple(map(_reduced, ps, qs, repeat(den * wden))))


class JointTable(Frozen):
    """Exact joint distribution over a list of named finite variables."""

    variables: tuple[tuple[str, LabelSet], ...]
    table: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple((name, space) for name, space in self.variables))
        object.__setattr__(self, "table", tuple(self.table))
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise InvalidJointTable(f"duplicate variable names in {names}")
        if not names:
            raise InvalidJointTable("joint table needs at least one variable")
        expected = 1
        for _, space in self.variables:
            expected *= len(space)
        if len(self.table) != expected:
            raise InvalidJointTable(f"table has {len(self.table)} entries, expected {expected}")
        _require_scalars(self.table)
        negatives, total = _negatives_and_total(*_int_view(self))
        if negatives:
            raise InvalidJointTable(f"negative entry {format_scalar(self.table[negatives[0]])}")
        if total != ONE:
            raise InvalidJointTable(f"entries sum to {format_scalar(total)}, expected 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def assignments(self) -> Iterator[tuple[str, ...]]:
        yield from product(*(space.labels for _, space in self.variables))

    def value(self, assignment: Sequence[str]) -> Scalar:
        if len(assignment) != len(self.variables):
            raise ValueError(f"assignment has {len(assignment)} values for {len(self.variables)} variables")
        index = 0
        for (name, space), label in zip(self.variables, assignment):
            pos = space.position(label)
            if pos is None:
                raise UnknownOutcome(f"variable {name} has no value {label!r}")
            index = index * len(space) + pos
        return self.table[index]

    @classmethod
    def from_function(
        cls,
        variables: Sequence[tuple[str, LabelSet]],
        fn: Callable[..., Scalar],
    ) -> JointTable:
        variables = tuple(variables)
        table = tuple(as_scalar(fn(*assignment)) for assignment in product(*(s.labels for _, s in variables)))
        return cls(variables, table)


class ProductWitness(Frozen):
    """Assignment where a joint table differs from the product of its
    two block marginals."""

    assignment: tuple[tuple[str, str], ...]
    joint_value: Scalar
    left_value: Scalar
    right_value: Scalar

    def __post_init__(self) -> None:
        if self.joint_value == self.left_value * self.right_value:
            raise ValueError("witness must violate the product identity")

    def describe(self) -> str:
        where = ", ".join(f"{name}={label}" for name, label in self.assignment)
        return (
            f"at {where}: joint {format_scalar(self.joint_value)} != "
            f"{format_scalar(self.left_value)} * {format_scalar(self.right_value)} "
            f"= {format_scalar(self.left_value * self.right_value)}"
        )


def check_product(
    joint: JointTable, left: Sequence[str], right: Sequence[str]
) -> tuple[bool, ProductWitness | None]:
    """Exact independence test between two blocks of variables.

    left and right must partition the table's variables; returns the
    first violating assignment (in table order) as a witness.  Each cell
    is compared, in ints over the table's common denominator, with the
    product of its two block marginals; only the witness's values become
    Scalars.
    """
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
    ps, qs, den = _int_view(joint)
    left_index, left_size = _block_index(joint, left)
    right_index, right_size = _block_index(joint, right)
    lps, lqs = _block_sums(ps, left_index, left_size), _block_sums(qs, left_index, left_size)
    rps, rqs = _block_sums(ps, right_index, right_size), _block_sums(qs, right_index, right_size)
    # Cell (p + q*sqrt2)/den against the product of its marginals, each over den:
    # (lp + lq*sqrt2)(rp + rq*sqrt2) = lp*rp + 2*lq*rq + (lp*rq + lq*rp)*sqrt2.
    for cell, (p, q, li, ri) in enumerate(zip(ps, qs, left_index, right_index)):
        lp, lq, rp, rq = lps[li], lqs[li], rps[ri], rqs[ri]
        if p * den != lp * rp + 2 * lq * rq or q * den != lp * rq + lq * rp:
            witness = ProductWitness(
                tuple(zip(joint.names, next(islice(joint.assignments(), cell, None)))),
                joint.table[cell],
                _reduced(lp, lq, den),
                _reduced(rp, rq, den),
            )
            return False, witness
    return True, None


def _block_index(joint: JointTable, block: Sequence[str]) -> tuple[list[int], int]:
    """For each cell, in table order, the row-major position of its
    assignment to the variables of ``block``; and the number of positions."""
    sizes = {name: len(space) for name, space in joint.variables}
    strides, size = {}, 1
    for name in reversed(block):
        strides[name] = size
        size *= sizes[name]
    index = [0]
    for name, space in joint.variables:
        offsets = [i * strides.get(name, 0) for i in range(len(space))]
        index = [k + offset for k in index for offset in offsets]
    return index, size


def _block_sums(values: Sequence[int], index: Sequence[int], size: int) -> list[int]:
    """``values`` summed by their position in ``index``."""
    sums = [0] * size
    for k, value in zip(index, values):
        if value:
            sums[k] += value
    return sums
