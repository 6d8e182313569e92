"""Maximal local-content decomposition of no-signalling behaviors.

The local content of a box is the largest weight p such that the box
splits as p * (mixture of local deterministic vertices) plus
(1-p) * (no-signalling remainder).  Entrywise domination by the box is
equivalent to the remainder being a valid behavior, and its
no-signalling follows automatically because the defining equalities are
affine and hold for the box and for every vertex.  The maximization is
an exact LP over the vertex weights, solved by the field simplex.  A box
of content 1 is fully local and has no remainder: the residual of its
decomposition is None.

A zero cell of the box rules out every vertex with a unit there: the box
dominates sum_k q_k * D_k with q and D nonnegative, so on a cell where
the box is 0 every vertex through that cell has weight 0.
:func:`max_local_content` therefore solves the LP over every cell of the
box but only over the vertices that put no unit on a zero cell (the
presolve step for a row with zero right-hand side and nonnegative
entries; Andersen and Andersen, Math. Prog. 71, 221 (1995)).  A zero
cell's row is then 0 in every kept column and in ``b``, so its slack
stays basic through every pivot, with dual 0, and the pivots, weights,
value and dual on the other cells are those of the LP without that row.
The solved LP's answer lifts to a certificate of the full LP of
:func:`content_lp_problem`: the weights are 0 on the dropped vertices
and the dual is the solved one with 1 on every zero cell.  Every
dropped vertex has a unit on a zero cell and y, D >= 0, so y.D >= 1 for
it, and y.b is unchanged since b is 0 there; the lifted pair passes
:func:`check_certificate` with the same value.  A box with no zero cell
drops nothing and solves the full LP.

This is the standard convex-decomposition quantity; the qualitative
notion it grounds does not come with a numeric definition, so all
output labels the value "maximal local content (decomposition-based)".

The vertices and the content LP's constraint matrix depend only on the
spaces, so each process builds them once per set of spaces:
:func:`enumerate_local_vertices` hands every caller (the content LP, its
certificate problem, ``hvlab decompose --verify`` and the demos) the same
tuple of the same vertex objects, and that tuple carries the transposed
vertex matrix as a :class:`~hvlab.simplex.Matrix` of 0/1 ints, built and
checked once by :meth:`~hvlab.simplex.Matrix.from_rows`, which
:func:`content_lp_problem` reuses for it (any other tuple gets a matrix
of its own) and whose kept columns :func:`max_local_content` hands to
the simplex's int core as they are, checking no entry again.
The tuple also carries one int mask per cell, whose bit k is set when
vertex k has a unit on that cell: the kept vertices are those outside
the OR of the zero cells' masks, in the order the tuple gives them.
Entries are kept for the ``boxes.CACHED_SPACES`` = 4 most recently used
sets of spaces.  With two settings and eight outcomes per side (4096
vertices of 256 cells) one entry takes about 9.9 MiB, measured with
tracemalloc under Python 3.11: 8.6 MiB of vertex tables (references to
the shared ZERO and ONE Scalars), 1.2 MiB of matrix, whose only view is
its column lists of each vertex's unit cells, each a ``(cell, 1)`` pair,
and 0.1 MiB of masks, 256 of 4096 bits.  That is a quarter of
``VERTEX_CELL_BUDGET`` = 2**22 cells, so an entry at the budget takes
about 40 MiB; the simplex tableau of its LP, built from the columns for
each solve, holds exactly those m x n cells.  The benchmark's largest
content rung holds 81 vertices of 36 cells.

The content LP is solved in ints from the box to the answer, with no
:class:`~hvlab.simplex.LpProblem` and no Scalar on the way:
:func:`max_local_content` gives :func:`~hvlab.simplex._solve_ints` the
kept columns, ``c`` as all ones over 1 and ``b`` as the box's int view,
the very ints ``(ps, qs, den)`` kept on the box, and finds the zero
cells on that view.  The tableau's readers give q, y and the value in
ints, q and y in the form ``c`` and ``b`` go in, one entry per kept
vertex or per cell over one denominator.  Both are lifted to the full
LP in that form, q with 0 on every dropped vertex and y with 1 on every
zero cell, and the remainder is built from the lifted q's ints.  Scalars
are built only for what is reported: the content, the residual cells
and the lifted certificate, whose q and dual are each read by one
:func:`~hvlab.simplex._dense`; the support weights are the lifted q's
nonzero entries, in vertex order.  No certificate check runs inside
:func:`max_local_content`; ``hvlab decompose --verify`` and any caller
check the lifted certificate against the full LP with
:func:`~hvlab.simplex.check_certificate`.

The remainder and the audit work in ints over common denominators, with
one Scalar per reported cell; a box's ints are its int view, which only
:mod:`hvlab.boxes` builds, from the box's own table.  The audit,
:func:`verify_decomposition`, does not trust the cached tuple: it checks
every support vertex against the definition by index arithmetic on its
table's canonical triples, puts each weight on the unit cells that this
check found, and compares each cell with the box by cross-multiplication.
A box cannot change, so the check's outcome, its output index tables and
unit cells or a refusal, is computed once from the vertex's own triples
and kept on it; the cached vertices, audited for every box of their
spaces, are checked once each per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .boxes import (
    CACHED_SPACES,
    Behavior,
    LabelSet,
    Spaces,
    _int_view,
    _negatives_and_total,
    _output_tables,
    _remembered,
    _strategy_count,
    deterministic_behavior,
    is_no_signalling,
    validate_behavior,
)
from .errors import InvalidDecomposition, LpFailure, SignallingInput, SizeBudgetExceeded, SpaceMismatch
from .frozen import Frozen
from .hvmodel import HiddenVariableModel
from .scalar import ONE, ZERO, Scalar, _common_denominator, _reduced, format_scalar
from .simplex import OPTIMAL, LpProblem, LpSolution, Matrix, _dense, _solve_ints

_ONE, _ZERO = ONE._v, ZERO._v

# Most table cells, vertices times |A|*|B|*|X|*|Y|, that vertex
# enumeration will build, and so the m x n cells of the content LP's
# simplex tableau.  The strategy budget alone lets through two settings
# with sixteen outcomes per side: 65 536 vertices of 1024 cells each and
# a content LP to match.  Eight outcomes per side (4096 vertices of 256
# cells, a quarter of the budget) hold about 8.6 MiB of tables, 1.2 MiB
# of content-LP matrix columns and 0.1 MiB of per-cell masks, but the
# tableau that a solve scatters them into takes the full m x n cells; the
# benchmark's largest vertex set, 2233's, has 81 vertices of 36 cells.
VERTEX_CELL_BUDGET = 2**22


def enumerate_local_vertices(spaces: Spaces) -> tuple[Behavior, ...]:
    """All deterministic local behaviors, in lexicographic order of the
    (Alice, Bob) output tables; there are |X|^|A| * |Y|^|B| of them.
    Spaces past ``boxes.STRATEGY_BUDGET`` strategies, or past
    ``VERTEX_CELL_BUDGET`` cells in all, are refused before any is built,
    on every call.  Equal spaces give the same tuple of the same objects
    (see the module docstring)."""
    return _local_vertices(tuple(spaces))


class _LocalVertices(tuple):
    """The cached vertex tuple of one set of spaces.  It carries, built
    with it, the content LP's constraint matrix over those vertices as
    ``matrix`` (row i is cell i of every vertex table) and, as ``masks``,
    one int per cell whose bit k is set when vertex k has a unit there."""


@lru_cache(maxsize=CACHED_SPACES)
def _local_vertices(spaces: Spaces) -> _LocalVertices:
    # The budgets are checked under the cache, so a hit pays for none of
    # it; lru_cache keeps no exception, so spaces past them are refused on
    # every call.
    count = _strategy_count(spaces)
    size = prod(len(space) for space in spaces)
    if count * size > VERTEX_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"{count} vertices of {size} cells ({count * size} cells) exceed the budget of "
            f"{VERTEX_CELL_BUDGET} cells"
        )
    vertices = _LocalVertices(
        deterministic_behavior(*spaces, outputs_a, outputs_b) for outputs_a, outputs_b in _output_tables(spaces)
    )
    vertices.matrix = _transposed(vertices, size)
    masks = [0] * size
    for k, column in enumerate(vertices.matrix.columns):
        for i, _ in column:
            masks[i] |= 1 << k
    vertices.masks = tuple(masks)
    return vertices


def _transposed(vertices: tuple[Behavior, ...], cells: int) -> Matrix:
    """The matrix whose column j is the table of vertex j; a vertex with a
    cell that is not an integer is refused with
    :class:`~hvlab.errors.IrrationalMatrix`."""
    rows = zip(*(vertex.table for vertex in vertices)) if vertices else ((),) * cells
    return Matrix.from_rows(rows, len(vertices))


# A frozen dataclass, unlike the other value classes: callers copy one
# with a field changed through dataclasses.replace.
@dataclass(frozen=True)
class LocalDecomposition:
    """Vertex weights, remainder box and total local content.

    ``vertices`` holds only the support (positive-weight) vertices.
    When ``local_content`` is 1 the decomposition is fully local and has
    no remainder: ``residual`` is None, as normalizing a remainder of
    weight 0 would divide 0 by 0.  A residual given with content 1 is
    audited like any other, with weight 0.

    ``certificate`` is a strong-duality certificate of the full content
    LP, ``content_lp_problem(box, enumerate_local_vertices(box.spaces))``,
    also when the LP was solved over fewer vertices.
    """

    vertices: tuple[Behavior, ...]
    weights: tuple[Scalar, ...]
    residual: Behavior | None
    local_content: Scalar
    certificate: LpSolution | None = None


def content_lp_problem(behavior: Behavior, vertices: tuple[Behavior, ...]) -> LpProblem:
    """maximize sum(q) s.t. sum_i q_i * D_i <= behavior entrywise, q >= 0.

    A vertex on other spaces than the box's is refused with
    :class:`~hvlab.errors.SpaceMismatch`.  The tuple
    :func:`enumerate_local_vertices` returns lies on one set of spaces, so
    only its first vertex is compared, and it brings its own matrix, built
    once per spaces; any other tuple has every vertex compared and is
    transposed here, and a vertex with a cell that is not an integer is
    refused with :class:`~hvlab.errors.IrrationalMatrix`."""
    cached = type(vertices) is _LocalVertices
    if any(vertex.spaces != behavior.spaces for vertex in (vertices[:1] if cached else vertices)):
        raise SpaceMismatch("vertex and behavior spaces differ")
    matrix = vertices.matrix if cached else _transposed(vertices, len(behavior.table))
    return LpProblem((ONE,) * len(vertices), matrix, behavior.table)


def max_local_content(behavior: Behavior) -> LocalDecomposition:
    """Exact maximal local content of a valid no-signalling box.

    The content LP over the vertices with no unit on a zero cell is solved
    by the simplex's int core, from the box's int view to the tableau's
    int answer; Scalars are built only for the support weights, the
    residual cells, the content and the certificate, lifted to the full
    LP of :func:`content_lp_problem` (see the module docstring).  The
    certificate is not checked here: :func:`~hvlab.simplex.check_certificate`
    checks it."""
    ok, witness = is_no_signalling(behavior)
    if not ok:
        raise SignallingInput(
            f"no local decomposition exists for a signalling box ({witness.describe()})"
        )
    vertices = enumerate_local_vertices(behavior.spaces)
    # The content LP over every cell and the vertices with no unit on a zero
    # cell, those outside the OR of the zero cells' masks, its columns taken
    # from the cached matrix and b the box's int view (see the module docstring).
    columns, masks = vertices.matrix.columns, vertices.masks
    view = _int_view(behavior)
    bp, bq, b = view
    zero = [i for i, (p, q) in enumerate(zip(bp, bq)) if not (p or q)]
    dropped = 0
    for i in zero:
        dropped |= masks[i]
    # The set bits of the kept mask, lowest first: one step per kept vertex.
    kept = []
    rest = ~dropped & ((1 << len(columns)) - 1)
    while rest:
        low = rest & -rest
        kept.append(low.bit_length() - 1)
        rest ^= low
    n = len(kept)
    tableau = _solve_ints([columns[k] for k in kept], ((1,) * n, (0,) * n, 1), view)
    if tableau is None:
        raise LpFailure("local-content LP ended unbounded")
    vp, vq, vd = tableau.value()
    content = _reduced(vp, vq, vd)
    # q over w lifted to the full LP: 0 on every dropped vertex.
    kp, kq, w = tableau.primal()
    qp, qq, support = [0] * len(vertices), [0] * len(vertices), []
    for k, p, q in zip(kept, kp, kq):
        if p or q:
            qp[k], qq[k] = p, q
            support.append(k)
    lifted = _dense((qp, qq, w))
    residual = None
    if vq or vp != vd:
        # (box - sum_k q_k*D_k) / (1 - content), D_k being column k of the vertex
        # matrix, all 1s: numerators r over b*w, each times 1/(1 - content) =
        # vd/((vd - vp) - vq*sqrt2) = (sp + sq*sqrt2)/sd, by the conjugate.
        rp, rq = [p * w for p in bp], [q * w for q in bq]
        for k in support:
            for i, _ in columns[k]:
                rp[i] -= qp[k] * b
                rq[i] -= qq[k] * b
        sp, sq, sd = vd * (vd - vp), vd * vq, (vd - vp) ** 2 - 2 * vq * vq
        if sd < 0:
            sp, sq, sd = -sp, -sq, -sd
        d = b * w * sd
        cells = (_reduced(p * sp + 2 * q * sq, p * sq + q * sp, d) if p or q else ZERO for p, q in zip(rp, rq))
        residual = Behavior(*behavior.spaces, cells)
    # y over yd lifted to the full LP: 1 on every zero cell, where the solved y is 0.
    yp, yq, yd = tableau.dual()
    for i in zero:
        yp[i] = yd
    return LocalDecomposition(
        vertices=tuple(vertices[k] for k in support),
        weights=tuple(lifted[k] for k in support),
        residual=residual,
        local_content=content,
        certificate=LpSolution(OPTIMAL, lifted, content, _dense((yp, yq, yd))),
    )


_VertexTables = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _vertex_output_tables(behavior: Behavior) -> _VertexTables | None:
    """The (Alice, Bob) output index tables of a local deterministic vertex
    and the positions of its unit cells, one per (a, b) block in table
    order, or None for any other box, checked against the definition by
    index arithmetic on its table's canonical triples: each (a, b) block
    holds exactly one cell equal to ONE and zeros elsewhere, Alice's unit
    outcome does not depend on b, and Bob's does not depend on a.  That is
    the same as valid, 0/1 and no-signalling, and shares no code with
    vertex enumeration or the LP."""
    na, nb, nx, ny = (len(space) for space in behavior.spaces)
    cells = [cell._v for cell in behavior.table]
    block = nx * ny
    outcome_a: dict[int, int] = {}
    outcome_b: dict[int, int] = {}
    units = []
    for ia in range(na):
        for ib in range(nb):
            start = (ia * nb + ib) * block
            triples = cells[start : start + block]
            if triples.count(_ZERO) != block - 1 or _ONE not in triples:
                return None
            unit = triples.index(_ONE)
            ix, iy = divmod(unit, ny)
            if outcome_a.setdefault(ia, ix) != ix or outcome_b.setdefault(ib, iy) != iy:
                return None
            units.append(start + unit)
    # Both dicts were filled in setting order.
    return tuple(outcome_a.values()), tuple(outcome_b.values()), tuple(units)


def _audited_tables(behavior: Behavior) -> _VertexTables | None:
    """:func:`_vertex_output_tables` of the box, kept on it after the first
    call."""
    return _remembered(behavior, _vertex_output_tables, "_vertex")


def _strategy_label(outcomes: LabelSet, outputs: tuple[int, ...]) -> str:
    """An output index table as outcome labels, collapsed to the bare
    outcome when constant."""
    if len(set(outputs)) == 1:
        return outcomes.labels[outputs[0]]
    return ",".join(outcomes.labels[i] for i in outputs)


def _unused_label(label: tuple[str, str], taken: set[tuple[str, str]]) -> tuple[str, str]:
    """``label`` with primes appended to both parts until it is not in
    ``taken``, to which it is then added."""
    while label in taken:
        label = (label[0] + "'", label[1] + "'")
    taken.add(label)
    return label


class CheckResult(Frozen):
    name: str
    ok: bool
    detail: str = ""


class DecompositionReport(Frozen):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def summary(self) -> str:
        return "; ".join(
            f"{check.name}: {'ok' if check.ok else 'FAIL'}" + (f" ({check.detail})" if check.detail else "")
            for check in self.checks
        )


def _intrinsic_checks(
    d: LocalDecomposition, spaces: Spaces | None = None
) -> tuple[list[tuple[CheckResult, str]], list[_VertexTables | None], tuple[list[int], list[int], int]]:
    """The checks of the weights and vertices that need no target box, each
    with the message :func:`decomposition_to_model` raises when it fails;
    each vertex's output index tables and unit cells (None for a vertex
    that is not local deterministic), given ``spaces`` on which every
    vertex must also lie; and the weights as ints over their common
    denominator."""
    weights = _common_denominator(d.weights)
    negatives, total = _negatives_and_total(*weights)
    negative = [format_scalar(d.weights[i]) for i in negatives]
    tables = [_audited_tables(vertex) for vertex in d.vertices]
    bad_vertices = [
        i
        for i, (vertex, outputs) in enumerate(zip(d.vertices, tables))
        if (spaces is not None and vertex.spaces != spaces) or outputs is None
    ]
    inconsistent = "weights are inconsistent with the recorded local content"
    residual_missing = d.residual is None and d.local_content != ONE
    checks = [
        (
            CheckResult("weights_nonnegative", not negative, ", ".join(negative)),
            f"negative weight {negative[0]}" if negative else "",
        ),
        (
            CheckResult(
                "local_content_is_weight_sum",
                total == d.local_content and len(d.weights) == len(d.vertices),
                f"sum {format_scalar(total)} vs recorded {format_scalar(d.local_content)}",
            ),
            inconsistent,
        ),
        (
            CheckResult(
                "local_content_at_most_one", (d.local_content - ONE).sign() <= 0, format_scalar(d.local_content)
            ),
            inconsistent,
        ),
        (
            CheckResult(
                "residual_used_unless_fully_local",
                not residual_missing,
                f"local content {format_scalar(d.local_content)}" if residual_missing else "",
            ),
            "the residual is unused but the local content is not 1",
        ),
        (
            CheckResult(
                "vertices_are_local_deterministic",
                not bad_vertices,
                f"offending indices {bad_vertices}" if bad_vertices else "",
            ),
            "vertices must be deterministic local behaviors",
        ),
    ]
    return checks, tables, weights


def verify_decomposition(decomposition: LocalDecomposition, behavior: Behavior) -> DecompositionReport:
    """Re-check every decomposition invariant against the target box.

    Works by direct arithmetic on the decomposition data; it shares no
    code with the LP and so serves as its external auditor.
    """
    d = decomposition
    intrinsic, tables, (wp, wq, w) = _intrinsic_checks(d, behavior.spaces)
    checks = [check for check, _ in intrinsic]
    vertices_ok = checks[-1].ok  # vertices_are_local_deterministic

    # The residual counts only on the box's own spaces.
    same_spaces = d.residual is None or d.residual.spaces == behavior.spaces
    residual_ok = False
    size = len(behavior.table)
    residual_view = ((0,) * size, (0,) * size, 1) if d.residual is None else _int_view(d.residual)
    if d.residual is not None:
        residual_report = validate_behavior(d.residual)
        residual_ok = same_spaces and residual_report.ok
        detail = residual_report.summary() if not residual_report.ok else "residual spaces differ"
        checks.append(CheckResult("residual_valid", residual_ok, "" if residual_ok else detail))

    if vertices_ok:
        if not same_spaces:
            checks.append(CheckResult("reconstruction_exact", False, "residual spaces differ"))
        else:
            # Each weight goes on its vertex's unit cells, as ints over the
            # weights' common denominator w.  With the residual (zero when
            # None) over s, its weight 1 - content over rd and the box over b,
            # each cell is compared times w*rd*s*b.
            lp, lq = [0] * size, [0] * size
            for (_, _, units), p, q in zip(tables, wp, wq):
                for i in units:
                    lp[i] += p
                    lq[i] += q
            sp, sq, s = residual_view
            cp, cq, rd = d.local_content._v
            rp, rq = rd - cp, -cq
            bp, bq, b = _int_view(behavior)
            local, remainder, box = rd * s * b, w * b, w * rd * s
            rebuilt = (
                p * local + (rp * ps + 2 * rq * qs) * remainder == box_p * box
                and q * local + (rp * qs + rq * ps) * remainder == box_q * box
                for p, q, ps, qs, box_p, box_q in zip(lp, lq, sp, sq, bp, bq)
            )
            mismatch = next((i for i, ok in enumerate(rebuilt) if not ok), None)
            checks.append(
                CheckResult(
                    "reconstruction_exact",
                    mismatch is None,
                    "" if mismatch is None else f"first differing cell index {mismatch}",
                )
            )

        box_valid = validate_behavior(behavior).ok
        original_ns = box_valid and is_no_signalling(behavior)[0]
        if original_ns and residual_ok:
            residual_ns, ns_witness = is_no_signalling(d.residual)
            checks.append(
                CheckResult(
                    "residual_no_signalling",
                    residual_ns,
                    "" if residual_ns else ns_witness.describe(),
                )
            )
    return DecompositionReport(tuple(checks))


def decomposition_to_model(decomposition: LocalDecomposition) -> HiddenVariableModel:
    """Package a decomposition as an explicit hidden-variable model.

    Each vertex becomes a hidden pair labelled by its output tables
    (collapsed to the bare outcome when constant), and the remainder,
    when present, becomes the pair ("0","0") of weight 1 - content.  A label already taken,
    which outcome labels holding "," can cause, gets primes appended to
    both parts until it is not.
    """
    d = decomposition
    checks, tables, _ = _intrinsic_checks(d)
    for check, message in checks:
        if not check.ok:
            raise InvalidDecomposition(message)
    # Every kernel of a model lies on one set of spaces.
    spaces = d.vertices[0].spaces if d.vertices else d.residual.spaces
    if any(vertex.spaces != spaces for vertex in d.vertices):
        raise InvalidDecomposition("vertex spaces differ")
    if d.residual is not None:
        if d.residual.spaces != spaces:
            raise InvalidDecomposition("residual spaces differ")
        if not validate_behavior(d.residual).ok:
            raise InvalidDecomposition("residual is not a valid behavior")

    pairs: list[tuple[str, str]] = []
    weights: list[Scalar] = []
    kernels: list[Behavior] = []
    taken: set[tuple[str, str]] = set()
    for vertex, q, (outputs_a, outputs_b, _) in zip(d.vertices, d.weights, tables):
        label = (_strategy_label(vertex.outcomes_x, outputs_a), _strategy_label(vertex.outcomes_y, outputs_b))
        pairs.append(_unused_label(label, taken))
        weights.append(q)
        kernels.append(vertex)
    if d.residual is not None:
        pairs.append(_unused_label(("0", "0"), taken))
        weights.append(ONE - d.local_content)
        kernels.append(d.residual)
    return HiddenVariableModel(tuple(pairs), tuple(weights), tuple(kernels))
