"""Maximal local-content decomposition of no-signalling behaviors.

The local content of a box is the largest weight p such that the box
splits as p * (mixture of local deterministic vertices) plus
(1-p) * (no-signalling remainder).  Entrywise domination by the box is
equivalent to the remainder being a valid behavior, and its
no-signalling follows automatically because the defining equalities are
affine and hold for the box and for every vertex.  The maximization is
an exact LP over the vertex weights, solved by the field simplex.

This is the standard convex-decomposition quantity; the qualitative
notion it grounds does not come with a numeric definition, so all
output labels the value "maximal local content (decomposition-based)".

The vertices depend only on the spaces, so each process builds them once
per set of spaces: :func:`enumerate_local_vertices` hands every caller
(the content LP, its certificate problem, ``hvlab decompose --verify``
and the demos) the same tuple of the same vertex objects, kept for the
``boxes.CACHED_SPACES`` = 4 most recently used sets of spaces.  That
holds at most 4 entries of ``VERTEX_CELL_BUDGET`` = 2**22 cell references
(to the shared ZERO and ONE Scalars), about 32 MB each; the benchmark's
largest content rung holds 81 vertices of 36 cells.  The audit,
:func:`verify_decomposition`, does not trust that tuple: it checks every
support vertex against the definition by index arithmetic on its table.
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
    _output_tables,
    _strategy_count,
    deterministic_behavior,
    is_no_signalling,
    uniform_behavior,
    validate_behavior,
)
from .errors import InvalidDecomposition, LpFailure, SignallingInput, SizeBudgetExceeded
from .hvmodel import HiddenVariableModel
from .scalar import ONE, ZERO, Scalar, format_scalar
from .simplex import OPTIMAL, LpProblem, LpSolution, solve_lp


# Most table cells, vertices times |A|*|B|*|X|*|Y|, that vertex
# enumeration will build.  The strategy budget alone lets through two
# settings with sixteen outcomes per side: 65 536 vertices of 1024
# cells each and a content LP to match.  Eight outcomes per side (4096
# vertices of 256 cells, a quarter of the budget) hold about 9 MB of
# tables; the largest benchmark rung, 3333, has 729 vertices of 81 cells.
VERTEX_CELL_BUDGET = 2**22


def enumerate_local_vertices(spaces: Spaces) -> tuple[Behavior, ...]:
    """All deterministic local behaviors, in lexicographic order of the
    (Alice, Bob) output tables; there are |X|^|A| * |Y|^|B| of them.
    Spaces past ``boxes.STRATEGY_BUDGET`` strategies, or past
    ``VERTEX_CELL_BUDGET`` cells in all, are refused before any is built,
    on every call.  Equal spaces give the same tuple of the same objects
    (see the module docstring)."""
    spaces = tuple(spaces)
    count = _strategy_count(spaces)
    cells = count * prod(len(space) for space in spaces)
    if cells > VERTEX_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"{count} vertices of {cells // count} cells ({cells} cells) exceed the budget of "
            f"{VERTEX_CELL_BUDGET} cells"
        )
    return _local_vertices(spaces)


@lru_cache(maxsize=CACHED_SPACES)
def _local_vertices(spaces: Spaces) -> tuple[Behavior, ...]:
    return tuple(
        deterministic_behavior(*spaces, outputs_a, outputs_b) for outputs_a, outputs_b in _output_tables(spaces)
    )


@dataclass(frozen=True)
class LocalDecomposition:
    """Vertex weights, remainder box and total local content.

    ``vertices`` holds only the support (positive-weight) vertices.
    When ``local_content`` is one the decomposition is fully local; the
    residual field then carries an unused uniform box to avoid a 0/0
    normalization, flagged by ``residual_used``.
    """

    vertices: tuple[Behavior, ...]
    weights: tuple[Scalar, ...]
    residual: Behavior
    local_content: Scalar
    residual_used: bool = True
    certificate: LpSolution | None = None


def content_lp_problem(behavior: Behavior, vertices: tuple[Behavior, ...]) -> LpProblem:
    """maximize sum(q) s.t. sum_i q_i * D_i <= behavior entrywise, q >= 0."""
    # Row i of the constraint matrix is cell i of every vertex table.
    rows = tuple(zip(*(vertex.table for vertex in vertices))) if vertices else ((),) * len(behavior.table)
    return LpProblem((ONE,) * len(vertices), rows, behavior.table)


def max_local_content(behavior: Behavior) -> LocalDecomposition:
    """Exact maximal local content of a valid no-signalling box."""
    ok, witness = is_no_signalling(behavior)
    if not ok:
        raise SignallingInput(
            f"no local decomposition exists for a signalling box ({witness.describe()})"
        )
    vertices = enumerate_local_vertices(behavior.spaces)
    problem = content_lp_problem(behavior, vertices)
    solution = solve_lp(problem)
    if solution.status != OPTIMAL:
        raise LpFailure(f"local-content LP ended {solution.status}")
    content = solution.value
    support = [(vertex, q) for vertex, q in zip(vertices, solution.q) if q.sign() > 0]
    local_part = [ZERO] * len(behavior.table)
    for vertex, q in support:
        for i, cell in enumerate(vertex.table):
            if not cell.is_zero():
                local_part[i] = local_part[i] + q * cell
    if content != ONE:
        remainder_weight = ONE - content
        residual = Behavior(
            *behavior.spaces,
            tuple((cell - local) / remainder_weight for cell, local in zip(behavior.table, local_part)),
        )
        residual_used = True
    else:
        residual = uniform_behavior(*behavior.spaces)
        residual_used = False
    return LocalDecomposition(
        vertices=tuple(v for v, _ in support),
        weights=tuple(q for _, q in support),
        residual=residual,
        local_content=content,
        residual_used=residual_used,
        certificate=solution,
    )


def _vertex_output_tables(behavior: Behavior) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The (Alice, Bob) output index tables of a local deterministic vertex,
    or None for any other box, checked against the definition by index
    arithmetic on its table: each (a, b) block holds exactly one cell equal
    to ONE and zeros elsewhere, Alice's unit outcome does not depend on b,
    and Bob's does not depend on a.  That is the same as valid, 0/1 and
    no-signalling, and shares no code with vertex enumeration or the LP."""
    na, nb, nx, ny = (len(space) for space in behavior.spaces)
    table = behavior.table
    block = nx * ny
    outcome_a: dict[int, int] = {}
    outcome_b: dict[int, int] = {}
    for ia in range(na):
        for ib in range(nb):
            start = (ia * nb + ib) * block
            cells = table[start : start + block]
            units = [k for k, cell in enumerate(cells) if cell == ONE]
            if len(units) != 1 or sum(cell.is_zero() for cell in cells) != block - 1:
                return None
            ix, iy = divmod(units[0], ny)
            if outcome_a.setdefault(ia, ix) != ix or outcome_b.setdefault(ib, iy) != iy:
                return None
    # Both dicts were filled in setting order.
    return tuple(outcome_a.values()), tuple(outcome_b.values())


def _strategy_label(outcomes: LabelSet, outputs: tuple[int, ...]) -> str:
    """An output index table as outcome labels, collapsed to the bare
    outcome when constant."""
    if len(set(outputs)) == 1:
        return outcomes.labels[outputs[0]]
    return ",".join(outcomes.labels[i] for i in outputs)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DecompositionReport:
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
) -> tuple[list[tuple[CheckResult, str]], list[tuple[tuple[int, ...], tuple[int, ...]] | None]]:
    """The checks of the weights and vertices that need no target box, each
    with the message :func:`decomposition_to_model` raises when it fails,
    and each vertex's output index tables (None for a vertex that is not
    local deterministic); given ``spaces``, every vertex must also have
    them."""
    negative = [format_scalar(q) for q in d.weights if q.sign() < 0]
    total = ZERO
    for q in d.weights:
        total = total + q
    tables = [_vertex_output_tables(vertex) for vertex in d.vertices]
    bad_vertices = [
        i
        for i, (vertex, outputs) in enumerate(zip(d.vertices, tables))
        if (spaces is not None and vertex.spaces != spaces) or outputs is None
    ]
    inconsistent = "weights are inconsistent with the recorded local content"
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
                "vertices_are_local_deterministic",
                not bad_vertices,
                f"offending indices {bad_vertices}" if bad_vertices else "",
            ),
            "vertices must be deterministic local behaviors",
        ),
    ]
    return checks, tables


def verify_decomposition(decomposition: LocalDecomposition, behavior: Behavior) -> DecompositionReport:
    """Re-check every decomposition invariant against the target box.

    Works by direct arithmetic on the decomposition data; it shares no
    code with the LP and so serves as its external auditor.
    """
    d = decomposition
    checks = [check for check, _ in _intrinsic_checks(d, behavior.spaces)[0]]
    vertices_ok = checks[-1].ok  # vertices_are_local_deterministic

    # The residual counts only on the box's own spaces.
    same_spaces = d.residual.spaces == behavior.spaces
    residual_ok = False
    if d.residual_used:
        residual_report = validate_behavior(d.residual)
        residual_ok = same_spaces and residual_report.ok
        detail = residual_report.summary() if not residual_report.ok else "residual spaces differ"
        checks.append(CheckResult("residual_valid", residual_ok, "" if residual_ok else detail))

    if vertices_ok:
        if d.residual_used and not same_spaces:
            checks.append(CheckResult("reconstruction_exact", False, "residual spaces differ"))
        else:
            recombined = [ZERO] * len(behavior.table)
            for vertex, q in zip(d.vertices, d.weights):
                for i, cell in enumerate(vertex.table):
                    if not cell.is_zero():
                        recombined[i] = recombined[i] + q * cell
            if d.residual_used:
                remainder_weight = ONE - d.local_content
                recombined = [
                    value + remainder_weight * cell for value, cell in zip(recombined, d.residual.table)
                ]
            mismatch = next(
                (i for i, (got, want) in enumerate(zip(recombined, behavior.table)) if got != want), None
            )
            checks.append(
                CheckResult(
                    "reconstruction_exact",
                    mismatch is None,
                    "" if mismatch is None else f"first differing cell index {mismatch}",
                )
            )

        original_ns, _ = is_no_signalling(behavior) if validate_behavior(behavior).ok else (False, None)
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
    when present, becomes the pair ("0","0").
    """
    d = decomposition
    checks, tables = _intrinsic_checks(d)
    for check, message in checks:
        if not check.ok:
            raise InvalidDecomposition(message)

    pairs: list[tuple[str, str]] = []
    weights: list[Scalar] = []
    kernels: list[Behavior] = []
    for vertex, q, (outputs_a, outputs_b) in zip(d.vertices, d.weights, tables):
        pairs.append((_strategy_label(vertex.outcomes_x, outputs_a), _strategy_label(vertex.outcomes_y, outputs_b)))
        weights.append(q)
        kernels.append(vertex)
    if d.local_content != ONE:
        if not validate_behavior(d.residual).ok:
            raise InvalidDecomposition("residual is not a valid behavior")
        label = ("0", "0")
        while label in pairs:
            label = (label[0] + "'", label[1] + "'")
        pairs.append(label)
        weights.append(ONE - d.local_content)
        kernels.append(d.residual)
    return HiddenVariableModel(tuple(pairs), tuple(weights), tuple(kernels))
