"""Reference content-path checks: the Scalar-per-cell code hvlab shipped
before the box report, the residual lift, the audit, the certificate
check and the contraction moved to ints over one common denominator.

They are kept here, unchanged but for their imports, only so that the
tests can demand the same reports, residuals, verdicts and values from
the int kernels.  Every sum is a Scalar addition and every decision an
exact Scalar comparison.  The audit checks validity and no-signalling
through :func:`behavior_report` here and
``reference_scenario.marginal_is_no_signalling``, so it shares no code
with the kernels it is compared against.
"""

from __future__ import annotations

from hvlab.bell import BellExpression
from hvlab.boxes import Behavior, BehaviorReport, Spaces, uniform_behavior
from hvlab.decompose import CheckResult, DecompositionReport, LocalDecomposition
from hvlab.errors import SpaceMismatch
from hvlab.scalar import ONE, ZERO, Scalar, compare, format_scalar
from hvlab.simplex import OPTIMAL, LpProblem, LpSolution

from reference_scenario import marginal_is_no_signalling


def behavior_report(behavior: Behavior) -> BehaviorReport:
    negatives: list[tuple[str, str, str, str, Scalar]] = []
    bad_rows: list[tuple[str, str, Scalar]] = []
    totals: dict[tuple[str, str], Scalar] = {}
    for (a, b, x, y), value in behavior.cells():
        if value.sign() < 0:
            negatives.append((a, b, x, y, value))
        totals[(a, b)] = totals.get((a, b), ZERO) + value
    for (a, b), total in totals.items():
        if total != ONE:
            bad_rows.append((a, b, total))
    return BehaviorReport(tuple(negatives), tuple(bad_rows))


def evaluate(expression: BellExpression, behavior: Behavior) -> Scalar:
    """Full contraction sum c(a,b,x,y) * P(x,y|a,b)."""
    if expression.spaces != behavior.spaces:
        raise SpaceMismatch("expression and behavior spaces differ")
    total = ZERO
    for coefficient, probability in zip(expression.coefficients, behavior.table):
        if not coefficient.is_zero():
            total = total + coefficient * probability
    return total


def lift(behavior: Behavior, vertices: tuple[Behavior, ...], solution: LpSolution) -> LocalDecomposition:
    """The decomposition ``max_local_content`` builds from an optimal
    solution of the full content LP over ``vertices``."""
    content = solution.value
    support = [(vertex, q) for vertex, q in zip(vertices, solution.q) if q.sign() > 0]
    local_part = [ZERO] * len(behavior.table)
    for vertex, q in support:
        for i, cell in enumerate(vertex.table):
            if not cell.is_zero():
                local_part[i] = local_part[i] + q * cell
    if content != ONE:
        scale = ONE / (ONE - content)
        residual = Behavior(
            *behavior.spaces,
            tuple((cell - local) * scale for cell, local in zip(behavior.table, local_part)),
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
    return tuple(outcome_a.values()), tuple(outcome_b.values())


def _intrinsic_checks(d: LocalDecomposition, spaces: Spaces) -> list[CheckResult]:
    negative = [format_scalar(q) for q in d.weights if q.sign() < 0]
    total = ZERO
    for q in d.weights:
        total = total + q
    tables = [_vertex_output_tables(vertex) for vertex in d.vertices]
    bad_vertices = [
        i for i, (vertex, outputs) in enumerate(zip(d.vertices, tables)) if vertex.spaces != spaces or outputs is None
    ]
    residual_missing = not d.residual_used and d.local_content != ONE
    return [
        CheckResult("weights_nonnegative", not negative, ", ".join(negative)),
        CheckResult(
            "local_content_is_weight_sum",
            total == d.local_content and len(d.weights) == len(d.vertices),
            f"sum {format_scalar(total)} vs recorded {format_scalar(d.local_content)}",
        ),
        CheckResult("local_content_at_most_one", (d.local_content - ONE).sign() <= 0, format_scalar(d.local_content)),
        CheckResult(
            "residual_used_unless_fully_local",
            not residual_missing,
            f"local content {format_scalar(d.local_content)}" if residual_missing else "",
        ),
        CheckResult(
            "vertices_are_local_deterministic",
            not bad_vertices,
            f"offending indices {bad_vertices}" if bad_vertices else "",
        ),
    ]


def verify_decomposition(decomposition: LocalDecomposition, behavior: Behavior) -> DecompositionReport:
    d = decomposition
    checks = _intrinsic_checks(d, behavior.spaces)
    vertices_ok = checks[-1].ok

    same_spaces = d.residual.spaces == behavior.spaces
    residual_ok = False
    if d.residual_used:
        residual_report = behavior_report(d.residual)
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

        original_ns, _ = marginal_is_no_signalling(behavior) if behavior_report(behavior).ok else (False, None)
        if original_ns and residual_ok:
            residual_ns, ns_witness = marginal_is_no_signalling(d.residual)
            checks.append(
                CheckResult(
                    "residual_no_signalling",
                    residual_ns,
                    "" if residual_ns else ns_witness.describe(),
                )
            )
    return DecompositionReport(tuple(checks))


_MINUS_ONE = -ONE


def check_certificate(problem: LpProblem, solution: LpSolution) -> bool:
    if solution.status != OPTIMAL:
        return False
    if solution.q is None or solution.value is None or solution.dual is None:
        return False
    n = len(problem.c)
    m = len(problem.b)
    if len(solution.q) != n or len(solution.dual) != m:
        return False
    support = [(j, v) for j, v in enumerate(solution.q) if not v.is_zero()]
    weights = [None if v.is_zero() else v for v in solution.dual]
    if any(v.sign() < 0 for _, v in support) or any(w.sign() < 0 for w in weights if w is not None):
        return False
    lhs = [ZERO] * m
    for j, v in support:
        for i, a in problem.A.columns[j]:
            if a == ONE:
                lhs[i] = lhs[i] + v
            elif a == _MINUS_ONE:
                lhs[i] = lhs[i] - v
            else:
                lhs[i] = lhs[i] + a * v
    if any(compare(total, bound) > 0 for total, bound in zip(lhs, problem.b)):
        return False
    for column, cj in zip(problem.A.columns, problem.c):
        total = ZERO
        for i, a in column:
            w = weights[i]
            if w is None:
                continue
            if a == ONE:
                total = total + w
            elif a == _MINUS_ONE:
                total = total - w
            else:
                total = total + w * a
        if compare(total, cj) < 0:
            return False
    primal_value = ZERO
    for j, v in support:
        primal_value = primal_value + problem.c[j] * v
    dual_value = ZERO
    for w, bound in zip(weights, problem.b):
        if w is not None:
            dual_value = dual_value + w * bound
    return primal_value == solution.value and dual_value == solution.value
