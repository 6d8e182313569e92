"""Local-content decomposition: vertex enumeration, the content LP, model
conversion and the independent verifier."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CHSH_SPACES,
    OVERSIZED_SPACES,
    SMALL_SPACES,
    WIDE_SPACES,
    comma_label_box,
    numbered_spaces,
    random_ns_behavior,
)
from oracle import oracle_local_content
from hvlab.bell import BellExpression, local_bound
from hvlab.boxes import (
    Behavior,
    LabelSet,
    _int_view,
    deterministic_behavior,
    is_no_signalling,
    mix,
    uniform_behavior,
    validate_behavior,
)
from hvlab.catalog import appendix_a_model, noise_box, pr_box, signalling_box, table1_box
from hvlab import decompose, simplex
from hvlab.decompose import (
    LocalDecomposition,
    content_lp_problem,
    decomposition_to_model,
    enumerate_local_vertices,
    max_local_content,
    verify_decomposition,
)
from hvlab.errors import InvalidBehavior, InvalidDecomposition, SignallingInput, SizeBudgetExceeded
from hvlab.hvmodel import check_locality, nontrivial_weight, reconstruct
from hvlab.scalar import HALF, ONE, ZERO, Scalar, parse_scalar
from hvlab.simplex import LpProblem, LpSolution, Matrix, _solve_ints, check_certificate, solve_lp

ALPHA = parse_scalar("1/4-1/8*sqrt2")


def test_vertex_count_chsh_spaces():
    vertices = enumerate_local_vertices(CHSH_SPACES)
    assert len(vertices) == 16
    assert len(set(vertices)) == 16


def test_vertex_count_degenerate_spaces():
    spaces = (LabelSet(("a",)), LabelSet(("b",)), LabelSet(("0", "1")), LabelSet(("0", "1")))
    assert len(enumerate_local_vertices(spaces)) == 4


def test_strategy_enumeration_refuses_sizes_past_the_budget():
    with pytest.raises(SizeBudgetExceeded, match="531441"):
        enumerate_local_vertices(OVERSIZED_SPACES)
    with pytest.raises(SizeBudgetExceeded):
        max_local_content(uniform_behavior(*OVERSIZED_SPACES))
    with pytest.raises(SizeBudgetExceeded):
        local_bound(BellExpression.from_function(*OVERSIZED_SPACES, lambda a, b, x, y: ZERO))
    with pytest.raises(SizeBudgetExceeded, match="67108864 cells"):
        enumerate_local_vertices(WIDE_SPACES)
    with pytest.raises(SizeBudgetExceeded):
        max_local_content(uniform_behavior(*WIDE_SPACES))
    bound, _ = local_bound(BellExpression.from_function(*WIDE_SPACES, lambda a, b, x, y: ZERO))
    assert bound == ZERO


def test_vertices_are_valid_deterministic_and_no_signalling():
    for vertex in enumerate_local_vertices(CHSH_SPACES):
        assert validate_behavior(vertex).ok
        assert all(cell == ZERO or cell == ONE for cell in vertex.table)
        assert is_no_signalling(vertex)[0]


def test_vertex_order_is_lexicographic_in_output_tables():
    vertices = enumerate_local_vertices(CHSH_SPACES)
    first, last = vertices[0], vertices[-1]
    assert first.p("0", "1", "+1", "+1") == ONE and first.p("2", "3", "+1", "+1") == ONE
    assert last.p("0", "1", "-1", "-1") == ONE and last.p("2", "3", "-1", "-1") == ONE


def test_table1_content_with_certificate_and_audit():
    box = table1_box()
    decomposition = max_local_content(box)
    assert decomposition.local_content == parse_scalar("2-1*sqrt2")
    report = verify_decomposition(decomposition, box)
    assert report.ok, report.summary()
    problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
    assert check_certificate(problem, decomposition.certificate)


def test_table1_counting_bound_every_vertex_consumes_a_small_cell():
    # summing the eight alpha-cell constraints bounds the content by
    # 8*alpha, because no deterministic strategy can match the extremal
    # sign pattern on all four setting pairs
    box = table1_box()
    small_cells = [i for i, value in enumerate(box.table) if value == ALPHA]
    assert len(small_cells) == 8
    for vertex in enumerate_local_vertices(box.spaces):
        assert any(vertex.table[i] == ONE for i in small_cells)
    assert max_local_content(box).local_content == 8 * ALPHA


def test_pr_box_content_zero_and_zero_cells_argument():
    pr = pr_box()
    zero_cells = [i for i, value in enumerate(pr.table) if value == ZERO]
    for vertex in enumerate_local_vertices(pr.spaces):
        assert any(vertex.table[i] == ONE for i in zero_cells)
    decomposition = max_local_content(pr)
    assert decomposition.local_content == ZERO
    assert decomposition.vertices == ()
    assert decomposition.residual == pr


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3, 3)], ids=["2222", "3322", "2233"])
def test_deterministic_vertex_is_fully_local(shape):
    # Every vertex is its own decomposition, with no residual.
    for k, vertex in enumerate(enumerate_local_vertices(numbered_spaces(*shape))):
        d = max_local_content(vertex)
        assert (d.local_content, d.vertices, d.weights, d.residual) == (ONE, (vertex,), (ONE,), None), k


def test_signalling_input_rejected():
    with pytest.raises(SignallingInput):
        max_local_content(signalling_box())


def test_invalid_behavior_rejected():
    box = noise_box()
    table = list(box.table)
    table[0] = HALF
    with pytest.raises(InvalidBehavior):
        max_local_content(Behavior(*box.spaces, tuple(table)))


def test_decomposition_to_model_round_trip_on_table1():
    box = table1_box()
    decomposition = max_local_content(box)
    model = decomposition_to_model(decomposition)
    assert check_locality(model) == (True, None)
    assert nontrivial_weight(model) == parse_scalar("2-1*sqrt2")
    assert reconstruct(model) == box
    assert ("0", "0") in model.pairs


def test_vertices_whose_labels_collide_get_distinct_hidden_pairs():
    box = comma_label_box()
    decomposition = max_local_content(box)
    assert verify_decomposition(decomposition, box).ok
    assert decomposition.local_content == ONE and len(decomposition.vertices) == 2
    model = decomposition_to_model(decomposition)
    assert model.pairs == (("0,1", "p,q"), ("0,1'", "p,q'"))
    assert reconstruct(model) == box


def test_zero_content_decomposition_gives_single_pair_model():
    model = decomposition_to_model(max_local_content(pr_box()))
    assert model.pairs == (("0", "0"),)
    assert model.kernels == (pr_box(),)
    assert model.weights == (ONE,)


def test_hand_decomposition_reproduces_appendix_a_model():
    # four constant-output vertices of weight alpha plus the extremal
    # residual of weight 1-4*alpha
    sa, sb, ox, oy = CHSH_SPACES
    from hvlab.boxes import deterministic_behavior

    vertices = tuple(
        deterministic_behavior(sa, sb, ox, oy, (x0, x0), (y0, y0)) for x0 in ox for y0 in oy
    )
    decomposition = LocalDecomposition(
        vertices=vertices,
        weights=(ALPHA,) * 4,
        residual=pr_box(),
        local_content=4 * ALPHA,
    )
    report = verify_decomposition(decomposition, table1_box())
    assert report.ok, report.summary()
    model = decomposition_to_model(decomposition)
    expected = appendix_a_model()
    assert set(model.pairs) == set(expected.pairs)
    by_pair = {pair: (w, k) for pair, w, k in model.items()}
    for pair, weight, kernel in expected.items():
        assert by_pair[pair] == (weight, kernel)
    assert reconstruct(model) == table1_box()


def test_verify_detects_perturbed_weight():
    box = table1_box()
    d = max_local_content(box)
    perturbed = LocalDecomposition(
        vertices=d.vertices,
        weights=(d.weights[0] + parse_scalar("1/1000"),) + d.weights[1:],
        residual=d.residual,
        local_content=d.local_content + parse_scalar("1/1000"),
    )
    report = verify_decomposition(perturbed, box)
    assert not report.ok
    failed = {check.name for check in report.checks if not check.ok}
    assert "reconstruction_exact" in failed


def test_verify_detects_negative_weight():
    box = table1_box()
    d = max_local_content(box)
    negated = LocalDecomposition(
        vertices=d.vertices,
        weights=(-d.weights[0],) + d.weights[1:],
        residual=d.residual,
        local_content=d.local_content - 2 * d.weights[0],
    )
    report = verify_decomposition(negated, box)
    assert not report.ok
    failed = {check.name for check in report.checks if not check.ok}
    assert "weights_nonnegative" in failed


@pytest.mark.parametrize("outcomes_y", [("0", "1", "2"), ("0",)], ids=["longer", "shorter"])
def test_verify_refuses_a_residual_on_other_spaces(outcomes_y):
    box = table1_box()
    d = max_local_content(box)
    # A valid, no-signalling residual whose table is longer or shorter
    # than the box's.
    residual = uniform_behavior(box.settings_a, box.settings_b, box.outcomes_x, LabelSet(outcomes_y))
    assert validate_behavior(residual).ok
    moved = LocalDecomposition(d.vertices, d.weights, residual, d.local_content)
    checks = {check.name: check for check in verify_decomposition(moved, box).checks}
    assert not checks["residual_valid"].ok
    assert checks["residual_valid"].detail == "residual spaces differ"
    assert not checks["reconstruction_exact"].ok
    assert checks["reconstruction_exact"].detail == "residual spaces differ"
    assert "residual_no_signalling" not in checks
    assert checks["vertices_are_local_deterministic"].ok


def test_decomposition_to_model_rejects_inconsistent_data():
    d = max_local_content(table1_box())
    broken = LocalDecomposition(
        vertices=d.vertices,
        weights=d.weights,
        residual=d.residual,
        local_content=d.local_content + ONE,
    )
    with pytest.raises(InvalidDecomposition):
        decomposition_to_model(broken)


def test_decomposition_to_model_refuses_a_residual_on_other_spaces():
    box = table1_box()
    d = max_local_content(box)
    residual = uniform_behavior(box.settings_a, box.settings_b, box.outcomes_x, LabelSet(("0", "1", "2")))
    moved = LocalDecomposition(d.vertices, d.weights, residual, d.local_content)
    assert verify_decomposition(moved, box).summary().count("residual spaces differ") == 2
    with pytest.raises(InvalidDecomposition, match="^residual spaces differ$"):
        decomposition_to_model(moved)


def test_decomposition_to_model_refuses_an_invalid_residual():
    box = table1_box()
    d = max_local_content(box)
    # On the box's spaces, but its first cell is -1/8.
    residual = Behavior(*box.spaces, (parse_scalar("-1/8"),) + d.residual.table[1:])
    broken = LocalDecomposition(d.vertices, d.weights, residual, d.local_content)
    with pytest.raises(InvalidDecomposition, match="^residual is not a valid behavior$"):
        decomposition_to_model(broken)


def test_decomposition_to_model_refuses_a_vertex_on_other_spaces():
    box = table1_box()
    d = max_local_content(box)
    wider = (*box.spaces[:3], LabelSet(("+1", "-1", "0")))
    # A local deterministic vertex, but on other spaces than the first one.
    other = deterministic_behavior(*wider, ("+1", "+1"), ("0", "-1"))
    vertices = (*d.vertices[:-1], other)
    moved = LocalDecomposition(vertices, d.weights, d.residual, d.local_content)
    assert not verify_decomposition(moved, box).ok
    with pytest.raises(InvalidDecomposition, match="^vertex spaces differ$"):
        decomposition_to_model(moved)
    # A fully local decomposition has no residual and becomes its vertices
    # alone; a residual given with content 1 is checked like any other.
    vertex = enumerate_local_vertices(box.spaces)[5]
    local = max_local_content(vertex)
    assert local.local_content == ONE and local.residual is None
    assert decomposition_to_model(LocalDecomposition(local.vertices, local.weights, None, ONE)).kernels == (vertex,)
    given = LocalDecomposition(local.vertices, local.weights, uniform_behavior(*wider), ONE)
    with pytest.raises(InvalidDecomposition, match="^residual spaces differ$"):
        decomposition_to_model(given)


@pytest.mark.parametrize("tenths", range(11))
def test_content_of_the_noisy_pr_box_is_the_closed_form(tenths):
    # w*PR + (1-w)*noise has local content min(1, 2(1-w)): the survey line
    # of scripts/content_survey.py.
    w = Scalar(Fraction(tenths, 10))
    box = mix([(w, pr_box()), (ONE - w, noise_box())])
    d = max_local_content(box)
    assert d.local_content == Scalar(min(Fraction(1), 2 * (1 - Fraction(tenths, 10))))
    assert verify_decomposition(d, box).ok
    assert check_certificate(content_lp_problem(box, enumerate_local_vertices(box.spaces)), d.certificate)


def _random_box_with_extremal_mass(rng: random.Random) -> Behavior:
    from oracle import extremal_generator_tables

    base = random_ns_behavior(rng, CHSH_SPACES, components=3)
    extremal = extremal_generator_tables()[rng.randrange(8)]
    weight = Fraction(rng.randint(0, 6), 8)
    sa, sb, ox, oy = CHSH_SPACES
    table = tuple(
        Scalar(weight * e + (1 - weight) * cell.a) for e, cell in zip(extremal, base.table)
    )
    return Behavior(sa, sb, ox, oy, table)


def test_oracle_agreement_on_random_boxes_desk_scale():
    rng = random.Random(2718)
    for _ in range(8):
        box = _random_box_with_extremal_mass(rng)
        assert validate_behavior(box).ok and is_no_signalling(box)[0]
        decomposition = max_local_content(box)
        assert decomposition.local_content.b == 0
        assert decomposition.local_content.a == oracle_local_content(tuple(c.a for c in box.table))
        report = verify_decomposition(decomposition, box)
        assert report.ok, report.summary()


def test_the_audit_does_not_judge_the_residual_of_a_signalling_target():
    # table1 with its first two cells swapped moves one of Bob's marginals
    # at one setting pair only.
    box = table1_box()
    d = max_local_content(box)
    target = Behavior(*box.spaces, (box.table[1], box.table[0], *box.table[2:]))
    assert not is_no_signalling(target)[0]
    report = verify_decomposition(d, target)
    assert [(check.name, check.detail) for check in report.checks if not check.ok] == [
        ("reconstruction_exact", "first differing cell index 0")
    ]
    assert "residual_no_signalling" not in [check.name for check in report.checks]


def test_the_audit_names_a_signalling_residual():
    # A valid residual on table1's spaces whose Alice outcome follows Bob's
    # setting: the audit must judge the residual's own marginals.
    box = table1_box()
    d = max_local_content(box)
    b0, (x0, x1), y0 = box.settings_b.labels[0], box.outcomes_x.labels[:2], box.outcomes_y.labels[0]
    residual = Behavior.from_function(
        *box.spaces, lambda a, b, x, y: ONE if (x, y) == (x0 if b == b0 else x1, y0) else ZERO
    )
    report = verify_decomposition(LocalDecomposition(d.vertices, d.weights, residual, d.local_content), box)
    failed = [check.name for check in report.checks if not check.ok]
    assert failed == ["reconstruction_exact", "residual_no_signalling"]


def _tilted_table1() -> Behavior:
    """table1 mixed with a vertex at weight 1/(2**89 - 1): a denominator
    past 2**64 beside table1's sqrt2 cells."""
    tilt = Scalar(Fraction(1, 2**89 - 1))
    return mix([(tilt, enumerate_local_vertices(CHSH_SPACES)[5]), (ONE - tilt, table1_box())])


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 1, 2, 3), (3, 2, 2, 2), (2, 2, 3, 2), (2, 2, 3, 3), None])
def test_every_desk_shape_gives_an_audited_and_certified_decomposition(shape):
    box = _tilted_table1() if shape is None else random_ns_behavior(random.Random(16), numbered_spaces(*shape))
    d = max_local_content(box)
    report = verify_decomposition(d, box)
    assert report.ok, report.summary()
    assert check_certificate(content_lp_problem(box, enumerate_local_vertices(box.spaces)), d.certificate)


def test_monotonicity_of_content_under_vertex_mixing():
    rng = random.Random(99)
    vertices = enumerate_local_vertices(CHSH_SPACES)
    for _ in range(6):
        box = _random_box_with_extremal_mass(rng)
        content = max_local_content(box).local_content
        w = Scalar(Fraction(rng.randint(1, 4), 5))
        vertex = vertices[rng.randrange(len(vertices))]
        mixed = mix([(w, vertex), (ONE - w, box)])
        mixed_content = max_local_content(mixed).local_content
        assert (mixed_content - (w + (ONE - w) * content)).sign() >= 0


def test_an_unused_residual_needs_full_content():
    # Content 0 with no residual: the vertices and weights are consistent,
    # but nothing rebuilds the box.
    pr = pr_box()
    d = LocalDecomposition((), (), None, ZERO)
    checks = {check.name: check for check in verify_decomposition(d, pr).checks}
    assert not checks["residual_used_unless_fully_local"].ok
    assert checks["residual_used_unless_fully_local"].detail == "local content 0"
    assert not checks["reconstruction_exact"].ok
    with pytest.raises(InvalidDecomposition, match="residual is unused"):
        decomposition_to_model(d)


# -- the content LP over the kept vertices -------------------------------------

SUPPORT_SPACES = (
    SMALL_SPACES,
    CHSH_SPACES,
    numbered_spaces(3, 3, 2, 2),
    numbered_spaces(2, 2, 3, 3),
    numbered_spaces(3, 2, 2, 3),
)


def _pr_type(spaces) -> Behavior:
    """x XOR y = a*b mod 2 on the first two outcomes of each side: no-signalling
    for any settings, with zero cells everywhere else."""
    sa, sb, ox, oy = spaces

    def cell(a, b, x, y):
        ix, iy = ox.labels.index(x), oy.labels.index(y)
        if ix < 2 and iy < 2 and ix ^ iy == sa.labels.index(a) * sb.labels.index(b) % 2:
            return HALF
        return ZERO

    return Behavior.from_function(*spaces, cell)


@st.composite
def _boxes_with_zero_cells(draw):
    """A mixture of one to three deterministic vertices, optionally a
    PR-type box and a random no-signalling box, with rational weights or
    with sqrt2 in the first two."""
    spaces = draw(st.sampled_from(SUPPORT_SPACES))
    vertices = enumerate_local_vertices(spaces)
    parts = [vertices[draw(st.integers(0, len(vertices) - 1))] for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        parts.append(_pr_type(spaces))
    if draw(st.booleans()):
        parts.append(random_ns_behavior(random.Random(draw(st.integers(0, 2**16))), spaces, components=2))
    raw = [draw(st.integers(1, 9)) for _ in parts]
    weights = [Scalar(Fraction(r, sum(raw))) for r in raw]
    if len(weights) > 1 and draw(st.booleans()):
        # Move 1 - sqrt2/2 of the first weight onto the second.
        moved = weights[0] * (ONE - parse_scalar("1/2*sqrt2"))
        weights[0], weights[1] = weights[0] - moved, weights[1] + moved
    return mix(list(zip(weights, parts)))


@given(_boxes_with_zero_cells())
@settings(max_examples=100, deadline=None)
def test_support_lp_matches_the_full_lp(box):
    problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
    d = max_local_content(box)
    assert d.local_content == solve_lp(problem).value
    assert check_certificate(problem, d.certificate)
    report = verify_decomposition(d, box)
    assert report.ok, report.summary()


def _solved_problems(monkeypatch):
    """Record the ``(columns, c, b)`` of every LP that max_local_content
    hands to the int core."""
    problems = []

    def recording_solve_ints(columns, c, b):
        problems.append((columns, c, b))
        return _solve_ints(columns, c, b)

    monkeypatch.setattr(decompose, "_solve_ints", recording_solve_ints)
    return problems


def _int_rhs(box) -> list[tuple[int, int, int]]:
    """The box's int view as one ``(p, q, den)`` triple per cell."""
    ps, qs, den = _int_view(box)
    return [(p, q, den) for p, q in zip(ps, qs)]


def _kept_by_definition(box) -> list[int]:
    """The vertices with no unit on a zero cell of ``box``, read off their
    tables."""
    zero = [i for i, cell in enumerate(box.table) if cell.is_zero()]
    vertices = enumerate_local_vertices(box.spaces)
    return [k for k, vertex in enumerate(vertices) if all(vertex.table[i].is_zero() for i in zero)]


def _lifted_solution(box, kept: list[int]) -> LpSolution:
    """solve_lp's answer to the content LP of ``box`` over the ``kept``
    vertices, as an LpProblem of Scalars, lifted to the full LP: q 0 off
    those vertices and the dual 1 on every zero cell."""
    vertices = enumerate_local_vertices(box.spaces)
    columns = tuple(vertices.matrix.columns[k] for k in kept)
    solution = solve_lp(LpProblem((ONE,) * len(kept), Matrix(len(box.table), columns), box.table))
    lifted_q = [ZERO] * len(vertices)
    for k, q in zip(kept, solution.q):
        lifted_q[k] = q
    dual = tuple(ONE if cell.is_zero() else y for cell, y in zip(box.table, solution.dual))
    return LpSolution(solution.status, tuple(lifted_q), solution.value, dual)


def _kept_columns(solved, box, d) -> list[int]:
    """Check the one LP that max_local_content solved on ``box``: its
    columns are the cached columns of the vertices with no unit on a zero
    cell, the very same objects, c is all ones, b is the box's int view,
    and its answer is the lifted solve_lp answer of the same LP of Scalars.
    Returns the kept vertex indices."""
    columns, c, b = solved
    vertices = enumerate_local_vertices(box.spaces)
    kept = _kept_by_definition(box)
    assert b == _int_rhs(box)
    assert c == ((1,) * len(kept), (0,) * len(kept), 1) and len(columns) == len(kept)
    assert all(column is vertices.matrix.columns[k] for column, k in zip(columns, kept))
    assert d.certificate == _lifted_solution(box, kept)
    assert d.certificate.value == d.local_content
    assert check_certificate(content_lp_problem(box, vertices), d.certificate)
    return kept


def test_pr_box_rules_out_every_vertex(monkeypatch):
    pr = pr_box()
    problems = _solved_problems(monkeypatch)
    d = max_local_content(pr)
    [solved] = problems
    assert _kept_columns(solved, pr, d) == []
    assert d.local_content == ZERO
    assert d.certificate.q == (ZERO,) * 16


def test_a_vertex_leaves_one_column(monkeypatch):
    vertices = enumerate_local_vertices(CHSH_SPACES)
    problems = _solved_problems(monkeypatch)
    d = max_local_content(vertices[5])
    [solved] = problems
    assert _kept_columns(solved, vertices[5], d) == [5]
    assert d.local_content == ONE
    assert d.vertices == (vertices[5],)


@pytest.mark.parametrize("spaces", SUPPORT_SPACES, ids=["small", "chsh", "3322", "2233", "3223"])
def test_a_warm_cache_builds_no_matrix_from_rows(spaces, monkeypatch):
    vertices = enumerate_local_vertices(spaces)
    box = mix([(HALF, _pr_type(spaces)), (HALF, vertices[len(vertices) // 2])])
    problems = _solved_problems(monkeypatch)

    def refuse(rows, width):
        raise AssertionError("a Matrix was built from rows on a warm cache")

    monkeypatch.setattr(Matrix, "from_rows", refuse)
    d = max_local_content(box)
    [solved] = problems
    assert 0 < len(_kept_columns(solved, box, d)) < len(vertices)
    assert d.local_content == solve_lp(content_lp_problem(box, vertices)).value


@pytest.mark.parametrize("box", [table1_box(), noise_box()], ids=["table1", "noise"])
def test_a_box_without_zero_cells_solves_the_full_lp(box, monkeypatch):
    assert not any(cell.is_zero() for cell in box.table)
    vertices = enumerate_local_vertices(box.spaces)
    problems = _solved_problems(monkeypatch)
    d = max_local_content(box)
    [solved] = problems
    assert _kept_columns(solved, box, d) == list(range(len(vertices)))
    assert d.certificate == solve_lp(content_lp_problem(box, vertices))


def test_the_content_lp_builds_no_lp_problem_and_no_scalar_solve(monkeypatch):
    # max_local_content solves its kept LP in the int core: no LpProblem of
    # Scalars is built, and neither Scalar adapter of the core runs.
    box = mix([(HALF, pr_box()), (HALF, enumerate_local_vertices(CHSH_SPACES)[0])])
    expected = max_local_content(box)

    def refuse(*args, **kwargs):
        raise AssertionError("max_local_content went through the Scalar LP path")

    monkeypatch.setattr(LpProblem, "__post_init__", refuse)
    for module in (simplex, decompose):
        for name in ("solve_lp", "check_certificate"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for candidate in (box, table1_box(), pr_box(), _tilted_table1()):
        d = max_local_content(candidate)
        assert d.certificate.status == "optimal"
    assert max_local_content(box) == expected


def _scalar_path_decomposition(box) -> LocalDecomposition:
    """The decomposition by the Scalar path: solve_lp on the LpProblem of
    the kept vertices, the support in vertex order, the residual in Scalar
    arithmetic and the certificate lifted as in :func:`_lifted_solution`."""
    vertices = enumerate_local_vertices(box.spaces)
    certificate = _lifted_solution(box, _kept_by_definition(box))
    content = certificate.value
    support = [k for k, q in enumerate(certificate.q) if q.sign() > 0]
    residual = None
    if content != ONE:
        scale = ONE / (ONE - content)
        cells = [
            (cell - sum((certificate.q[k] * vertices[k].table[i] for k in support), ZERO)) * scale
            for i, cell in enumerate(box.table)
        ]
        residual = Behavior(*box.spaces, cells)
    return LocalDecomposition(
        tuple(vertices[k] for k in support), tuple(certificate.q[k] for k in support), residual, content, certificate
    )


_SQRT2_HALF = parse_scalar("1/2*sqrt2")


@given(_boxes_with_zero_cells())
@example(mix([(_SQRT2_HALF, pr_box()), (ONE - _SQRT2_HALF, enumerate_local_vertices(CHSH_SPACES)[0])]))
@example(mix([(_SQRT2_HALF, enumerate_local_vertices(CHSH_SPACES)[3]), (ONE - _SQRT2_HALF, enumerate_local_vertices(CHSH_SPACES)[9])]))
@settings(max_examples=100, deadline=None)
def test_the_int_solve_matches_the_scalar_path_field_by_field(box):
    d, expected = max_local_content(box), _scalar_path_decomposition(box)
    assert d.vertices == expected.vertices
    assert d.weights == expected.weights
    assert d.residual == expected.residual
    assert d.local_content == expected.local_content
    assert d.certificate == expected.certificate


def test_positive_content_gives_nontrivial_model_for_uniform_marginal_boxes():
    box = table1_box()
    decomposition = max_local_content(box)
    assert decomposition.local_content.sign() > 0
    model = decomposition_to_model(decomposition)
    assert nontrivial_weight(model).sign() > 0


# -- the audit's failure texts, pinned -----------------------------------------


def _corrupted_table1_decomposition(kind: str) -> LocalDecomposition:
    """The table1 box's decomposition with one kind of corruption."""
    box = table1_box()
    d = max_local_content(box)
    if kind == "weight":
        weights = (*d.weights[:2], d.weights[2] + parse_scalar("1/1000"), *d.weights[3:])
        return LocalDecomposition(d.vertices, weights, d.residual, d.local_content)
    if kind == "residual_cell":
        table = list(d.residual.table)
        table[5] = table[5] + parse_scalar("1/1000*sqrt2")
        return LocalDecomposition(d.vertices, d.weights, Behavior(*box.spaces, tuple(table)), d.local_content)
    if kind == "non_vertex":
        vertices = (d.vertices[0], mix([(HALF, d.vertices[0]), (HALF, d.vertices[1])]), *d.vertices[2:])
        return LocalDecomposition(vertices, d.weights, d.residual, d.local_content)
    if kind == "residual_spaces":
        residual = uniform_behavior(box.settings_a, box.settings_b, box.outcomes_x, LabelSet(("0", "1", "2")))
        return LocalDecomposition(d.vertices, d.weights, residual, d.local_content)
    assert kind == "residual_unused"
    return LocalDecomposition(d.vertices, d.weights, None, d.local_content)


AUDIT_FAILURES = {
    "weight": [
        ("local_content_is_weight_sum", "sum 2001/1000-1*sqrt2 vs recorded 2-1*sqrt2"),
        ("reconstruction_exact", "first differing cell index 0"),
    ],
    "residual_cell": [
        ("residual_valid", "row (0,3) sums to 1+1/1000*sqrt2"),
        ("reconstruction_exact", "first differing cell index 5"),
    ],
    "non_vertex": [("vertices_are_local_deterministic", "offending indices [1]")],
    "residual_spaces": [
        ("residual_valid", "residual spaces differ"),
        ("reconstruction_exact", "residual spaces differ"),
    ],
    "residual_unused": [
        ("residual_used_unless_fully_local", "local content 2-1*sqrt2"),
        ("reconstruction_exact", "first differing cell index 0"),
    ],
}


@pytest.mark.parametrize("kind", AUDIT_FAILURES)
def test_the_audit_names_each_corruption_in_fixed_words(kind):
    report = verify_decomposition(_corrupted_table1_decomposition(kind), table1_box())
    assert [(check.name, check.detail) for check in report.checks if not check.ok] == AUDIT_FAILURES[kind]
    # Every other check passes, and the residual's no-signalling is judged
    # only when the vertices and the residual are both sound.
    names = [check.name for check in report.checks]
    assert ("residual_no_signalling" in names) == (kind == "weight")


# -- what the audit keeps on a vertex ------------------------------------------


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3, 3)], ids=["2222", "3322", "2233"])
def test_the_kept_vertex_tables_are_those_of_an_equal_hand_built_box(shape):
    for vertex in enumerate_local_vertices(numbered_spaces(*shape)):
        assert verify_decomposition(LocalDecomposition((vertex,), (ONE,), None, ONE), vertex).ok
        kept = decompose._audited_tables(vertex)
        assert kept is vertex._vertex
        twin = Behavior(*vertex.spaces, tuple(vertex.table))
        assert twin is not vertex and not hasattr(twin, "_vertex")
        assert kept == decompose._vertex_output_tables(twin)
        # The tables name the strategy that builds the vertex, and the unit
        # cells are where its table holds 1, one per (a, b) block.
        outputs_a, outputs_b, units = kept
        labels_x, labels_y = vertex.outcomes_x.labels, vertex.outcomes_y.labels
        strategy = ([labels_x[i] for i in outputs_a], [labels_y[i] for i in outputs_b])
        assert deterministic_behavior(*vertex.spaces, *strategy) == twin
        assert list(units) == [i for i, cell in enumerate(twin.table) if cell == ONE]
        assert len(units) == len(vertex.settings_a) * len(vertex.settings_b)


def _non_vertex(kind: str) -> Behavior:
    """A hand-built box on the CHSH spaces that is not a local deterministic
    vertex: a second unit in the first (a, b) block, or one unit per block
    with Alice's outcome following Bob's setting (valid, but signalling)."""
    if kind == "two_units":
        table = list(enumerate_local_vertices(CHSH_SPACES)[0].table)
        table[3] = ONE
        return Behavior(*CHSH_SPACES, tuple(table))
    settings_b, outcomes_x, outcomes_y = CHSH_SPACES[1:]
    return Behavior.from_function(
        *CHSH_SPACES,
        lambda a, b, x, y: ONE if (x, y) == (outcomes_x.labels[settings_b.position(b)], outcomes_y.labels[0]) else ZERO,
    )


@pytest.mark.parametrize("kind", ["two_units", "moving_unit"])
def test_a_hand_built_non_vertex_is_refused_on_every_call(kind):
    box = _non_vertex(kind)
    assert kind == "two_units" or (validate_behavior(box).ok and not is_no_signalling(box)[0])
    d = LocalDecomposition((box,), (ONE,), None, ONE)
    target = enumerate_local_vertices(CHSH_SPACES)[0]
    for _ in range(2):
        report = verify_decomposition(d, target)
        assert [(check.name, check.detail) for check in report.checks if not check.ok] == [
            ("vertices_are_local_deterministic", "offending indices [0]")
        ]
        with pytest.raises(InvalidDecomposition, match="vertices must be deterministic local behaviors"):
            decomposition_to_model(d)
        # The refusal is what the box keeps: None.
        assert box._vertex is None and decompose._audited_tables(box) is None


def test_spaces_past_the_cell_budget_are_refused_and_never_cached():
    enumerate_local_vertices(CHSH_SPACES)
    size = decompose._local_vertices.cache_info().currsize
    for _ in range(2):
        with pytest.raises(
            SizeBudgetExceeded,
            match=r"^65536 vertices of 1024 cells \(67108864 cells\) exceed the budget of 4194304 cells$",
        ):
            enumerate_local_vertices(WIDE_SPACES)
        assert decompose._local_vertices.cache_info().currsize == size
