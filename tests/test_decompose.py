"""Local-content decomposition: vertex enumeration, the content LP, model
conversion and the independent verifier."""

import random
from fractions import Fraction

import pytest

from helpers import CHSH_SPACES, OVERSIZED_SPACES, WIDE_SPACES, random_ns_behavior
from oracle import oracle_local_content
from hvlab.bell import BellExpression, local_bound
from hvlab.boxes import Behavior, LabelSet, is_no_signalling, mix, uniform_behavior, validate_behavior
from hvlab.catalog import appendix_a_model, noise_box, pr_box, signalling_box, table1_box
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
from hvlab.simplex import check_certificate

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


def test_deterministic_vertex_is_fully_local():
    vertex = enumerate_local_vertices(CHSH_SPACES)[5]
    decomposition = max_local_content(vertex)
    assert decomposition.local_content == ONE
    assert not decomposition.residual_used


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
        residual_used=d.residual_used,
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
        residual_used=d.residual_used,
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
    moved = LocalDecomposition(d.vertices, d.weights, residual, d.local_content, residual_used=True)
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
        residual_used=True,
    )
    with pytest.raises(InvalidDecomposition):
        decomposition_to_model(broken)


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


def test_positive_content_gives_nontrivial_model_for_uniform_marginal_boxes():
    box = table1_box()
    decomposition = max_local_content(box)
    assert decomposition.local_content.sign() > 0
    model = decomposition_to_model(decomposition)
    assert nontrivial_weight(model).sign() > 0
