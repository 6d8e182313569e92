"""The content path's int kernels against the Scalar code they replaced.

``reference_content`` keeps the box report, the residual lift, the audit,
the certificate check and the contraction as they were, one Scalar per
cell; every report, witness, verdict and value must come out equal.
Boxes are valid, invalid or signalling, with sqrt2 cells and with
denominators past 2**64; LPs have non-unit rational matrix entries.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_content as reference
from helpers import ns_behaviors, numbered_spaces, random_ns_behavior
from hvlab.bell import BellExpression, evaluate
from hvlab.boxes import Behavior, _behavior_report, is_no_signalling, mix
from hvlab.catalog import pr_box, signalling_box, table1_box
from hvlab.decompose import (
    LocalDecomposition,
    content_lp_problem,
    enumerate_local_vertices,
    max_local_content,
    verify_decomposition,
)
from hvlab.errors import InvalidBehavior
from hvlab.scalar import HALF, ONE, SQRT2, ZERO, Scalar
from hvlab.simplex import OPTIMAL, LpProblem, LpSolution, check_certificate, solve_lp
from reference_scenario import marginal_is_no_signalling

# A prime past 2**64, so that 1/BIG is a denominator no machine word holds.
BIG = 2**89 - 1
_SHAPES = ((1, 1, 2, 2), (2, 1, 2, 3), (2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 3, 2), (2, 2, 3, 3))
_WEIGHTS = (Scalar(Fraction(1, BIG)), HALF, ONE - SQRT2 / 2, SQRT2 / 4)
_NUDGES = (
    Scalar(Fraction(1, 3)),
    Scalar(Fraction(-5, 2)),
    Scalar(Fraction(-1, BIG)),
    SQRT2 / 1000,
    -SQRT2 / 3,
    Scalar(Fraction(1, 7), Fraction(-1, BIG)),
)


@st.composite
def _no_signalling_boxes(draw):
    """A mixture of product boxes, mixed again with a deterministic vertex
    at a weight 1/BIG, 1/2, 1 - sqrt2/2 or sqrt2/4: valid and
    no-signalling, with sqrt2 cells or huge denominators."""
    spaces = numbered_spaces(*draw(st.sampled_from(_SHAPES)))
    box = draw(ns_behaviors(spaces=spaces))
    if draw(st.booleans()):
        vertices = enumerate_local_vertices(spaces)
        vertex = vertices[draw(st.integers(0, len(vertices) - 1))]
        weight = draw(st.sampled_from(_WEIGHTS))
        box = mix([(weight, vertex), (ONE - weight, box)])
    return box


@st.composite
def _boxes(draw):
    """A no-signalling box as it is, with mass moved inside one (a, b)
    block (valid, generically signalling), or with nudged cells (invalid:
    negative cells or rows that do not sum to 1)."""
    box = draw(_no_signalling_boxes())
    table = list(box.table)
    block = len(box.outcomes_x) * len(box.outcomes_y)
    kind = draw(st.sampled_from(("ns", "signalling", "invalid")))
    if kind == "signalling":
        start = draw(st.integers(0, len(table) // block - 1)) * block
        source, target = (start + draw(st.integers(0, block - 1)) for _ in range(2))
        moved = table[source] * draw(st.sampled_from((HALF, SQRT2 / 2, ONE)))
        table[source], table[target] = table[source] - moved, table[target] + moved
    elif kind == "invalid":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(table) - 1))
            table[i] = table[i] + draw(st.sampled_from(_NUDGES))
    return Behavior(*box.spaces, tuple(table))


@given(_boxes())
@settings(max_examples=300, deadline=None)
def test_box_report_and_no_signalling_match_the_scalar_reference(box):
    report = _behavior_report(box)
    assert report == reference.behavior_report(box)
    if report.ok:
        assert is_no_signalling(box) == marginal_is_no_signalling(box)
    else:
        with pytest.raises(InvalidBehavior) as caught:
            is_no_signalling(box)
        assert str(caught.value) == report.summary()


def test_the_catalog_boxes_report_as_the_reference_does():
    for box in (table1_box(), pr_box(), signalling_box()):
        assert _behavior_report(box) == reference.behavior_report(box)
    ok, witness = is_no_signalling(signalling_box())
    assert not ok and (ok, witness) == marginal_is_no_signalling(signalling_box())
    assert (witness.value_reference, witness.value_other) == (ONE, ZERO)


_COEFFICIENTS = st.one_of(
    st.sampled_from((ZERO, ONE, -ONE, SQRT2, -HALF)),
    st.builds(Scalar, st.fractions(-3, 3, max_denominator=BIG), st.fractions(-3, 3, max_denominator=7)),
)


@given(_boxes(), st.data())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_scalar_reference(box, data):
    expression = BellExpression(*box.spaces, tuple(data.draw(_COEFFICIENTS) for _ in box.table))
    assert evaluate(expression, box) == reference.evaluate(expression, box)


def _corruptions(d: LocalDecomposition, box: Behavior, draw) -> LocalDecomposition:
    """d with one drawn change: a weight, a residual cell, the recorded
    content, a vertex swapped for another box or the residual flag."""
    kind = draw(st.sampled_from(("weight", "residual", "content", "vertex", "flag")))
    nudge = draw(st.sampled_from(_NUDGES))
    vertices, weights, residual = list(d.vertices), list(d.weights), d.residual
    if kind == "weight" and weights:
        k = draw(st.integers(0, len(weights) - 1))
        weights[k] = weights[k] + nudge
    elif kind == "residual":
        table = list(residual.table)
        i = draw(st.integers(0, len(table) - 1))
        table[i] = table[i] + nudge
        residual = Behavior(*residual.spaces, tuple(table))
    elif kind == "vertex" and vertices:
        k = draw(st.integers(0, len(vertices) - 1))
        others = enumerate_local_vertices(box.spaces)
        vertices[k] = draw(st.sampled_from((box, others[draw(st.integers(0, len(others) - 1))])))
    content = d.local_content + nudge if kind == "content" else d.local_content
    used = not d.residual_used if kind == "flag" else d.residual_used
    return LocalDecomposition(tuple(vertices), tuple(weights), residual, content, used)


@given(_no_signalling_boxes(), st.data())
@settings(max_examples=150, deadline=None)
def test_content_residual_and_audit_match_the_scalar_reference(box, data):
    vertices = enumerate_local_vertices(box.spaces)
    d = max_local_content(box)
    assert d == reference.lift(box, vertices, d.certificate)
    assert verify_decomposition(d, box) == reference.verify_decomposition(d, box)
    assert verify_decomposition(d, box).ok
    corrupted = _corruptions(d, box, data.draw)
    assert verify_decomposition(corrupted, box) == reference.verify_decomposition(corrupted, box)


def test_the_audit_matches_the_reference_on_a_signalling_target():
    # The target signals, so the residual's no-signalling is not judged:
    # table1 with the first two cells swapped, which moves one of Bob's
    # marginals at one setting pair only.
    box = table1_box()
    d = max_local_content(box)
    target = Behavior(*box.spaces, (box.table[1], box.table[0], *box.table[2:]))
    assert not is_no_signalling(target)[0]
    report = verify_decomposition(d, target)
    assert report == reference.verify_decomposition(d, target)
    assert "residual_no_signalling" not in [check.name for check in report.checks]



def test_the_audit_names_a_signalling_residual_as_the_reference_does():
    # A valid residual on table1's spaces whose Alice outcome follows Bob's
    # setting: the audit must judge the residual's own marginals.
    box = table1_box()
    d = max_local_content(box)
    b0, (x0, x1), y0 = box.settings_b.labels[0], box.outcomes_x.labels[:2], box.outcomes_y.labels[0]
    residual = Behavior.from_function(
        *box.spaces, lambda a, b, x, y: ONE if (x, y) == (x0 if b == b0 else x1, y0) else ZERO
    )
    corrupted = LocalDecomposition(d.vertices, d.weights, residual, d.local_content)
    report = verify_decomposition(corrupted, box)
    assert report == reference.verify_decomposition(corrupted, box)
    failed = [check.name for check in report.checks if not check.ok]
    assert failed == ["reconstruction_exact", "residual_no_signalling"]


# -- the certificate check -------------------------------------------------------

# Rational matrix entries, among them the non-unit 1/3 and -5/2.
_ENTRIES = st.sampled_from((0, 0, 1, -1, Fraction(1, 3), Fraction(-5, 2), 2, Fraction(3, 4))).map(Scalar)
_VALUES = st.builds(Scalar, st.fractions(0, 2, max_denominator=6), st.sampled_from((0, 0, Fraction(1, 3), 1)))


@st.composite
def _lps(draw):
    """maximize c.q s.t. A.q <= b with b >= 0, some sqrt2 parts in c and b,
    and every column bounded by a row of positive entries, so that the
    simplex finds an optimum."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
    rows.append([draw(st.sampled_from((ONE, Scalar(Fraction(1, 3)), Scalar(Fraction(5, 2))))) for _ in range(n)])
    b = [draw(_VALUES) for _ in rows]
    c = [draw(_VALUES) - draw(_VALUES) for _ in range(n)]
    return LpProblem(tuple(c), tuple(map(tuple, rows)), tuple(b))


def _tampered(solution: LpSolution, draw) -> LpSolution:
    kind = draw(st.sampled_from(("q", "y", "value")))
    nudge = draw(st.sampled_from(_NUDGES))
    q, y, value = list(solution.q), list(solution.dual), solution.value
    if kind == "q":
        j = draw(st.integers(0, len(q) - 1))
        q[j] = q[j] + nudge
    elif kind == "y":
        i = draw(st.integers(0, len(y) - 1))
        y[i] = y[i] + nudge
    else:
        value = value + nudge
    return LpSolution(OPTIMAL, tuple(q), value, tuple(y))


@given(_lps(), st.data())
@settings(max_examples=300, deadline=None)
def test_certificate_check_matches_the_scalar_reference(problem, data):
    solution = solve_lp(problem)
    assert solution.status == OPTIMAL
    assert check_certificate(problem, solution) and reference.check_certificate(problem, solution)
    tampered = _tampered(solution, data.draw)
    assert check_certificate(problem, tampered) == reference.check_certificate(problem, tampered)


@given(_no_signalling_boxes(), st.data())
@settings(max_examples=100, deadline=None)
def test_content_certificates_and_their_tampered_copies_match_the_reference(box, data):
    problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
    solution = max_local_content(box).certificate
    assert check_certificate(problem, solution) and reference.check_certificate(problem, solution)
    tampered = _tampered(solution, data.draw)
    assert check_certificate(problem, tampered) == reference.check_certificate(problem, tampered)


def test_a_tampered_certificate_fails_at_each_part():
    # max q0 + q1 s.t. q0/3 + 5/2*q1 <= 1, q0 <= 3/2: optimum at q = (3/2, 1/5).
    third, five_halves = Scalar(Fraction(1, 3)), Scalar(Fraction(5, 2))
    problem = LpProblem((ONE, ONE), ((third, five_halves), (ONE, ZERO)), (ONE, Scalar(Fraction(3, 2))))
    solution = solve_lp(problem)
    assert solution.q == (Scalar(Fraction(3, 2)), Scalar(Fraction(1, 5)))
    assert check_certificate(problem, solution) and reference.check_certificate(problem, solution)
    # One q entry, one y entry or the value moved by 1/3.
    for tampered in (
        LpSolution(OPTIMAL, (solution.q[0], solution.q[1] + third), solution.value, solution.dual),
        LpSolution(OPTIMAL, solution.q, solution.value, (solution.dual[0] - third, solution.dual[1])),
        LpSolution(OPTIMAL, solution.q, solution.value + third, solution.dual),
    ):
        assert not check_certificate(problem, tampered)
        assert not reference.check_certificate(problem, tampered)


def test_random_ns_boxes_at_desk_scale_match_the_reference():
    rng = random.Random(16)
    for shape in _SHAPES:
        box = random_ns_behavior(rng, numbered_spaces(*shape))
        d = max_local_content(box)
        assert d == reference.lift(box, enumerate_local_vertices(box.spaces), d.certificate)
        assert verify_decomposition(d, box) == reference.verify_decomposition(d, box)
