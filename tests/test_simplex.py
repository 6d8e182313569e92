"""Exact LP solver and its strong-duality certificate checker."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_fractions
from hvlab import HvlabError, IrrationalMatrix
from hvlab.bell import BellExpression, _ns_lp
from hvlab.boxes import LabelSet
from hvlab.errors import DimensionMismatch
from hvlab.scalar import ONE, SQRT2, ZERO, Scalar, parse_scalar
from hvlab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, check_certificate, solve_lp
from reference_simplex import reference_solve_lp


def test_single_bound():
    solution = solve_lp(LpProblem((ONE,), ((ONE,),), (parse_scalar("1/2"),)))
    assert solution.status == OPTIMAL
    assert solution.value == parse_scalar("1/2")
    assert solution.q == (parse_scalar("1/2"),)


def test_infeasible_pair_of_constraints():
    solution = solve_lp(LpProblem((ONE,), ((-ONE,), (ONE,)), (-ONE, ZERO)))
    assert solution.status == INFEASIBLE
    assert solution.q is None


def test_irrational_right_hand_side():
    rhs = parse_scalar("2-1*sqrt2")
    solution = solve_lp(LpProblem((ONE, ONE), ((ONE, ONE),), (rhs,)))
    assert solution.status == OPTIMAL
    assert solution.value == rhs


def test_unbounded():
    assert solve_lp(LpProblem((ONE,), (), ())).status == UNBOUNDED
    assert solve_lp(LpProblem((ONE, -ONE), ((ZERO, ONE),), (ONE,))).status == UNBOUNDED


def test_no_constraint_rows_match_the_reference():
    # Only q >= 0 bounds the program: optimal at the origin unless some
    # column is rewarded.  ONE - SQRT2 and SQRT2 - ONE have parts of
    # opposite signs, so the exact sign of the reduced cost decides.
    bounded = LpProblem((ZERO, -ONE, ONE - SQRT2), (), ())
    solution = solve_lp(bounded)
    assert solution == reference_solve_lp(bounded)
    assert solution == LpSolution(OPTIMAL, (ZERO, ZERO, ZERO), ZERO, ())
    unbounded = LpProblem((ONE - SQRT2, SQRT2 - ONE), (), ())
    solution = solve_lp(unbounded)
    assert solution == reference_solve_lp(unbounded)
    assert solution.status == UNBOUNDED


@pytest.mark.parametrize(
    "c, A, b",
    [
        ((1,), ((ONE,),), (ONE,)),
        ((ONE,), ((1,),), (ONE,)),
        ((ONE,), ((ONE,),), (1,)),
    ],
    ids=["objective", "matrix", "rhs"],
)
def test_non_scalar_entries_are_refused(c, A, b):
    with pytest.raises(TypeError):
        LpProblem(c, A, b)


def test_zero_objective_is_optimal_at_zero():
    solution = solve_lp(LpProblem((ZERO, ZERO), ((ONE, ONE),), (ONE,)))
    assert solution.status == OPTIMAL
    assert solution.value == ZERO


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LpProblem((ONE,), ((ONE, ONE),), (ONE,))
    with pytest.raises(DimensionMismatch):
        LpProblem((ONE,), ((ONE,),), (ONE, ONE))


def test_equality_encoded_as_inequality_pair():
    # q1 + q2 == 1, maximize q1
    problem = LpProblem(
        (ONE, ZERO),
        ((ONE, ONE), (-ONE, -ONE)),
        (ONE, -ONE),
    )
    solution = solve_lp(problem)
    assert solution.status == OPTIMAL
    assert solution.value == ONE
    assert check_certificate(problem, solution)


def test_redundant_equalities_are_handled():
    # x + y == 1 stated twice; the duplicated rows leave an artificial
    # stuck in the basis, exercising the redundant-row drop
    problem = LpProblem(
        (ONE, ZERO),
        ((ONE, ONE), (-ONE, -ONE), (ONE, ONE), (-ONE, -ONE)),
        (ONE, -ONE, ONE, -ONE),
    )
    solution = solve_lp(problem)
    assert solution.status == OPTIMAL
    assert solution.value == ONE
    assert len(solution.dual) == 4
    assert check_certificate(problem, solution)


def test_unbounded_after_phase_one():
    # x >= 1 with nothing above: phase one is needed, phase two diverges
    solution = solve_lp(LpProblem((ONE,), ((-ONE,),), (-ONE,)))
    assert solution.status == UNBOUNDED


def test_certificate_on_known_solution():
    problem = LpProblem((ONE,), ((ONE,),), (parse_scalar("1/2"),))
    solution = solve_lp(problem)
    assert check_certificate(problem, solution)


def test_certificate_rejects_tampering():
    problem = LpProblem((ONE,), ((ONE,),), (parse_scalar("1/2"),))
    solution = solve_lp(problem)
    wrong_value = LpSolution(OPTIMAL, solution.q, solution.value + ONE, solution.dual)
    assert not check_certificate(problem, wrong_value)
    wrong_q = LpSolution(OPTIMAL, (ONE,), solution.value, solution.dual)
    assert not check_certificate(problem, wrong_q)
    negative_dual = LpSolution(OPTIMAL, solution.q, solution.value, (-ONE,))
    assert not check_certificate(problem, negative_dual)


def test_solver_is_deterministic():
    problem = LpProblem(
        (ONE, parse_scalar("1/3"), ZERO),
        ((ONE, ONE, ZERO), (ZERO, ONE, ONE), (-ONE, ZERO, -ONE)),
        (ONE, parse_scalar("3/2"), parse_scalar("-1/4")),
    )
    first = solve_lp(problem)
    second = solve_lp(problem)
    assert first == second
    assert first.status == OPTIMAL
    assert check_certificate(problem, first)


@st.composite
def random_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    c = tuple(Scalar(draw(small_fractions(2, 4))) for _ in range(n))
    A = tuple(tuple(Scalar(draw(small_fractions(2, 4))) for _ in range(n)) for _ in range(m))
    b = tuple(Scalar(draw(small_fractions(2, 4))) for _ in range(m))
    return LpProblem(c, A, b)


@given(random_problems())
@settings(max_examples=150, deadline=None)
def test_random_lps_have_verifiable_outcomes(problem):
    solution = solve_lp(problem)
    assert solution.status in (OPTIMAL, INFEASIBLE, UNBOUNDED)
    if solution.status == OPTIMAL:
        assert check_certificate(problem, solution)
    elif solution.status == INFEASIBLE:
        # the origin must genuinely be cut off: some row with b_i < 0
        assert any(rhs.sign() < 0 for rhs in problem.b)


def test_matrix_entry_with_sqrt2_part_is_refused():
    with pytest.raises(IrrationalMatrix) as caught:
        LpProblem((ONE, ONE), ((ONE, ZERO), (ZERO, ONE + SQRT2)), (ONE, ONE))
    assert isinstance(caught.value, HvlabError)
    assert "(1, 1)" in str(caught.value)
    # sqrt2 stays welcome in the objective and the right-hand side
    LpProblem((SQRT2,), ((ONE,),), (ONE - SQRT2,))


# Rational matrix entries, half of them 0 or +-1 as in both of hvlab's LPs;
# objective and right-hand side values with sqrt2 parts.
_matrix_entries = st.one_of(st.sampled_from((0, 0, 1, -1)).map(Scalar), small_fractions(3, 4).map(Scalar))
_field_values = st.builds(Scalar, small_fractions(2, 4), st.one_of(st.just(0), small_fractions(2, 4)))
_nonnegative_fractions = st.fractions(min_value=0, max_value=2, max_denominator=4)
_nonnegative_values = st.builds(Scalar, _nonnegative_fractions, st.one_of(st.just(0), _nonnegative_fractions))
_positive_fractions = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)
_one_in_four = st.integers(0, 3).map(lambda k: k == 0)


def _dot(row, q):
    total = ZERO
    for a, v in zip(row, q):
        total = total + a * v
    return total


@st.composite
def _field_problems(draw):
    """Random LPs around a drawn point q0 >= 0.  Each row is A_i.q <= A_i.q0
    plus a slack that is often zero (degenerate ties), so b has sqrt2 parts
    and is negative wherever A_i.q0 is; equality pairs through q0 come once
    or twice (one copy is then redundant and its artificial stays basic).
    Drawn structure adds a contradictory pair of rows (infeasible), a
    bounding row sum(q) <= b, and a rewarded column that no row bounds."""
    n = draw(st.integers(1, 5))
    q0 = [draw(_nonnegative_values) for _ in range(n)]
    A: list[list[Scalar]] = []
    b: list[Scalar] = []
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(_matrix_entries) for _ in range(n)]
        A.append(row)
        b.append(_dot(row, q0) + draw(st.one_of(st.just(ZERO), _nonnegative_values)))
    for _ in range(draw(st.integers(0, 2))):
        row = [draw(_matrix_entries) for _ in range(n)]
        value = _dot(row, q0)
        for _ in range(draw(st.integers(1, 2))):
            A += [list(row), [-v for v in row]]
            b += [value, -value]
    if draw(_one_in_four):
        row = [draw(_matrix_entries) for _ in range(n)]
        value = draw(_field_values)
        A += [row, [-v for v in row]]
        b += [value, -value - Scalar(draw(_positive_fractions))]
    if not draw(_one_in_four):
        A.append([ONE] * n)
        b.append(_dot(A[-1], q0) + draw(_nonnegative_values))
    c = [draw(_field_values) for _ in range(n)]
    if draw(_one_in_four):
        c.append(Scalar(draw(_positive_fractions)))
        for row in A:
            row.append(draw(st.sampled_from((ZERO, -ONE))))
    return LpProblem(tuple(c), tuple(tuple(row) for row in A), tuple(b))


@given(_field_problems())
@settings(max_examples=200, deadline=None)
def test_solutions_match_the_scalar_tableau_reference(problem):
    solution = solve_lp(problem)
    assert solution == reference_solve_lp(problem)
    if solution.status == OPTIMAL:
        assert check_certificate(problem, solution)


@st.composite
def _ns_problems(draw):
    """No-signalling LPs of expressions with 0, +-1 and +-sqrt2
    coefficients on up to two settings and three outcomes per side."""
    na, nb, nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = [LabelSet(tuple(f"{name}{i}" for i in range(k))) for name, k in zip("abxy", (na, nb, nx, ny))]
    cell = st.sampled_from((ZERO, ONE, -ONE, SQRT2, -SQRT2))
    return _ns_lp(BellExpression(*labels, tuple(draw(cell) for _ in range(na * nb * nx * ny))))


@given(_ns_problems())
@settings(max_examples=40, deadline=None)
def test_ns_lps_match_the_scalar_tableau_reference(problem):
    solution = solve_lp(problem)
    assert solution == reference_solve_lp(problem)
    assert solution.status == OPTIMAL
    assert check_certificate(problem, solution)
