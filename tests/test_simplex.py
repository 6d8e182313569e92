"""Exact LP solver and its strong-duality certificate checker."""

import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simplex
from helpers import ns_behaviors, small_fractions, valid_behaviors
from hvlab import HvlabError, IrrationalMatrix, decompose, simplex
from hvlab.bell import BellExpression, _ns_lp
from hvlab.boxes import LabelSet, _int_view
from hvlab.catalog import pr_box, table1_box
from hvlab.decompose import content_lp_problem, enumerate_local_vertices, max_local_content
from hvlab.errors import DimensionMismatch, LpFailure
from hvlab.scalar import HALF, ONE, SQRT2, ZERO, Scalar, _common_denominator, _sign, format_scalar, parse_scalar
from hvlab.simplex import (
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    LpSolution,
    Matrix,
    _check_ints,
    _solve_ints,
    check_certificate,
    solve_lp,
)
from reference_simplex import dense_rows, reference_solve_lp


def test_single_bound():
    solution = solve_lp(LpProblem((ONE,), ((ONE,),), (parse_scalar("1/2"),)))
    assert solution.status == OPTIMAL
    assert solution.value == parse_scalar("1/2")
    assert solution.q == (parse_scalar("1/2"),)


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


_OBJECTIVE_OR_RHS = "objective and right-hand side entries"


@pytest.mark.parametrize(
    "c, A, b, entries, got",
    [
        ((1,), ((ONE,),), (ONE,), _OBJECTIVE_OR_RHS, "int"),
        ((ONE,), ((1,),), (ONE,), "constraint entries", "int"),
        ((ONE,), ((ONE,),), (1,), _OBJECTIVE_OR_RHS, "int"),
        ((ONE, Fraction(1)), ((ONE, ONE),), (1.0,), _OBJECTIVE_OR_RHS, "Fraction"),
        ((None,), ((1,),), (1.0,), _OBJECTIVE_OR_RHS, "NoneType"),
        ((ONE,), ((1,),), (1.0,), _OBJECTIVE_OR_RHS, "float"),
    ],
    ids=["objective", "matrix", "rhs", "first-of-two", "objective-before-rhs", "rhs-before-matrix"],
)
def test_non_scalar_entries_are_refused(c, A, b, entries, got):
    with pytest.raises(TypeError, match=f"^{entries} must be Scalar, got {got}$"):
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


# Problems with a negative right-hand side, which only a phase one could
# start from: an infeasible pair of rows, an equality as a pair of rows,
# that equality stated twice (one copy redundant) and x >= 1 with nothing
# above.  solve_lp refuses each, naming its first negative row.
_NEGATIVE_RHS_PROBLEMS = [
    (LpProblem((ONE,), ((-ONE,), (ONE,)), (-ONE, ZERO)), 0),
    (LpProblem((ONE, ZERO), ((ONE, ONE), (-ONE, -ONE)), (ONE, -ONE)), 1),
    (LpProblem((ONE, ZERO), ((ONE, ONE), (-ONE, -ONE), (ONE, ONE), (-ONE, -ONE)), (ONE, -ONE, ONE, -ONE)), 1),
    (LpProblem((ONE,), ((-ONE,),), (-ONE,)), 0),
]


@pytest.mark.parametrize(
    "problem, row",
    _NEGATIVE_RHS_PROBLEMS,
    ids=["infeasible-pair", "equality-pair", "redundant-equalities", "x-at-least-one"],
)
def test_a_negative_right_hand_side_is_refused(problem, row):
    with pytest.raises(LpFailure, match=rf"^right-hand side entry {row} is -1; .*b >= 0"):
        solve_lp(problem)


def test_a_right_hand_side_is_refused_by_its_exact_sign():
    # -1 + sqrt2 > 0 has a negative rational part, and 1 - sqrt2 < 0 a
    # negative sqrt2 part only: the first is a right-hand side, the second
    # is not.
    assert solve_lp(LpProblem((ONE,), ((ONE,),), (SQRT2 - ONE,))).value == SQRT2 - ONE
    with pytest.raises(LpFailure, match=r"^right-hand side entry 1 is 1-1\*sqrt2; .*b >= 0"):
        solve_lp(LpProblem((ONE,), ((ONE,), (ONE,)), (ONE, ONE - SQRT2)))


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


def test_certificate_sets_both_objectives_against_the_value():
    # max q0 + q1 s.t. q0 + q1 <= 2 - sqrt2: value 2 - sqrt2 with dual 1.
    # Each tampered candidate stays primal and dual feasible, so only the
    # objective sums can reject it: q = 0 gives c.q = 0, and y = 1 + sqrt2
    # gives y.b = sqrt2, a sum with sqrt2 parts on both sides.
    problem = LpProblem((ONE, ONE), ((ONE, ONE),), (Scalar(2, -1),))
    solution = solve_lp(problem)
    assert (solution.value, solution.dual) == (Scalar(2, -1), (ONE,))
    assert check_certificate(problem, solution)
    assert not check_certificate(problem, LpSolution(OPTIMAL, (ZERO, ZERO), solution.value, solution.dual))
    assert not check_certificate(problem, LpSolution(OPTIMAL, solution.q, solution.value, (Scalar(1, 1),)))


# max q0 + q1 s.t. q0 + q1 <= 1 and an all-zero row: optimum 1 at q = (1, 0)
# with dual (1, 0).  Each candidate below holds these numbers in another
# status or shape, and the sums alone would accept the unbounded one and
# every one an entry short or long: a missing entry reads as 0, and every
# extra entry is 0.
_TRAILING_ZEROS = LpProblem((ONE, ONE), ((ONE, ONE), (ZERO, ZERO)), (ONE, ONE))
_REFUSED_SHAPES = {
    "unbounded": LpSolution(UNBOUNDED, (ONE, ZERO), ONE, (ONE, ZERO)),
    "no-q": LpSolution(OPTIMAL, None, ONE, (ONE, ZERO)),
    "no-value": LpSolution(OPTIMAL, (ONE, ZERO), None, (ONE, ZERO)),
    "no-dual": LpSolution(OPTIMAL, (ONE, ZERO), ONE, None),
    "q-short": LpSolution(OPTIMAL, (ONE,), ONE, (ONE, ZERO)),
    "q-long": LpSolution(OPTIMAL, (ONE, ZERO, ZERO), ONE, (ONE, ZERO)),
    "dual-short": LpSolution(OPTIMAL, (ONE, ZERO), ONE, (ONE,)),
    "dual-long": LpSolution(OPTIMAL, (ONE, ZERO), ONE, (ONE, ZERO, ZERO)),
}


@pytest.mark.parametrize("candidate", _REFUSED_SHAPES.values(), ids=_REFUSED_SHAPES)
def test_certificate_refuses_another_status_a_missing_part_or_a_wrong_length(candidate):
    assert solve_lp(_TRAILING_ZEROS) == LpSolution(OPTIMAL, (ONE, ZERO), ONE, (ONE, ZERO))
    assert check_certificate(_TRAILING_ZEROS, LpSolution(OPTIMAL, (ONE, ZERO), ONE, (ONE, ZERO)))
    assert check_certificate(_TRAILING_ZEROS, candidate) is False


_ONE_ROW = LpProblem((ONE,), [[ONE]], (ONE,))


@pytest.mark.parametrize(
    "candidate, field",
    [
        (LpSolution(OPTIMAL, (1,), ONE, (ONE,)), "q"),
        (LpSolution(OPTIMAL, (ONE,), 1, (ONE,)), "value"),
        (LpSolution(OPTIMAL, (ONE,), ONE, (Fraction(1),)), "dual"),
        (LpSolution(OPTIMAL, (1,), 1, (1,)), "q"),
        (LpSolution(OPTIMAL, (ONE,), 1.0, (None,)), "value"),
    ],
    ids=["q", "value", "dual", "q-before-value-and-dual", "value-before-dual"],
)
def test_certificate_refuses_an_entry_that_is_not_a_scalar(candidate, field):
    assert check_certificate(_ONE_ROW, LpSolution(OPTIMAL, (ONE,), ONE, (ONE,)))
    with pytest.raises(TypeError, match=rf"LpSolution\.{field} must hold Scalars, got"):
        check_certificate(_ONE_ROW, candidate)


# max q0 + sqrt2*q1 s.t. q0 + q1 <= 1/2 and q1 <= 1/3 + sqrt2: c and b
# each over more than one denominator, so each is scaled to a common one.
_SCALED = LpProblem((ONE, SQRT2), ((ONE, ONE), (ZERO, ONE)), (HALF, Scalar(Fraction(1, 3), 1)))


def test_a_problem_keeps_c_and_b_as_the_cores_ints():
    c, A, b = _SCALED.c, _SCALED.A, _SCALED.b
    assert _SCALED._ints == (_common_denominator(c), _common_denominator(b))
    assert _SCALED._ints[1][2] == 6
    copy = pickle.loads(pickle.dumps(_SCALED))
    assert copy._ints == _SCALED._ints
    # The kept pair is no field: equality, hash and repr are those of (c, A, b).
    rebuilt = LpProblem(list(c), A, list(b))
    assert rebuilt == _SCALED == copy and hash(rebuilt) == hash(_SCALED) == hash((c, A, b))
    assert repr(_SCALED) == f"LpProblem(c={c!r}, A={A!r}, b={b!r})"


def test_solving_and_checking_read_no_vector_of_the_problem(monkeypatch):
    problem = _SCALED
    reads = []

    def counting(values):
        reads.append(values)
        return _common_denominator(values)

    monkeypatch.setattr(simplex, "_common_denominator", counting)
    solution = solve_lp(problem)
    assert check_certificate(problem, solution)
    assert reads and not any(v is problem.c or v is problem.b for v in reads)
    assert solution == reference_solve_lp(problem)


def test_solver_is_deterministic():
    # A tie in the first ratio test (rows 0 and 2), a sqrt2 right-hand
    # side and a negative matrix entry; three pivots to the optimum.
    problem = LpProblem(
        (ONE, parse_scalar("1/3"), HALF),
        ((ONE, ONE, ZERO), (ZERO, ONE, ONE), (ONE, -ONE, ONE)),
        (ONE, parse_scalar("1/2*sqrt2"), ONE),
    )
    first = solve_lp(problem)
    second = solve_lp(problem)
    assert first == second == reference_solve_lp(problem)
    assert first.status == OPTIMAL
    assert check_certificate(problem, first)


@st.composite
def random_problems(draw):
    """Random LPs with rational b >= 0 and c and an integer matrix, often
    with zero entries."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    c = tuple(Scalar(draw(small_fractions(2, 4))) for _ in range(n))
    A = tuple(tuple(draw(_matrix_entries) for _ in range(n)) for _ in range(m))
    b = tuple(draw(st.one_of(st.just(ZERO), _nonnegative_fractions.map(Scalar))) for _ in range(m))
    return LpProblem(c, A, b)


@given(random_problems())
@settings(max_examples=150, deadline=None)
def test_random_lps_have_verifiable_outcomes(problem):
    solution = solve_lp(problem)
    assert solution.status in (OPTIMAL, UNBOUNDED)
    if solution.status == OPTIMAL:
        assert check_certificate(problem, solution)
    else:
        # The origin is feasible, so only a rewarded direction can run off.
        assert any(cj.sign() > 0 for cj in problem.c)


def test_matrix_entry_with_sqrt2_part_is_refused():
    with pytest.raises(IrrationalMatrix) as caught:
        LpProblem((ONE, ONE), ((ONE, ZERO), (ZERO, ONE + SQRT2)), (ONE, ONE))
    assert isinstance(caught.value, HvlabError)
    assert "(1, 1)" in str(caught.value)
    # sqrt2 stays welcome in the objective and the right-hand side
    LpProblem((SQRT2,), ((ONE,),), (ONE - SQRT2,))


# Entries that are not integers, each with its text and a catalog box whose
# first cell is such an entry: the PR box's 1/2 and the table1 box's
# 1/4+1/8*sqrt2.
_NOT_INTEGER = {
    "fraction": (HALF, "1/2", pr_box),
    "sqrt2": (ONE + SQRT2, "1+1*sqrt2", table1_box),
}


@pytest.mark.parametrize("entry, text, box", _NOT_INTEGER.values(), ids=_NOT_INTEGER)
def test_a_matrix_entry_that_is_not_an_integer_is_refused(entry, text, box):
    rows = ((ONE, entry), (ZERO, ONE))
    message = rf"^constraint entry \(0, 1\) is {re.escape(text)}; the matrix must be integer$"
    with pytest.raises(IrrationalMatrix, match=message):
        Matrix.from_rows(rows, 2)
    with pytest.raises(IrrationalMatrix, match=message):
        LpProblem((ONE, ONE), rows, (ONE, ONE))
    # A caller-built vertex tuple is transposed through Matrix.from_rows: a
    # box among the vertices puts its first cell at entry (0, 1), after
    # vertex 0's unit.
    box = box()
    vertices = (enumerate_local_vertices(box.spaces)[0], box)
    first = format_scalar(box.table[0])
    with pytest.raises(IrrationalMatrix, match=rf"^constraint entry \(0, 1\) is {re.escape(first)}; "):
        content_lp_problem(box, vertices)


# Integer matrix entries, half of them 0 or +-1 as in both of hvlab's LPs
# and the rest up to 5 in size, so that a pivot entry often does not divide
# a row's factor; objective and right-hand side values with sqrt2 parts.
_matrix_entries = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-5, 5)).map(Scalar)
_field_values = st.builds(Scalar, small_fractions(2, 4), st.one_of(st.just(0), small_fractions(2, 4)))
_nonnegative_fractions = st.fractions(min_value=0, max_value=2, max_denominator=4)
_nonnegative_values = st.builds(Scalar, _nonnegative_fractions, st.one_of(st.just(0), _nonnegative_fractions))
_zero_or_nonnegative_values = st.one_of(st.just(ZERO), _nonnegative_values)
_positive_fractions = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)
_one_in_four = st.integers(0, 3).map(lambda k: k == 0)


def _dot(row, q):
    total = ZERO
    for a, v in zip(row, q):
        total = total + a * v
    return total


@st.composite
def _field_problems(draw):
    """Random LPs with b >= 0 around a drawn point q0 >= 0.  Each row is
    A_i.q <= max(A_i.q0, 0) plus a slack that is often zero, so q0 is
    feasible, b has sqrt2 parts and many entries of b are zero
    (degenerate ties); equality pairs A_i.q == 0 come once or twice (one
    copy is then redundant).  Drawn structure adds a bounding row
    sum(q) <= b and a rewarded column that no row bounds."""
    n = draw(st.integers(1, 5))
    q0 = [draw(_nonnegative_values) for _ in range(n)]
    A: list[list[Scalar]] = []
    b: list[Scalar] = []
    for _ in range(draw(st.integers(0, 4))):
        row = [draw(_matrix_entries) for _ in range(n)]
        A.append(row)
        b.append(max(_dot(row, q0), ZERO) + draw(_zero_or_nonnegative_values))
    for _ in range(draw(st.integers(0, 2))):
        row = [draw(_matrix_entries) for _ in range(n)]
        for _ in range(draw(st.integers(1, 2))):
            A += [list(row), [-v for v in row]]
            b += [ZERO, ZERO]
    if not draw(_one_in_four):
        A.append([ONE] * n)
        b.append(_dot(A[-1], q0) + draw(_nonnegative_values))
    c = [draw(_field_values) for _ in range(n)]
    if draw(_one_in_four):
        c.append(Scalar(draw(_positive_fractions)))
        for row in A:
            row.append(draw(st.sampled_from((ZERO, -ONE))))
    return LpProblem(tuple(c), tuple(tuple(row) for row in A), tuple(b))


def _pivots(solve, tableau_class, entering, problem):
    """solve(problem) and its pivots as (leaving variable, entering
    variable) pairs, in order, recorded by wrapping the pivot method of
    tableau_class; entering(tableau, c) names the variable of column c."""
    pivots = []
    pivot = tableau_class.pivot

    def recording(tableau, r, c):
        pivots.append((tableau.basis[r], entering(tableau, c)))
        pivot(tableau, r, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableau_class, "pivot", recording)
        return solve(problem), pivots


def _solve_with_reference(problem):
    """solve_lp's solution, checked equal to the reference's, pivot for
    pivot: each pivot leaves and enters the same variables in both."""
    solution, pivots = _pivots(solve_lp, simplex._Tableau, lambda tableau, c: tableau.nonbasic[c], problem)
    expected, expected_pivots = _pivots(reference_solve_lp, reference_simplex._Tableau, lambda _, c: c, problem)
    assert solution == expected
    assert pivots == expected_pivots
    return solution, pivots


# b with pairwise coprime denominators and a sqrt2 part, the one case where
# the tableau's rows start over the lcm of b's denominators (105) and not
# each over its own: a degenerate pivot on the row with b = 0, then one
# whose ratio test compares 1/3 with 1/5 + sqrt2/7.
_COPRIME_RHS = LpProblem(
    (ONE, Scalar(2)),
    ((ONE, ZERO), (ONE, ONE), (-ONE, ONE)),
    (Scalar(Fraction(1, 3)), Scalar(Fraction(1, 5), Fraction(1, 7)), ZERO),
)


@given(_field_problems())
@example(_COPRIME_RHS)
@settings(max_examples=200, deadline=None)
def test_solutions_match_the_scalar_tableau_reference(problem):
    solution, _ = _solve_with_reference(problem)
    if solution.status == OPTIMAL:
        assert check_certificate(problem, solution)


_tall_entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 3, -5, 2)), st.integers(-6, 6)).map(Scalar)


@st.composite
def _tall_problems(draw):
    """LPs of the benchmark's shape, many more rows than columns: up to 3
    columns and 16 rows around a drawn point q0 >= 0.  Rows mix
    non-unit entries (3, -5 and 2 in one row), a row's right-hand side
    is max(A_i.q0, 0) plus a slack that is often zero, so many ratio
    tests tie at zero, and q0 and c carry sqrt2 parts; c is often
    nonnegative, so most columns enter."""
    n = draw(st.integers(1, 3))
    q0 = [draw(_nonnegative_values) for _ in range(n)]
    A, b = [], []
    for _ in range(draw(st.integers(n, 16))):
        row = [draw(_tall_entries) for _ in range(n)]
        A.append(row)
        b.append(max(_dot(row, q0), ZERO) + draw(_zero_or_nonnegative_values))
    if not draw(_one_in_four):
        A.append([ONE] * n)
        b.append(_dot(A[-1], q0) + draw(_zero_or_nonnegative_values))
    c = tuple(draw(st.one_of(_nonnegative_values, _field_values)) for _ in range(n))
    return LpProblem(c, tuple(map(tuple, A)), tuple(b))


@given(_tall_problems())
@settings(max_examples=150, deadline=None)
def test_tall_lps_match_the_scalar_tableau_reference(problem):
    solution, _ = _solve_with_reference(problem)
    if solution.status == OPTIMAL:
        assert check_certificate(problem, solution)


def test_a_slack_that_leaves_and_re_enters_matches_the_reference():
    # max 2 q0 + 3 q1 + 3 q2 over three rows.  The path: q1 and q2 tie
    # for the most negative reduced cost, -3, and the lower index q1
    # enters for slack 3 (row 0), q2 for slack 4, q0 for slack 5, then
    # slack 4 re-enters for q2, in the column q2 took from it.  The
    # columns then hold variables 5, 3 and 2, so entering, the dual and
    # the basis all depend on the labels, not on the column positions.
    problem = LpProblem(
        (Scalar(2), Scalar(3), Scalar(3)),
        ((ZERO, Scalar(2), ZERO), (ZERO, Scalar(2), Scalar(2)), (ONE, ZERO, Scalar(3))),
        (Scalar(2), Scalar(3), Scalar(2)),
    )
    solution, pivots = _solve_with_reference(problem)
    assert pivots == [(3, 1), (4, 2), (5, 0), (2, 4)]
    three_halves = Scalar(Fraction(3, 2))
    assert (solution.q, solution.value) == ((Scalar(2), ONE, ZERO), Scalar(7))
    assert solution.dual == (three_halves, ZERO, Scalar(2))
    assert check_certificate(problem, solution)


# Beale's cycling example (E. M. L. Beale, Naval Res. Logist. Q. 2, 269
# (1955)) as a maximisation: max 3/4 q0 - 150 q1 + 1/50 q2 - 6 q3 with
# optimum 1/20 at q = (1/25, 0, 1, 0).  Its two tied rows are scaled by
# 100 to integers.  Scaling a row divides its slack's reduced cost by
# 100, which breaks the cycle, so each scaled row also gets a zero-cost
# column of 100 (q4 and q5) that is priced as its unit slack was.  From
# the slack basis, entering the most negative reduced cost and leaving by
# the lowest basic variable on a tie of zero ratios then repeats Beale's
# six degenerate pivots for ever, q4 and q5 standing in for the slacks.
_BEALE_COST = (Scalar(Fraction(3, 4)), Scalar(-150), Scalar(Fraction(1, 50)), Scalar(-6), ZERO, ZERO)
_BEALE_ROWS = (
    (Scalar(25), Scalar(-6000), Scalar(-4), Scalar(900), Scalar(100), ZERO),
    (Scalar(50), Scalar(-9000), Scalar(-2), Scalar(300), ZERO, Scalar(100)),
    (ZERO, ZERO, ONE, ZERO, ZERO, ZERO),
)
_BEALE = LpProblem(_BEALE_COST, _BEALE_ROWS, (ZERO, ZERO, ONE))


def _capped_pivots(monkeypatch, cap):
    """The pivots of every solve_lp from here on, as (leaving variable,
    entering variable) pairs; past ``cap`` of them the solve fails instead
    of going round for ever."""
    pivot, pivots = simplex._Tableau.pivot, []

    def capped(tableau, r, c):
        pivots.append((tableau.basis[r], tableau.nonbasic[c]))
        assert len(pivots) <= cap, "the simplex is cycling"
        pivot(tableau, r, c)

    monkeypatch.setattr(simplex._Tableau, "pivot", capped)
    return pivots


def test_beales_cycling_example_ends_optimal(monkeypatch):
    """The guard switches the entering rule to Bland's once the degenerate
    run repeats a basis, so the solve ends; without it the pivots go round
    for ever, and the cap turns that into a failure."""
    pivots = _capped_pivots(monkeypatch, 50)
    solution = solve_lp(_BEALE)
    assert solution.status == OPTIMAL
    assert solution.value == Scalar(Fraction(1, 20))
    assert solution.q == (Scalar(Fraction(1, 25)), ZERO, ONE, ZERO, Scalar(Fraction(3, 100)), ZERO)
    assert check_certificate(_BEALE, solution)
    monkeypatch.undo()
    assert _solve_with_reference(_BEALE) == (solution, pivots)


def test_beales_example_with_sqrt2_in_every_reduced_cost(monkeypatch):
    """Beale's costs times 2 - sqrt2.  A positive factor leaves every
    choice of Dantzig's rule as it was, so the pivots still go round
    without the guard; and each nonzero reduced cost now has a rational
    and a sqrt2 part of opposite signs, so once the guard trips, Bland's
    rule decides which of them are negative by their exact sign."""
    factor = Scalar(2) - SQRT2
    problem = LpProblem(tuple(c * factor for c in _BEALE_COST), _BEALE_ROWS, _BEALE.b)
    pivots = _capped_pivots(monkeypatch, 50)
    solution = solve_lp(problem)
    assert solution.status == OPTIMAL
    assert solution.value == Scalar(Fraction(1, 10)) - SQRT2 / Scalar(20)
    assert check_certificate(problem, solution)
    monkeypatch.undo()
    assert _solve_with_reference(problem) == (solution, pivots)
    assert len(pivots) == 12


def test_the_guard_gives_way_to_dantzig_after_a_step(monkeypatch):
    """Beale's example with a variable of its own put first, q0 <= 1 at
    cost 1/100.  Once the guard trips, Bland's rule enters q0, a step of
    length 1; Dantzig's rule then takes over again, runs round Beale's
    cycle a second time, and the guard trips again.  Left on Bland's rule
    after that step, the solve would take another path."""
    problem = LpProblem(
        (Scalar(Fraction(1, 100)), *_BEALE_COST),
        (*((ZERO, *row) for row in _BEALE_ROWS), (ONE,) + (ZERO,) * 6),
        (ZERO, ZERO, ONE, ONE),
    )
    pivots = _capped_pivots(monkeypatch, 50)
    solution = solve_lp(problem)
    assert pivots[8] == (10, 0) and len(pivots) == 19
    assert solution.value == Scalar(Fraction(1, 100) + Fraction(1, 20))
    assert check_certificate(problem, solution)
    monkeypatch.undo()
    assert _solve_with_reference(problem) == (solution, pivots)


@st.composite
def _ns_problems(draw):
    """No-signalling LPs, as ``_ns_lp`` writes them, of expressions with 0,
    +-1 and +-sqrt2 coefficients on up to two settings and three outcomes
    per side."""
    na, nb, nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = [LabelSet(tuple(f"{name}{i}" for i in range(k))) for name, k in zip("abxy", (na, nb, nx, ny))]
    cell = st.sampled_from((ZERO, ONE, -ONE, SQRT2, -SQRT2))
    return _ns_lp(BellExpression(*labels, tuple(draw(cell) for _ in range(na * nb * nx * ny))))


@given(_ns_problems())
@settings(max_examples=40, deadline=None)
def test_ns_lps_match_the_scalar_tableau_reference(problem):
    solution, _ = _solve_with_reference(problem)
    assert solution.status == OPTIMAL
    assert check_certificate(problem, solution)


@given(valid_behaviors(), ns_behaviors(), _ns_problems())
@settings(max_examples=40, deadline=None)
def test_every_lp_hvlab_builds_has_a_nonnegative_right_hand_side(box, ns_box, ns_problem):
    # The content LP of a valid box, the support LP that max_local_content
    # hands the int core with b the box's int view and the no-signalling LP:
    # each starts from its slack basis.
    solved = []

    def recording_solve_ints(columns, c, b):
        solved.append(b)
        return _solve_ints(columns, c, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decompose, "_solve_ints", recording_solve_ints)
        max_local_content(ns_box)
    assert len(solved) == 1
    assert solved[0] is _int_view(ns_box)
    bp, bq, bd = solved[0]
    assert bd > 0 and all(_sign(p, q) >= 0 for p, q in zip(bp, bq))
    for problem in (content_lp_problem(box, enumerate_local_vertices(box.spaces)), ns_problem):
        assert all(v.sign() >= 0 for v in problem.b)


# -- the Matrix, its columns and its sub-matrices ------------------------------


@st.composite
def _matrix_rows(draw):
    """Rows of ints, from 0 by 0 to 4 by 5: zero rows, zero width and
    asymmetric shapes, entries 0, +-1 or up to 12 in size."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    entry = st.one_of(st.sampled_from((0, 0, 1, -1)), st.integers(-12, 12))
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(m)), n


@given(_matrix_rows())
@settings(max_examples=300, deadline=None)
def test_matrix_views_reproduce_its_dense_rows(drawn):
    rows, n = drawn
    matrix = Matrix.from_rows([[Scalar(a) for a in row] for row in rows], n)
    assert dense_rows(matrix.columns, len(rows)) == [list(row) for row in rows]
    assert matrix.height == len(rows)
    assert len(matrix.columns) == n
    for j, column in enumerate(matrix.columns):
        assert column == tuple((i, row[j]) for i, row in enumerate(rows) if row[j])
        assert all(type(a) is int for _, a in column)


def test_empty_and_zero_width_matrices():
    empty = Matrix.from_rows((), 3)
    assert empty == Matrix(0, ((), (), ()))
    flat = Matrix.from_rows(((), ()), 0)
    assert flat == Matrix(2, ())
    # Two rows and no column: only the right-hand side bounds the solve.
    assert solve_lp(LpProblem((), flat, (ONE, ZERO))) == LpSolution(OPTIMAL, (), ZERO, (ZERO, ZERO))


def test_matrix_is_immutable_and_pickles():
    matrix = Matrix.from_rows(((ONE, Scalar(2)), (ZERO, -ONE)), 2)
    with pytest.raises(AttributeError):
        matrix.height = 3
    copy = pickle.loads(pickle.dumps(matrix))
    assert type(copy) is Matrix and copy == matrix
    assert (copy.height, copy.columns) == (matrix.height, matrix.columns)


@pytest.mark.parametrize(
    "row, error",
    [
        ((ONE + SQRT2, "x"), IrrationalMatrix),
        ((HALF, "x"), IrrationalMatrix),
        (("x", ONE + SQRT2), TypeError),
        (("x", HALF), TypeError),
        ((ONE, ZERO, 1), TypeError),
    ],
    ids=["irrational-first", "fraction-first", "type-first", "type-before-fraction", "int-last"],
)
def test_matrix_names_the_first_bad_entry_of_a_row(row, error):
    with pytest.raises(error):
        Matrix.from_rows(((ONE,) * len(row), row), len(row))


def test_a_scalar_subclass_is_a_matrix_entry():
    class Tagged(Scalar):
        __slots__ = ()

    entry = Tagged(3)
    matrix = Matrix.from_rows(((entry, ZERO),), 2)
    assert matrix.height == 1 and matrix.columns == (((0, 3),), ())
    assert type(matrix.columns[0][0][1]) is int
    # The solver reads the entry as the int 3: 3 q0 <= 1 at q0 = 1/3.
    third = Scalar(Fraction(1, 3))
    solution = solve_lp(LpProblem((ONE, ZERO), matrix, (ONE,)))
    assert (solution.q, solution.value, solution.dual) == ((third, ZERO), third, (third,))


def test_lp_problem_keeps_a_matrix_of_its_width():
    matrix = Matrix.from_rows(((ONE, ONE),), 2)
    assert LpProblem((ONE, ONE), matrix, (ONE,)).A is matrix
    with pytest.raises(DimensionMismatch, match="constraint matrix has 2 columns, expected 3"):
        LpProblem((ONE, ONE, ONE), matrix, (ONE,))
    with pytest.raises(DimensionMismatch, match="1 constraint rows but 2 right-hand sides"):
        LpProblem((ONE, ONE), matrix, (ONE, ONE))
    # A matrix without rows has a width too; plain rows take the objective's.
    with pytest.raises(DimensionMismatch, match="constraint matrix has 5 columns, expected 2"):
        LpProblem((ONE, ONE), Matrix.from_rows((), 5), ())
    assert LpProblem((ONE, ONE), (), ()).A.columns == ((), ())


@given(_field_problems())
@settings(max_examples=100, deadline=None)
def test_problems_from_a_matrix_equal_those_from_plain_rows(problem):
    plain = [[Scalar(a) for a in row] for row in dense_rows(problem.A.columns, len(problem.b))]
    from_plain = LpProblem(problem.c, plain, problem.b)
    from_matrix = LpProblem(problem.c, Matrix.from_rows(plain, len(problem.c)), problem.b)
    assert from_plain == from_matrix
    assert solve_lp(from_matrix) == reference_solve_lp(from_plain)


def test_a_tampered_certificate_fails_at_each_part():
    # max q0 + q1 s.t. 2*q0 + 15*q1 <= 6, q0 <= 3/2: optimum at q = (3/2, 1/5).
    third = Scalar(Fraction(1, 3))
    problem = LpProblem((ONE, ONE), ((Scalar(2), Scalar(15)), (ONE, ZERO)), (Scalar(6), Scalar(Fraction(3, 2))))
    solution = solve_lp(problem)
    assert solution.q == (Scalar(Fraction(3, 2)), Scalar(Fraction(1, 5)))
    assert check_certificate(problem, solution)
    # One q entry, one y entry or the value moved by 1/3, or q moved to a
    # feasible point of lower value, which only c.q == value rules out.
    for tampered in (
        LpSolution(OPTIMAL, (solution.q[0], solution.q[1] + third), solution.value, solution.dual),
        LpSolution(OPTIMAL, (solution.q[0], ZERO), solution.value, solution.dual),
        LpSolution(OPTIMAL, solution.q, solution.value, (solution.dual[0] - third, solution.dual[1])),
        LpSolution(OPTIMAL, solution.q, solution.value + third, solution.dual),
    ):
        assert not check_certificate(problem, tampered)


@pytest.mark.parametrize("violated", range(4))
def test_certificate_checks_every_row(violated):
    # q_j <= 1 for each j, nothing rewarded: the zero dual certifies any
    # feasible q, so only the row test can catch the one q_j = 2.
    identity = tuple(tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4))
    problem = LpProblem((ZERO,) * 4, identity, (ONE,) * 4)
    q = tuple(Scalar(2) if j == violated else ONE for j in range(4))
    assert check_certificate(problem, LpSolution(OPTIMAL, (ONE,) * 4, ZERO, (ZERO,) * 4))
    assert not check_certificate(problem, LpSolution(OPTIMAL, q, ZERO, (ZERO,) * 4))


@pytest.mark.parametrize("short", range(3))
def test_certificate_checks_every_column(short):
    # max 2*sum(q) s.t. row.q <= 2 with q at a unit vector and dual 1:
    # with a row of twos every column is covered; an entry 1 leaves y.A
    # short of c in that column alone.
    two = Scalar(2)
    q = tuple(ONE if j == (short + 1) % 3 else ZERO for j in range(3))
    candidate = LpSolution(OPTIMAL, q, two, (ONE,))
    assert check_certificate(LpProblem((two,) * 3, ((two,) * 3,), (two,)), candidate)
    row = tuple(ONE if j == short else two for j in range(3))
    assert not check_certificate(LpProblem((two,) * 3, (row,), (two,)), candidate)


def test_certificate_subtracts_on_minus_one_entries():
    # max q0 s.t. q0 - q1 <= 1, q1 <= 2: optimum 3 at q = (3, 2), dual (1, 1).
    problem = LpProblem((ONE, ZERO), ((ONE, -ONE), (ZERO, ONE)), (ONE, Scalar(2)))
    solution = solve_lp(problem)
    assert (solution.q, solution.value, solution.dual) == ((Scalar(3), Scalar(2)), Scalar(3), (ONE, ONE))
    assert check_certificate(problem, solution)
    # Row 0 holds only if the -1 entry subtracts q1; column 1 of y.A is
    # short of c only if the -1 entry subtracts y0.
    assert not check_certificate(problem, LpSolution(OPTIMAL, (Scalar(3), ZERO), Scalar(3), solution.dual))
    assert not check_certificate(problem, LpSolution(OPTIMAL, solution.q, Scalar(3), (Scalar(3), ZERO)))


def test_certificate_makes_no_scalar_product(monkeypatch):
    """An integer matrix is checked in ints alone: c.q and y.b are summed
    as int products too, so no Scalar is multiplied."""
    settings, outcomes = LabelSet(("0", "1", "2")), LabelSet(("0", "1"))
    coefficients = tuple(Scalar(k % 3 - 1, k % 2) for k in range(36))
    problem = _ns_lp(BellExpression(settings, settings, outcomes, outcomes, coefficients))
    solution = solve_lp(problem)
    assert any(not v.is_zero() for v in solution.q) and any(not w.is_zero() for w in solution.dual)
    products = []
    multiply = Scalar.__mul__

    def counting(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert check_certificate(problem, solution)
    assert products == []


def test_the_sqrt2_halves_are_summed_when_q_or_y_carries_sqrt2():
    # max sqrt2*q0 + q1 s.t. q0 + q2 <= sqrt2, q1 <= 1, q1 - q0 <= 0: optimum 3
    # at q = (sqrt2, 1, 0) with dual y = (sqrt2, 1, 0), both carrying sqrt2.
    # Row 2 has b = 0 and column 2 has c = 0, so a sqrt2 part moved there
    # leaves y.b and c.q as they are: only the sqrt2 half of y.A (or of A.q)
    # can refuse it.
    problem = LpProblem(
        (SQRT2, ONE, ZERO),
        ((ONE, ZERO, ONE), (ZERO, ONE, ZERO), (-ONE, ONE, ZERO)),
        (SQRT2, ONE, ZERO),
    )
    q, y, value = (SQRT2, ONE, ZERO), (SQRT2, ONE, ZERO), Scalar(3)
    assert check_certificate(problem, LpSolution(OPTIMAL, q, value, y))
    # y_2 = sqrt2/2 leaves column 0 of y.A at sqrt2/2, short of c_0 = sqrt2.
    assert not check_certificate(problem, LpSolution(OPTIMAL, q, value, (SQRT2, ONE, SQRT2 / 2)))
    # q_2 = sqrt2 puts row 0 of A.q at 2*sqrt2, past b_0 = sqrt2.
    assert not check_certificate(problem, LpSolution(OPTIMAL, (SQRT2, ONE, SQRT2), value, y))


# max sqrt2*q0 + q1 s.t. q0 <= 1, q1 - q0 <= 0, q1 <= 1: optimum 1 + sqrt2 at
# q = (1, 1).  Every y = (sqrt2 + t, t, 1 - t) has y.A = c and y.b = 1 + sqrt2,
# so each broken certificate below fails exactly one part of the check.
_SQRT2_COST = LpProblem((SQRT2, ONE), ((ONE, ZERO), (-ONE, ONE), (ZERO, ONE)), (ONE, ZERO, ONE))
_BROKEN = {
    # c.q and y.b both fall short of it.
    "overstated-value": LpSolution(OPTIMAL, (ONE, ONE), Scalar(2, 1), (Scalar(1, 1), ONE, ZERO)),
    # t = 2: y.A and y.b still hold.
    "negative-dual": LpSolution(OPTIMAL, (ONE, ONE), Scalar(1, 1), (Scalar(2, 1), Scalar(2), -ONE)),
    # q0 = 3/2 breaks row 0 alone, and c.q is still 1 + sqrt2.
    "row-broken": LpSolution(
        OPTIMAL, (Scalar(Fraction(3, 2)), Scalar(1, Fraction(-1, 2))), Scalar(1, 1), (Scalar(1, 1), ONE, ZERO)
    ),
    # q = (1, 0) is feasible with c.q = sqrt2, short of the value y.b.
    "suboptimal-q": LpSolution(OPTIMAL, (ONE, ZERO), Scalar(1, 1), (Scalar(1, 1), ONE, ZERO)),
    # y = (1 + sqrt2, 0, 1) is feasible with y.b = 2 + sqrt2, past the value c.q.
    "suboptimal-dual": LpSolution(OPTIMAL, (ONE, ONE), Scalar(1, 1), (Scalar(1, 1), ZERO, ONE)),
    # y = (sqrt2/2, 0, 1 + sqrt2/2): y.A_0 = c_0 - sqrt2/2, its rational part
    # equal to c_0's; y >= 0 and y.b = 1 + sqrt2.
    "sqrt2-short-column": LpSolution(
        OPTIMAL, (ONE, ONE), Scalar(1, 1), (Scalar(0, Fraction(1, 2)), ZERO, Scalar(1, Fraction(1, 2)))
    ),
}


def _int_certificate(problem, solution, k):
    """The int check's arguments for a certificate of Scalars, with q and y
    each one entry per column or row over k times its lowest common
    denominator, as the tableau may give them."""

    def widened(values):
        ps, qs, d = _common_denominator(values)
        return [p * k for p in ps], [q * k for q in qs], d * k

    c, b = _common_denominator(problem.c), _common_denominator(problem.b)
    return problem.A.columns, c, b, widened(solution.q), widened(solution.dual), solution.value._v


def test_the_int_check_passes_the_int_answer_of_the_sqrt2_cost_lp():
    solution = solve_lp(_SQRT2_COST)
    assert solution == LpSolution(OPTIMAL, (ONE, ONE), Scalar(1, 1), (Scalar(1, 1), ONE, ZERO))
    c, b = _common_denominator(_SQRT2_COST.c), _common_denominator(_SQRT2_COST.b)
    tableau = _solve_ints(_SQRT2_COST.A.columns, c, b)
    assert _check_ints(_SQRT2_COST.A.columns, c, b, tableau.primal(), tableau.dual(), tableau.value())
    for k in (1, 6):
        assert _check_ints(*_int_certificate(_SQRT2_COST, solution, k))


# max q0 + q1 + q2 s.t. q <= b = (1/6, 1/6, 1/2 + sqrt2/2), where only b_2's
# denominator differs from the others'.  The certificate is the optimal one
# of the same LP with b_2 read as (1 + sqrt2)/6, its ints over 2 taken over
# the lcm 6 unscaled: q is feasible, y >= 0, y.A = c and c.q is the value,
# so only y.b is off, and only in b_2's term.
_MIXED_RHS = LpProblem(
    (ONE, ONE, ONE),
    ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)),
    (Scalar(Fraction(1, 6)), Scalar(Fraction(1, 6)), Scalar(Fraction(1, 2), Fraction(1, 2))),
)
_UNSCALED_B2 = LpSolution(
    OPTIMAL,
    (Scalar(Fraction(1, 6)), Scalar(Fraction(1, 6)), Scalar(Fraction(1, 6), Fraction(1, 6))),
    Scalar(Fraction(1, 2), Fraction(1, 6)),
    (ONE, ONE, ONE),
)


@pytest.mark.parametrize(
    "problem, broken",
    [*((_SQRT2_COST, broken) for broken in _BROKEN.values()), (_MIXED_RHS, _UNSCALED_B2)],
    ids=[*_BROKEN, "unscaled-mixed-rhs"],
)
def test_both_checks_refuse_each_broken_certificate(problem, broken):
    assert not check_certificate(problem, broken)
    for k in (1, 6):
        assert not _check_ints(*_int_certificate(problem, broken, k))
