"""Bell functionals: evaluation, bounds and the CHSH instance."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import CHSH_SPACES, OVERSIZED_SPACES, numbered_spaces, ns_behaviors, valid_behaviors
import hvlab.bell
from hvlab.bell import BellExpression, _best_response, chsh, evaluate, local_bound, ns_bound
from hvlab.boxes import STRATEGY_BUDGET, LabelSet, _strategy_count, deterministic_behavior, mix
from hvlab.catalog import pr_box, table1_box
from hvlab.errors import LpFailure, SizeBudgetExceeded, SpaceMismatch, UnknownSetting
from hvlab.scalar import ONE, SQRT2, ZERO, Scalar, parse_scalar
from hvlab.simplex import LpSolution, solve_lp


def _zero_expression() -> BellExpression:
    sa, sb, ox, oy = CHSH_SPACES
    return BellExpression.from_function(sa, sb, ox, oy, lambda a, b, x, y: ZERO)


def test_chsh_coefficients():
    e = chsh()
    assert e.coefficient("0", "1", "+1", "+1") == ONE
    assert e.coefficient("0", "3", "+1", "+1") == -ONE
    assert e.coefficient("2", "3", "+1", "-1") == -ONE
    assert e.coefficient("2", "1", "-1", "-1") == ONE
    with pytest.raises(UnknownSetting):
        e.coefficient("1", "1", "+1", "+1")


def _correlator(box, a, b):
    total = ZERO
    for x in box.outcomes_x:
        for y in box.outcomes_y:
            sign = 1 if x == y else -1
            total = total + sign * box.p(a, b, x, y)
    return total


def test_chsh_value_on_table1_matches_correlator_arithmetic():
    box = table1_box()
    # independent route: assemble the four correlators by direct sums
    expected = (
        _correlator(box, "0", "1")
        + _correlator(box, "2", "1")
        + _correlator(box, "2", "3")
        - _correlator(box, "0", "3")
    )
    value = evaluate(chsh(), box)
    assert value == expected
    assert value == parse_scalar("2*sqrt2")


def test_chsh_value_on_pr_box():
    assert evaluate(chsh(), pr_box()) == parse_scalar("4")


def test_zero_expression_evaluates_to_zero():
    assert evaluate(_zero_expression(), table1_box()) == ZERO


def test_evaluate_rejects_space_mismatch():
    from hvlab.catalog import signalling_box

    with pytest.raises(SpaceMismatch):
        evaluate(chsh(), signalling_box())


def test_local_bound_of_chsh_is_two_with_attaining_strategy():
    bound, strategy = local_bound(chsh())
    assert bound == parse_scalar("2")
    induced = strategy.to_behavior(chsh().spaces)
    assert evaluate(chsh(), induced) == bound


def test_local_bound_zero_expression():
    bound, _ = local_bound(_zero_expression())
    assert bound == ZERO


def test_local_bound_single_setting_correlator():
    one = LabelSet(("s",))
    outcomes = LabelSet(("+1", "-1"))
    values = {"+1": 1, "-1": -1}
    e = BellExpression.from_function(
        one, one, outcomes, outcomes, lambda a, b, x, y: Scalar(values[x] * values[y])
    )
    bound, _ = local_bound(e)
    assert bound == ONE


def test_local_bound_of_a_table_with_no_rational_part():
    e = BellExpression(*CHSH_SPACES, tuple(SQRT2 * c for c in chsh().table))
    bound, strategy = local_bound(e)
    assert bound == parse_scalar("2*sqrt2")
    assert evaluate(e, strategy.to_behavior(e.spaces)) == bound


def test_ns_bound_of_chsh_is_four_attained_by_pr():
    bound = ns_bound(chsh())
    assert bound == parse_scalar("4")
    assert evaluate(chsh(), pr_box()) == bound


def test_ns_bound_refuses_a_solution_that_fails_its_certificate(monkeypatch):
    def overstated(problem):
        solution = solve_lp(problem)
        return LpSolution(solution.status, solution.q, solution.value + ONE, solution.dual)

    monkeypatch.setattr(hvlab.bell, "solve_lp", overstated)
    with pytest.raises(LpFailure, match="certificate"):
        ns_bound(chsh())


def test_ns_bound_zero_expression():
    assert ns_bound(_zero_expression()) == ZERO


def test_ns_bound_single_cell_reward():
    sa, sb, ox, oy = CHSH_SPACES
    e = BellExpression.from_function(
        sa, sb, ox, oy, lambda a, b, x, y: ONE if (a, b, x, y) == ("0", "1", "+1", "+1") else ZERO
    )
    assert ns_bound(e) == ONE


def test_table1_sandwich_is_exact():
    value = evaluate(chsh(), table1_box())
    local, _ = local_bound(chsh())
    ns = ns_bound(chsh())
    assert (local - value).sign() < 0 < (ns - value).sign()
    assert local == parse_scalar("2") and ns == parse_scalar("4")


@given(valid_behaviors(spaces=CHSH_SPACES), valid_behaviors(spaces=CHSH_SPACES))
@settings(max_examples=40)
def test_linearity_of_evaluate(b1, b2):
    w = parse_scalar("1/3")
    e = chsh()
    mixed = mix([(w, b1), (ONE - w, b2)])
    assert evaluate(e, mixed) == w * evaluate(e, b1) + (ONE - w) * evaluate(e, b2)


def test_evaluate_is_the_sum_of_cell_products_when_both_tables_hold_sqrt2():
    # table1's cells are (2 +- sqrt2)/8, so the sqrt2*sqrt2 = 2 terms count;
    # 2**89 - 1 is a prime denominator past 2**64.
    box = table1_box()
    coefficients = tuple(Scalar(Fraction(k % 5 - 2, 2**89 - 1), Fraction(k % 3 - 1, 7)) for k in range(16))
    e = BellExpression(*box.spaces, coefficients)
    assert evaluate(e, box) == sum((c * p for c, p in zip(coefficients, box.table)), ZERO)
    assert evaluate(BellExpression(*box.spaces, tuple(SQRT2 * c for c in chsh().table)), box) == Scalar(4)


@given(ns_behaviors(spaces=CHSH_SPACES))
@settings(max_examples=15, deadline=None)
def test_no_signalling_boxes_never_beat_the_ns_bound(box):
    assert (evaluate(chsh(), box) - parse_scalar("4")).sign() <= 0


def _tiny_expressions():
    from hypothesis import strategies as st

    from helpers import small_fractions

    one = LabelSet(("s", "t"))
    outcomes = LabelSet(("0", "1"))

    @st.composite
    def build(draw):
        coefficients = tuple(Scalar(draw(small_fractions(2, 4))) for _ in range(16))
        return BellExpression(one, one, outcomes, outcomes, coefficients)

    return build()


@given(_tiny_expressions())
@settings(max_examples=15, deadline=None)
def test_local_bound_never_exceeds_ns_bound(e):
    local, strategy = local_bound(e)
    ns = ns_bound(e)
    assert (local - ns).sign() <= 0
    assert evaluate(e, strategy.to_behavior(e.spaces)) == local


def _reference_local_bound(e):
    """Every strategy as a behavior, in lexicographic order of the output
    tables, replacing the best only on a strictly greater value."""
    sa, sb, ox, oy = e.spaces
    best = None
    for outputs_a in product(ox.labels, repeat=len(sa)):
        for outputs_b in product(oy.labels, repeat=len(sb)):
            value = evaluate(e, deterministic_behavior(*e.spaces, outputs_a, outputs_b))
            if best is None or value > best[0]:
                best = (value, outputs_a, outputs_b)
    return best


@st.composite
def _tie_prone_expressions(draw):
    """Coefficients in {-1, 0, 1}, some times sqrt2, on spaces of one to
    three settings and outcomes per side, at most 243 strategies."""
    na, nb, nx, ny = (draw(st.integers(1, 3)) for _ in range(4))
    assume(nx**na * ny**nb <= 243)
    spaces = (
        LabelSet(tuple(f"a{i}" for i in range(na))),
        LabelSet(tuple(f"b{i}" for i in range(nb))),
        LabelSet(tuple(f"x{i}" for i in range(nx))),
        LabelSet(tuple(f"y{i}" for i in range(ny))),
    )
    unit = st.sampled_from((-1, 0, 1))
    cell = st.one_of(unit.map(Scalar), unit.map(lambda k: Scalar(0, k)))
    table = draw(st.lists(cell, min_size=na * nb * nx * ny, max_size=na * nb * nx * ny))
    return BellExpression(*spaces, tuple(table))


@given(_tie_prone_expressions())
@settings(max_examples=60, deadline=None)
def test_local_bound_matches_the_lexicographic_reference(e):
    value, strategy = local_bound(e)
    assert (value, strategy.outputs_a, strategy.outputs_b) == _reference_local_bound(e)


# -- the int best-response kernel on values of every size -----------------------


def _pell(k: int) -> tuple[int, int]:
    """The k-th solution of p*p - 2*q*q = +-1, so p - q*sqrt2 is about
    1/(2*p) while p and q have about 0.38*k digits."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p, q


_P1, _Q1 = _pell(1045)
_P2, _Q2 = _pell(1046)
# Unit-sized values with mixed denominators, values near 10**400 and values
# of about 10**-400 whose components near 10**400 nearly cancel.
_BASES = (
    ONE,
    Scalar(Fraction(1, 3)),
    Scalar(Fraction(-1, 7)),
    Scalar(0, Fraction(1, 5)),
    Scalar(10**400),
    Scalar(10**400, Fraction(-1, 5)),
    Scalar(_P1, -_Q1),
    Scalar(Fraction(_P2, 3), Fraction(-_Q2, 3)),
    Scalar(-(_P1 * _P2), _Q1 * _Q2),
)
_cells = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from(_BASES)), min_size=1, max_size=2
).map(lambda terms: sum((k * base for k, base in terms), ZERO))


@st.composite
def _wide_range_expressions(draw):
    """Up to three settings and outcomes per side, often one, at most 729
    strategies; cells from ``_cells``."""
    counts = [draw(st.sampled_from((1, 1, 2, 3))) for _ in range(4)]
    na, nb, nx, ny = counts
    assume(nx**na * ny**nb <= 729)
    size = na * nb * nx * ny
    return BellExpression(*numbered_spaces(*counts), tuple(draw(st.lists(_cells, min_size=size, max_size=size))))


@given(_wide_range_expressions())
@settings(max_examples=150, deadline=None)
def test_local_bound_on_values_of_every_size_matches_the_lexicographic_reference(e):
    value, strategy = local_bound(e)
    assert (value, strategy.outputs_a, strategy.outputs_b) == _reference_local_bound(e)


def _swapped(e: BellExpression) -> BellExpression:
    """The expression with Alice and Bob exchanged."""
    sa, sb, ox, oy = e.spaces
    return BellExpression.from_function(sb, sa, oy, ox, lambda b, a, y, x: e.coefficient(a, b, x, y))


@pytest.mark.parametrize("shape", [(4, 4, 4, 4), (8, 8, 2, 2)], ids=["4444", "8822"])
@pytest.mark.parametrize("kind", ["ties", "rational", "sqrt2"])
def test_local_bound_at_the_strategy_budget_is_attained_and_no_party_gains_by_deviating(shape, kind):
    # Evaluating all 65 536 strategies would be slow, so: the witness must
    # attain the value, no one-setting change of either party's table may
    # beat it, and exchanging the parties, which walks the other side's
    # tables, must give the same value.
    spaces = numbered_spaces(*shape)
    assert _strategy_count(spaces) == STRATEGY_BUDGET
    rng = random.Random(f"{shape}{kind}")
    if kind == "ties":
        pool = (ZERO, ONE, -ONE)
    elif kind == "rational":
        pool = (ZERO, ONE, -ONE, Scalar(Fraction(1, 3)), Scalar(Fraction(-2, 7)), Scalar(10**400))
    else:
        pool = (ZERO, ONE, -ONE, SQRT2, Scalar(0, Fraction(-1, 5)), Scalar(_P1, -_Q1))
    e = BellExpression(*spaces, tuple(rng.choice(pool) for _ in range(256)))
    value, strategy = local_bound(e)
    assert evaluate(e, strategy.to_behavior(spaces)) == value
    outputs = (strategy.outputs_a, strategy.outputs_b)
    for side, labels in enumerate(spaces[2:]):
        for k in range(len(outputs[side])):
            for label in labels:
                changed = list(outputs)
                changed[side] = outputs[side][:k] + (label,) + outputs[side][k + 1 :]
                assert evaluate(e, deterministic_behavior(*spaces, *changed)) <= value
    assert local_bound(_swapped(e))[0] == value


@st.composite
def _int_tables(draw):
    counts = [draw(st.integers(1, 3)) for _ in range(4)]
    na, nb, nx, ny = counts
    assume(nx**na * ny**nb <= 729)
    size = na * nb * nx * ny
    ps = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
    qs = draw(st.one_of(st.just([0] * size), st.lists(st.integers(-5, 5), min_size=size, max_size=size)))
    return tuple(counts), ps, qs


@given(_int_tables())
@settings(max_examples=100, deadline=None)
def test_best_response_on_a_plain_table_matches_local_bound(table):
    shape, ps, qs = table
    p, q, xs, ys = _best_response(shape, ps, qs)
    spaces = numbered_spaces(*shape)
    value, strategy = local_bound(BellExpression(*spaces, tuple(map(Scalar, ps, qs))))
    assert Scalar(p, q) == value
    assert tuple(spaces[2].labels[ix] for ix in xs) == strategy.outputs_a
    assert tuple(spaces[3].labels[iy] for iy in ys) == strategy.outputs_b


def test_local_bound_refuses_past_the_budget_before_building_anything(monkeypatch):
    def unreachable(*args):
        raise AssertionError("local_bound built its table before the budget check")

    monkeypatch.setattr(hvlab.bell, "_int_view", unreachable)
    monkeypatch.setattr(hvlab.bell, "_best_response", unreachable)
    with pytest.raises(SizeBudgetExceeded):
        local_bound(BellExpression.from_function(*OVERSIZED_SPACES, lambda a, b, x, y: ZERO))


def test_ns_bound_refuses_an_oversized_matrix_before_building_it(monkeypatch):
    def unreachable(*args):
        raise AssertionError("ns_bound built its constraints before the budget check")

    monkeypatch.setattr(hvlab.bell, "_ns_constraints", unreachable)
    # One setting and 128 outcomes per side: 16 384 strategies, within the
    # strategy budget, but 16 384 rows of 16 383 columns.
    wide = BellExpression(*numbered_spaces(1, 1, 128, 128), (ONE,) * 128**2)
    for _ in range(3):
        with pytest.raises(SizeBudgetExceeded, match="16384 rows of 16383 columns"):
            ns_bound(wide)
    assert local_bound(wide)[0] == ONE
    # 46 outcomes exceed the budget (2116 rows of 2115 columns); 45 are the most within it.
    with pytest.raises(SizeBudgetExceeded, match=f"budget of {hvlab.bell.NS_CELL_BUDGET} cells"):
        ns_bound(BellExpression(*numbered_spaces(1, 1, 46, 46), (ZERO,) * 46**2))
    with pytest.raises(AssertionError, match="before the budget check"):
        ns_bound(BellExpression(*numbered_spaces(1, 1, 45, 45), (ZERO,) * 45**2))
