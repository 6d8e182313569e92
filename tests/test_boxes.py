"""Behaviors: validation, marginals, no-signalling, mixtures, joint tables."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from helpers import CHSH_SPACES, SMALL_SPACES, ns_behaviors, valid_behaviors
from hvlab.boxes import (
    Behavior,
    JointTable,
    LabelSet,
    check_product,
    deterministic_behavior,
    is_no_signalling,
    marginal,
    mix,
    uniform_behavior,
    validate_behavior,
)
from hvlab.catalog import noise_box, pr_box, signalling_box, table1_box
from hvlab.errors import (
    BadPartition,
    InvalidBehavior,
    InvalidJointTable,
    SpaceMismatch,
    UnknownOutcome,
    UnknownSetting,
    WeightSumMismatch,
)
from hvlab.scalar import HALF, ONE, ZERO, Scalar, parse_scalar


def _tweak(behavior: Behavior, index: int, value: Scalar) -> Behavior:
    table = list(behavior.table)
    table[index] = value
    return Behavior(*behavior.spaces, tuple(table))


def test_validate_table1_box():
    assert validate_behavior(table1_box()).ok


def test_validate_flags_negative_cell():
    box = _tweak(table1_box(), 0, parse_scalar("-1/8"))
    report = validate_behavior(box)
    assert not report.ok
    assert report.problems == ("negative cell P(+1,+1|0,1) = -1/8", "row (0,1) sums to 5/8-1/8*sqrt2")


def test_validate_flags_bad_normalization():
    box = _tweak(noise_box(), 2, HALF)  # row (0,1) now sums to 5/4
    report = validate_behavior(box)
    assert not report.ok
    assert report.problems == ("row (0,1) sums to 5/4",)


def test_marginals_of_table1_are_uniform():
    box = table1_box()
    for a in box.settings_a:
        for b in box.settings_b:
            assert marginal(box, "alice", (a, b)) == {"+1": HALF, "-1": HALF}
            assert marginal(box, "bob", (a, b)) == {"+1": HALF, "-1": HALF}


def test_marginals_of_pr_box_are_uniform():
    box = pr_box()
    for a in box.settings_a:
        for b in box.settings_b:
            assert marginal(box, "bob", (a, b)) == {"+1": HALF, "-1": HALF}


def test_marginal_of_signalling_box_is_point_mass():
    box = signalling_box()
    assert marginal(box, "alice", ("0", "1")) == {"0": ZERO, "1": ONE}


def test_marginal_unknown_setting():
    with pytest.raises(UnknownSetting):
        marginal(table1_box(), "alice", ("9", "1"))


@pytest.mark.parametrize(
    "position, message",
    [
        ((0, 0, 0, 2), "outcomes_y has no position 2: it has 2 labels"),
        ((-1, 0, 0, 0), "settings_a has no position -1: it has 2 labels"),
    ],
    ids=["past-the-end", "negative"],
)
def test_at_refuses_a_position_outside_its_label_set(position, message):
    # Unchecked, (0, 0, 0, 2) would read the cell at (0, 0, 1, 0) and
    # (-1, 0, 0, 0) a cell of Alice's last setting.
    box = table1_box()
    for read in (box.at, box.index):
        with pytest.raises(IndexError) as refusal:
            read(*position)
        assert str(refusal.value) == message
    with pytest.raises(UnknownOutcome):
        box.p("0", "1", "+1", "2")


def test_no_signalling_table1_and_pr():
    assert is_no_signalling(table1_box()) == (True, None)
    assert is_no_signalling(pr_box()) == (True, None)


def test_no_signalling_fails_on_signalling_box():
    ok, witness = is_no_signalling(signalling_box())
    assert not ok
    assert witness.side == "alice"
    assert witness.value_reference != witness.value_other


def test_no_signalling_requires_valid_box():
    with pytest.raises(InvalidBehavior):
        is_no_signalling(_tweak(noise_box(), 0, HALF))


def test_mix_reconstructs_table1_from_pr_and_noise():
    weight = parse_scalar("1/2*sqrt2")
    assert mix([(weight, pr_box()), (ONE - weight, noise_box())]) == table1_box()


def test_mix_identity_and_idempotence():
    box = table1_box()
    assert mix([(ONE, box)]) == box
    assert mix([(HALF, box), (HALF, box)]) == box


def test_mix_rejects_bad_weights():
    box = noise_box()
    with pytest.raises(WeightSumMismatch):
        mix([(HALF, box)])
    with pytest.raises(WeightSumMismatch):
        mix([(parse_scalar("-1/2"), box), (parse_scalar("3/2"), box)])


def test_mix_rejects_space_mismatch():
    with pytest.raises(SpaceMismatch):
        mix([(HALF, noise_box()), (HALF, signalling_box())])


def test_joint_table_invariants_enforced():
    pair = LabelSet(("0", "1"))
    with pytest.raises(InvalidJointTable):
        JointTable(
            (("A", pair),),
            (parse_scalar("-1/2"), parse_scalar("3/2")),
        )
    with pytest.raises(InvalidJointTable):
        JointTable((("A", pair),), (HALF, HALF + HALF))


_BITS = LabelSet(("0", "1"))


@pytest.mark.parametrize(
    "variables, table, error, message",
    [
        (
            (("A", _BITS), ("A", _BITS)),
            (HALF, ZERO, ZERO, HALF),
            InvalidJointTable,
            "duplicate variable names in ['A', 'A']",
        ),
        ((), (ONE,), InvalidJointTable, "joint table needs at least one variable"),
        ((("A", _BITS),), (ONE,), InvalidJointTable, "table has 1 entries, expected 2"),
        ((("A", _BITS),), (1, 0), TypeError, "table entries must be Scalar, got int"),
        ((("A", _BITS),), (HALF, Fraction(1, 2)), TypeError, "table entries must be Scalar, got Fraction"),
    ],
    ids=["duplicate-names", "no-variables", "wrong-length", "int-entries", "fraction-entry"],
)
def test_joint_table_refusals(variables, table, error, message):
    with pytest.raises(error) as refusal:
        JointTable(variables, table)
    assert str(refusal.value) == message


def test_joint_table_value_reads_the_row_major_cell():
    joint = JointTable(
        (("A", _BITS), ("T", LabelSet(("t0", "t1", "t2")))),
        tuple(parse_scalar(text) for text in ("0", "1/8", "1/8", "1/4", "1/4", "1/4")),
    )
    assert joint.value(("0", "t1")) == parse_scalar("1/8")
    assert joint.value(("1", "t0")) == parse_scalar("1/4")
    assert [joint.value(assignment) for assignment in joint.assignments()] == list(joint.table)
    with pytest.raises(UnknownOutcome, match="^variable T has no value 't3'$"):
        joint.value(("0", "t3"))


@pytest.mark.parametrize("assignment", [("1",), ("1", "0", "0")], ids=["short", "long"])
def test_joint_table_value_refuses_an_assignment_of_the_wrong_length(assignment):
    # Zipped with the variables, ("1",) would read the cell A=0, B=1 and
    # ("1", "0", "0") the cell A=1, B=0.
    joint = JointTable(
        (("A", _BITS), ("B", _BITS)), tuple(parse_scalar(text) for text in ("0", "1/6", "1/3", "1/2"))
    )
    with pytest.raises(ValueError) as refusal:
        joint.value(assignment)
    assert str(refusal.value) == f"assignment has {len(assignment)} values for 2 variables"


def _product_joint() -> JointTable:
    setting = LabelSet(("0", "1"))
    data = LabelSet(("t0", "t1", "t2"))
    p_a = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
    p_t = {"t0": Fraction(1, 2), "t1": Fraction(1, 3), "t2": Fraction(1, 6)}
    return JointTable.from_function(
        (("A", setting), ("T", data)),
        lambda a, t: Scalar(p_a[a] * p_t[t]),
    )


def test_check_product_accepts_product_table():
    ok, witness = check_product(_product_joint(), ("A",), ("T",))
    assert ok and witness is None


def test_check_product_rejects_correlated_bits():
    bits = LabelSet(("0", "1"))
    correlated = JointTable.from_function(
        (("L", bits), ("R", bits)),
        lambda l, r: HALF if l == r else ZERO,
    )
    ok, witness = check_product(correlated, ("L",), ("R",))
    assert not ok
    assert witness.assignment == (("L", "0"), ("R", "0"))
    assert witness.joint_value == HALF
    assert witness.left_value * witness.right_value == parse_scalar("1/4")


def test_check_product_bad_partitions():
    joint = _product_joint()
    with pytest.raises(BadPartition):
        check_product(joint, ("A",), ("A", "T"))
    with pytest.raises(BadPartition):
        check_product(joint, ("A",), ())
    with pytest.raises(BadPartition):
        check_product(joint, ("A",), ("Z",))
    with pytest.raises(BadPartition):
        check_product(joint, ("A",), ("T", "T"))


def test_deterministic_behavior_unit_rows():
    sa, sb, ox, oy = CHSH_SPACES
    box = deterministic_behavior(sa, sb, ox, oy, ("+1", "-1"), ("-1", "-1"))
    assert box.p("0", "1", "+1", "-1") == ONE
    assert box.p("2", "3", "-1", "-1") == ONE
    assert validate_behavior(box).ok
    assert is_no_signalling(box)[0]


def test_deterministic_behavior_cells_and_refusals_on_asymmetric_spaces():
    sa, sb, ox, oy = SMALL_SPACES
    for spaces in (SMALL_SPACES, (sb, sa, oy, ox)):
        for outputs_a in product(spaces[2].labels, repeat=len(spaces[0])):
            for outputs_b in product(spaces[3].labels, repeat=len(spaces[1])):
                box = deterministic_behavior(*spaces, outputs_a, outputs_b)
                fa, fb = dict(zip(spaces[0], outputs_a)), dict(zip(spaces[1], outputs_b))
                for (a, b, x, y), value in box.cells():
                    assert value == (ONE if (x == fa[a] and y == fb[b]) else ZERO)
    with pytest.raises(UnknownOutcome):
        deterministic_behavior(sa, sb, ox, oy, ("x0", "y0"), ("y0",))
    with pytest.raises(UnknownOutcome):
        deterministic_behavior(sa, sb, ox, oy, ("x0", "x1"), ("x0",))
    with pytest.raises(ValueError):
        deterministic_behavior(sa, sb, ox, oy, ("x0",), ("y0",))
    with pytest.raises(ValueError):
        deterministic_behavior(sa, sb, ox, oy, ("x0", "x1"), ("y0", "y1"))


def test_a_label_set_contains_exactly_its_labels():
    labels = LabelSet(("0", "1"))
    assert "0" in labels and "1" in labels
    assert "2" not in labels and 0 not in labels


def test_degenerate_single_setting_spaces_allowed():
    one = LabelSet(("only",))
    two = LabelSet(("0", "1"))
    box = uniform_behavior(one, one, two, two)
    assert validate_behavior(box).ok
    assert is_no_signalling(box) == (True, None)


@given(valid_behaviors())
@settings(max_examples=60)
def test_marginal_consistency(box):
    for a in box.settings_a:
        for b in box.settings_b:
            for side in ("alice", "bob"):
                total = ZERO
                for value in marginal(box, side, (a, b)).values():
                    total = total + value
                assert total == ONE


@given(ns_behaviors(spaces=CHSH_SPACES), ns_behaviors(spaces=CHSH_SPACES))
@settings(max_examples=40)
def test_mixture_closure_of_no_signalling(b1, b2):
    # the engine behind: signalling boxes admit no local model
    assert is_no_signalling(b1)[0] and is_no_signalling(b2)[0]
    mixed = mix([(parse_scalar("1/3"), b1), (parse_scalar("2/3"), b2)])
    assert is_no_signalling(mixed)[0]


@given(valid_behaviors(spaces=CHSH_SPACES), valid_behaviors(spaces=CHSH_SPACES))
@settings(max_examples=40)
def test_marginal_of_mix_is_mix_of_marginals(b1, b2):
    w = parse_scalar("1/4")
    mixed = mix([(w, b1), (ONE - w, b2)])
    for a in b1.settings_a:
        for b in b1.settings_b:
            m1 = marginal(b1, "alice", (a, b))
            m2 = marginal(b2, "alice", (a, b))
            mm = marginal(mixed, "alice", (a, b))
            for x in b1.outcomes_x:
                assert mm[x] == w * m1[x] + (ONE - w) * m2[x]


@given(valid_behaviors())
@settings(max_examples=60)
def test_ns_witness_is_self_validating(box):
    ok, witness = is_no_signalling(box)
    assert ok == (witness is None)
    if witness is not None:
        assert witness.value_reference != witness.value_other


@given(valid_behaviors())
@settings(max_examples=60)
def test_validate_accepts_exactly_the_invariant_holders(box):
    assert validate_behavior(box).ok
    broken = _tweak(box, 0, box.table[0] + ONE)  # breaks normalization
    assert not validate_behavior(broken).ok
    negated = _tweak(box, 0, box.table[0] - ONE)  # negative cell
    assert not validate_behavior(negated).ok


@pytest.mark.parametrize("make", [table1_box, lambda: _tweak(table1_box(), 0, parse_scalar("-1/8"))])
def test_validate_behavior_returns_one_report_per_box(make):
    box = make()
    report = validate_behavior(box)
    assert (report.summary() == "valid") == report.ok
    assert validate_behavior(box) is report
    twin = make()
    assert twin == box and twin is not box
    assert validate_behavior(twin) == report
