"""What a box keeps about itself: its int view, its validity report and
its no-signalling verdict, each built by ``hvlab.boxes`` from the box's
own table.  No caller can hand a view in, so no call can make an invalid
box read as valid, and ``marginal`` summed over the view gives the
Scalar-loop reference's distributions."""

from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvlab.boxes
import reference_scenario as reference
from helpers import ns_behaviors, scalars, spaces_strategy, valid_behaviors
from hvlab.bell import chsh, evaluate
from hvlab.boxes import Behavior, is_no_signalling, marginal, mix, validate_behavior
from hvlab.catalog import pr_box, signalling_box, table1_box
from hvlab.decompose import max_local_content, verify_decomposition
from hvlab.errors import InvalidBehavior, InvalidModel, UnknownSetting
from hvlab.hvmodel import HiddenVariableModel, check_locality, check_triviality
from hvlab.scalar import ONE, SQRT2, _common_denominator

# -- no view from outside ------------------------------------------------------


def _all_ones() -> Behavior:
    """Every cell 1 on the CHSH spaces: each (a, b) row sums to 4."""
    return Behavior(*table1_box().spaces, (ONE,) * 16)


@pytest.mark.parametrize("check", [validate_behavior, is_no_signalling], ids=["validate", "no-signalling"])
def test_a_caller_cannot_hand_in_a_view(check):
    with pytest.raises(TypeError):
        check(_all_ones(), view=_common_denominator(table1_box().table))


def test_the_all_ones_table_stays_invalid_after_every_public_call():
    bad = _all_ones()
    valid_view = _common_denominator(table1_box().table)
    a, b = bad.settings_a.labels[0], bad.settings_b.labels[0]
    calls = [
        lambda: validate_behavior(bad, view=valid_view),
        lambda: is_no_signalling(bad, view=valid_view),
        lambda: validate_behavior(bad),
        lambda: is_no_signalling(bad),
        lambda: marginal(bad, "alice", (a, b)),
        lambda: evaluate(chsh(), bad),
        lambda: max_local_content(bad),
        lambda: verify_decomposition(max_local_content(table1_box()), bad),
        lambda: check_locality(HiddenVariableModel(((a, b),), (ONE,), (bad,))),
        lambda: check_triviality(HiddenVariableModel(((a, b),), (ONE,), (pr_box(),)), against=bad),
    ]
    for call in calls:
        with suppress(TypeError, InvalidBehavior, InvalidModel):
            call()
        assert not validate_behavior(bad).ok
    assert validate_behavior(bad).summary() == "; ".join(
        f"row ({a},{b}) sums to 4" for a in bad.settings_a for b in bad.settings_b
    )


def test_the_local_content_of_the_all_ones_table_is_refused():
    bad = _all_ones()
    with suppress(TypeError):
        validate_behavior(bad, view=_common_denominator(table1_box().table))
    with pytest.raises(InvalidBehavior):
        max_local_content(bad)


def test_a_box_builds_its_view_once_from_its_own_table():
    box, int_view = table1_box(), hvlab.boxes._int_view
    view = int_view(box)
    assert int_view(box) is view
    ps, qs, den = _common_denominator(box.table)
    assert view == (tuple(ps), tuple(qs), den)
    # An equal box built separately builds its own, equal view.
    twin = Behavior(*box.spaces, box.table)
    assert int_view(twin) == view and int_view(twin) is not view


@pytest.mark.parametrize(
    "make", [table1_box, pr_box, signalling_box, _all_ones], ids=["table1", "pr", "signalling", "invalid"]
)
def test_the_no_signalling_verdict_is_kept_only_for_a_valid_box(make):
    box = make()
    if not validate_behavior(box).ok:
        for _ in range(3):
            with pytest.raises(InvalidBehavior, match="row"):
                is_no_signalling(box)
            assert getattr(box, "_ns", None) is None
        return
    verdict = is_no_signalling(box)
    assert is_no_signalling(box) is verdict
    assert is_no_signalling(box) == verdict == reference.marginal_is_no_signalling(Behavior(*box.spaces, box.table))


# -- marginal over the view ----------------------------------------------------


@st.composite
def _tables(draw):
    """A valid box, a no-signalling box mixed at weight sqrt2/2 with
    another (sqrt2 cells), or arbitrary cells (generically invalid)."""
    spaces = draw(spaces_strategy())
    kind = draw(st.sampled_from(("valid", "sqrt2", "cells")))
    if kind == "valid":
        return draw(valid_behaviors(spaces=spaces))
    if kind == "sqrt2":
        first, second = draw(ns_behaviors(spaces=spaces)), draw(valid_behaviors(spaces=spaces))
        return mix([(SQRT2 / 2, first), (ONE - SQRT2 / 2, second)])
    size = len(spaces[0]) * len(spaces[1]) * len(spaces[2]) * len(spaces[3])
    return Behavior(*spaces, tuple(draw(scalars) for _ in range(size)))


@given(_tables())
@settings(max_examples=200, deadline=None)
def test_marginal_matches_the_scalar_loop_reference(box):
    for side in ("alice", "bob"):
        for a in box.settings_a:
            for b in box.settings_b:
                got, expected = marginal(box, side, (a, b)), reference.marginal(box, side, (a, b))
                # Same labels in the same order, and the same canonical Scalars.
                assert [(label, value._v) for label, value in got.items()] == [
                    (label, value._v) for label, value in expected.items()
                ]


@pytest.mark.parametrize(
    "side, settings, error",
    [("alice", ("9", "1"), UnknownSetting), ("carol", ("9", "1"), UnknownSetting), ("carol", ("0", "1"), ValueError)],
)
def test_marginal_refuses_as_the_reference_does(side, settings, error):
    for fn in (marginal, reference.marginal):
        with pytest.raises(error):
            fn(table1_box(), side, settings)
