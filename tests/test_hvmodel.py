"""Hidden-variable models: reconstruction, locality, triviality, guessing,
extension folding and the first-mover joint."""

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvlab.hvmodel
import reference_scenario as reference
from helpers import (
    CHSH_SPACES,
    SMALL_SPACES,
    label_sets,
    local_models,
    ns_behaviors,
    random_local_model,
    spaces_strategy,
    valid_behaviors,
)
from hvlab.boxes import (
    Behavior,
    LabelSet,
    check_product,
    deterministic_behavior,
    is_no_signalling,
    marginal,
    mix,
    uniform_behavior,
)
from hvlab.catalog import appendix_a_model, classical_model, pr_box, signalling_box, table1_box
from hvlab.errors import InvalidDistribution, InvalidModel, NotLocal, SizeBudgetExceeded, UnknownSetting
from hvlab.hvmodel import (
    FIRST_MOVER_CELL_BUDGET,
    ExtendedModel,
    HiddenVariableModel,
    WExtension,
    check_locality,
    check_triviality,
    first_mover_joint,
    guessing_probability,
    marginalize_nonlocal,
    nontrivial_weight,
    reconstruct,
    uniform_distribution,
    _check_distribution,
    validate_model,
)
from hvlab.scalar import HALF, ONE, SQRT2, ZERO, Scalar, parse_scalar

SA, SB, OX, OY = CHSH_SPACES


def _signalling_kernel() -> Behavior:
    # Alice's outcome copies whether Bob pressed his first button
    return Behavior.from_function(
        SA, SB, OX, OY, lambda a, b, x, y: ONE if (x == ("+1" if b == "1" else "-1") and y == "+1") else ZERO
    )


def _single_pair(kernel: Behavior) -> HiddenVariableModel:
    return HiddenVariableModel((("u", "v"),), (ONE,), (kernel,))


def test_reconstruct_appendix_a_equals_table1():
    assert reconstruct(appendix_a_model()) == table1_box()


def test_reconstruct_single_pair_is_identity():
    kernel = pr_box()
    assert reconstruct(_single_pair(kernel)) == kernel


def test_reconstruct_classical_model_is_setting_independent_agreement():
    box = reconstruct(classical_model())
    for a in SA:
        for b in SB:
            assert box.p(a, b, "+1", "+1") == HALF
            assert box.p(a, b, "-1", "-1") == HALF
            assert box.p(a, b, "+1", "-1") == ZERO


def test_check_locality_appendix_a():
    assert check_locality(appendix_a_model()) == (True, None)


def _model_with_signalling_pair(weight_of_bad_pair: Scalar) -> HiddenVariableModel:
    alpha = parse_scalar("1/4-1/8*sqrt2")
    return HiddenVariableModel(
        (("good", "good"), ("bad", "bad")),
        (ONE - weight_of_bad_pair, weight_of_bad_pair),
        (pr_box(), _signalling_kernel()),
    )


def test_check_locality_fails_on_signalling_kernel():
    alpha = parse_scalar("1/4-1/8*sqrt2")
    model = _model_with_signalling_pair(alpha)
    local, witness = check_locality(model)
    assert not local
    assert witness.pair == ("bad", "bad")
    assert witness.witness.value_reference != witness.witness.value_other


def test_zero_weight_pairs_are_exempt_from_locality():
    model = _model_with_signalling_pair(ZERO)
    assert check_locality(model) == (True, None)


def test_triviality_appendix_a_nontrivial_with_expected_witness():
    trivial, witness = check_triviality(appendix_a_model())
    assert not trivial
    assert witness.pair == ("+1", "+1")
    assert witness.kernel_value == ONE
    assert witness.model_value == HALF


def test_triviality_of_kernel_equal_to_reconstruction():
    box = table1_box()
    model = HiddenVariableModel(
        (("0", "0"), ("1", "1")),
        (HALF, HALF),
        (box, box),
    )
    assert check_triviality(model) == (True, None)


def test_classical_model_is_nontrivial():
    trivial, witness = check_triviality(classical_model())
    assert not trivial
    assert witness is not None


def test_triviality_and_weight_mix_the_model_once(monkeypatch):
    mixed = []

    def counting_mix(components):
        mixed.append(1)
        return mix(components)

    monkeypatch.setattr(hvlab.hvmodel, "mix", counting_mix)
    model = random_local_model(random.Random(3), CHSH_SPACES)
    check_triviality(model)
    nontrivial_weight(model)
    assert len(mixed) == 1
    # The reconstruction is kept on the model, so every later call reads it.
    assert reconstruct(model) is reconstruct(model) and len(mixed) == 1


def _box(draw, spaces) -> Behavior:
    """A signalling or no-signalling box, one mixed with sqrt2 weights, or
    the uniform box."""
    kind = draw(st.sampled_from(("signalling", "ns", "sqrt2", "uniform")))
    if kind == "signalling":
        return draw(valid_behaviors(spaces=spaces))
    if kind == "ns":
        return draw(ns_behaviors(spaces=spaces))
    if kind == "sqrt2":
        first, second = draw(ns_behaviors(spaces=spaces)), draw(valid_behaviors(spaces=spaces))
        return mix([(SQRT2 / 2, first), (ONE - SQRT2 / 2, second)])
    return uniform_behavior(*spaces)


def _reshuffled(draw, box: Behavior) -> Behavior:
    """A box with the marginals of ``box`` and cells over another
    denominator: each (a, b) block moves t times the least of its top-left
    2x2 cells round that square (+, -, -, +), t rational or sqrt2/2."""
    ny = len(box.outcomes_y)
    table = list(box.table)
    for start in range(0, len(table), len(box.outcomes_x) * ny):
        square = (start, start + 1, start + ny, start + ny + 1)
        shift = draw(st.sampled_from((HALF, ONE / 3, ONE / 5, SQRT2 / 2))) * min(table[i] for i in square)
        for i, sign in zip(square, (1, -1, -1, 1)):
            table[i] = table[i] + shift if sign > 0 else table[i] - shift
    return Behavior(*box.spaces, tuple(table))


def _weights(draw, n: int) -> list[Scalar]:
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [ONE / n] * n if sum(raw) == 0 else [Scalar(value) / sum(raw) for value in raw]


@st.composite
def _triviality_cases(draw):
    """A valid model whose weights mix two rational distributions at sqrt2/2
    (zero weights included), and an optional external reference box.  In
    half the cases every box reshuffles one base box over at least two
    outcomes a side, so equal marginals, sqrt2 parts included, over
    different denominators are common."""
    shared = draw(st.booleans())
    spaces = draw(spaces_strategy())
    if shared:
        spaces = (*spaces[:2], draw(label_sets(2, 3)), draw(label_sets(2, 3)))
    base = _box(draw, spaces)

    def box() -> Behavior:
        return _reshuffled(draw, base) if shared else _box(draw, spaces)

    n = draw(st.integers(1, 3))
    weights = tuple(SQRT2 / 2 * p + (ONE - SQRT2 / 2) * q for p, q in zip(_weights(draw, n), _weights(draw, n)))
    model = HiddenVariableModel(tuple((f"u{i}", "v") for i in range(n)), weights, tuple(box() for _ in range(n)))
    return model, box() if draw(st.booleans()) else None


@given(_triviality_cases())
@settings(max_examples=150, deadline=None)
def test_triviality_matches_the_scalar_loop_reference(case):
    model, against = case

    def witnesses(reference_box):
        found = [(w, reference.triviality_witness(pair, kernel, reference_box)) for pair, w, kernel in model.items()]
        return [(w, witness) for w, witness in found if w.sign() > 0 and witness is not None]

    mixture = mix(zip(model.weights, model.kernels))
    expected = witnesses(against if against is not None else mixture)
    assert check_triviality(model, against=against) == (not expected, expected[0][1] if expected else None)
    assert nontrivial_weight(model) == sum((w for w, _ in witnesses(mixture)), ZERO)


def test_triviality_against_external_box():
    model = _single_pair(table1_box())
    assert check_triviality(model, against=table1_box()) == (True, None)
    skewed = deterministic_behavior(SA, SB, OX, OY, ("+1", "+1"), ("+1", "+1"))
    trivial, witness = check_triviality(model, against=skewed)
    assert not trivial
    assert witness.kernel_value == HALF and witness.model_value == ONE


def test_nontrivial_weight_values():
    assert nontrivial_weight(appendix_a_model()) == parse_scalar("1-1/2*sqrt2")
    assert nontrivial_weight(_single_pair(table1_box())) == ZERO
    assert nontrivial_weight(classical_model()) == ONE


def test_guessing_probability_appendix_a():
    expected = parse_scalar("1-1/4*sqrt2")
    model = appendix_a_model()
    for setting in SA:
        assert guessing_probability(model, "alice", setting) == expected
    for setting in SB:
        assert guessing_probability(model, "bob", setting) == expected


def test_guessing_probability_checks_locality_once_per_model(monkeypatch):
    import hvlab.hvmodel

    checked = []
    original = hvlab.hvmodel.is_no_signalling
    monkeypatch.setattr(hvlab.hvmodel, "is_no_signalling", lambda kernel: checked.append(kernel) or original(kernel))
    model = appendix_a_model()
    expected = parse_scalar("1-1/4*sqrt2")
    for side, settings_ in (("alice", SA), ("bob", SB)):
        for setting in settings_:
            assert guessing_probability(model, side, setting) == expected
    assert len(checked) == sum(weight.sign() > 0 for weight in model.weights)


@given(local_models(spaces=SMALL_SPACES))
@settings(max_examples=25)
def test_guessing_probability_is_the_weighted_best_guess(model):
    sa, sb = model.spaces[0], model.spaces[1]
    for side, settings_ in (("alice", sa), ("bob", sb)):
        for setting in settings_:
            pair = (setting, sb.labels[0]) if side == "alice" else (sa.labels[0], setting)
            expected = ZERO
            for weight, kernel in zip(model.weights, model.kernels):
                if weight.sign() > 0:
                    expected = expected + weight * max(marginal(kernel, side, pair).values())
            assert guessing_probability(model, side, setting) == expected


def test_guessing_probability_refuses_a_nonlocal_model_on_every_call():
    model = HiddenVariableModel((("u", "v"),), (ONE,), (signalling_box(),))
    for _ in range(2):
        with pytest.raises(NotLocal):
            guessing_probability(model, "alice", "0")


@pytest.mark.parametrize(
    "model, setting",
    [
        (appendix_a_model, "0"),
        (appendix_a_model, "1"),
        (lambda: HiddenVariableModel((("u", "v"),), (ONE,), (signalling_box(),)), "0"),
    ],
    ids=["alice-setting", "bob-setting", "nonlocal-model"],
)
def test_guessing_probability_refuses_an_unknown_side_first(model, setting):
    # Neither an Alice setting read as Bob's, nor the locality check, comes first.
    with pytest.raises(ValueError, match=r"^side must be 'alice' or 'bob', got 'carol'$"):
        guessing_probability(model(), "carol", setting)


def test_guessing_probability_trivial_model_is_half():
    model = _single_pair(table1_box())
    assert guessing_probability(model, "alice", "0") == HALF


def test_guessing_probability_classical_model_is_one():
    assert guessing_probability(classical_model(), "bob", "3") == ONE


def test_guessing_probability_requires_locality():
    model = _model_with_signalling_pair(HALF)
    with pytest.raises(NotLocal):
        guessing_probability(model, "alice", "0")


def test_guessing_probability_rejects_unknown_setting_and_side():
    model = appendix_a_model()
    with pytest.raises(UnknownSetting):
        guessing_probability(model, "alice", "1")
    with pytest.raises(UnknownSetting):
        guessing_probability(model, "bob", "0")
    with pytest.raises(ValueError):
        guessing_probability(model, "carol", "1")


def test_validate_model_flags_problems():
    report = validate_model(
        HiddenVariableModel(
            (("u", "v"), ("w", "z")),
            (parse_scalar("3/2"), parse_scalar("-1/2")),
            (pr_box(), pr_box()),
        )
    )
    assert not report.ok
    assert report.problems == ("negative weight -1/2 at pair ('w', 'z')",)


def test_operations_reject_invalid_models():
    bad = HiddenVariableModel((("u", "v"),), (HALF,), (pr_box(),))  # weights sum 1/2
    with pytest.raises(InvalidModel):
        check_locality(bad)
    with pytest.raises(InvalidModel):
        check_triviality(bad)


@pytest.mark.parametrize(
    "weights, kernel, message",
    [
        ((HALF, ONE / 3), pr_box(), "weights sum to 5/6, expected 1"),
        # table1 with P(+1,-1|0,1) = -1/2: mixed half and half with table1,
        # the cell would be -1/8-1/16*sqrt2.
        (
            (HALF, HALF),
            Behavior(SA, SB, OX, OY, table1_box().table[:1] + (-HALF,) + table1_box().table[2:]),
            "kernel at pair ('u', 'v'): negative cell P(+1,-1|0,1) = -1/2; row (0,1) sums to 1/4+1/8*sqrt2",
        ),
    ],
    ids=["weight-sum", "negative-kernel-cell"],
)
def test_reconstruct_refuses_an_invalid_model_with_its_report(weights, kernel, message):
    model = HiddenVariableModel((("u", "v"), ("w", "z")), weights, (kernel, table1_box()))
    with pytest.raises(InvalidModel) as refusal:
        reconstruct(model)
    assert str(refusal.value) == message


# -- extensions ---------------------------------------------------------------


def _w_independent_extension() -> ExtendedModel:
    kernel = table1_box()
    return ExtendedModel(
        (("u", "v"),),
        (ONE,),
        (WExtension(LabelSet(("w0", "w1")), (HALF, HALF), (kernel, kernel)),),
    )


def test_marginalize_w_independent_extension_is_identity():
    base = marginalize_nonlocal(_w_independent_extension())
    assert base.kernels[0] == table1_box()
    assert base.weights == (ONE,)


def test_marginalize_uniform_two_deterministic_kernels():
    agree = deterministic_behavior(SA, SB, OX, OY, ("+1", "+1"), ("+1", "+1"))
    disagree = deterministic_behavior(SA, SB, OX, OY, ("-1", "-1"), ("-1", "-1"))
    extended = ExtendedModel(
        (("u", "v"),),
        (ONE,),
        (WExtension(LabelSet(("0", "1")), (HALF, HALF), (agree, disagree)),),
    )
    folded = marginalize_nonlocal(extended)
    assert folded.kernels[0] == mix([(HALF, agree), (HALF, disagree)])


def _pr_from_signalling_extension() -> ExtendedModel:
    def sign(a: str, b: str) -> int:
        return -1 if (a, b) == ("0", "3") else 1

    def branch(which: int) -> Behavior:
        def cell(a, b, x, y):
            xv = "+1" if which == 0 else "-1"
            s = sign(a, b) if which == 0 else -sign(a, b)
            yv = "+1" if s > 0 else "-1"
            return ONE if (x == xv and y == yv) else ZERO

        return Behavior.from_function(SA, SB, OX, OY, cell)

    return ExtendedModel(
        (("0", "0"),),
        (ONE,),
        (WExtension(LabelSet(("0", "1")), (HALF, HALF), (branch(0), branch(1))),),
    )


def test_marginalize_signalling_branches_into_pr_box():
    extended = _pr_from_signalling_extension()
    for kernel in extended.extensions[0].kernels:
        assert not is_no_signalling(kernel)[0]  # each branch signals
    folded = marginalize_nonlocal(extended)
    assert folded.kernels[0] == pr_box()
    assert check_locality(folded) == (True, None)


_FOLD_FIRST = "extended model: fold its w_extension into pair kernels first with marginalize_nonlocal"

# Each library call that reads a model's pair kernels, and the fold itself.
_MODEL_CALLS = {
    "check_locality": check_locality,
    "check_triviality": check_triviality,
    "nontrivial_weight": nontrivial_weight,
    "guessing_probability": lambda model: guessing_probability(model, "alice", "0"),
    "first_mover_joint": lambda model: first_mover_joint(model, uniform_distribution(SA), uniform_distribution(SB)),
    "reconstruct": reconstruct,
    "marginalize_nonlocal": marginalize_nonlocal,
}


@pytest.mark.parametrize("call", _MODEL_CALLS.values(), ids=_MODEL_CALLS)
def test_only_the_fold_takes_an_extended_model_and_it_keeps_a_plain_one(call):
    # Each w-level kernel signals, and the pair kernel they fold into is the PR box.
    extended = _pr_from_signalling_extension()
    plain = HiddenVariableModel((("0", "0"),), (ONE,), (pr_box(),))
    if call is marginalize_nonlocal:
        assert marginalize_nonlocal(plain) is plain
        assert marginalize_nonlocal(extended) == plain
    else:
        with pytest.raises(InvalidModel) as refusal:
            call(extended)
        assert str(refusal.value) == _FOLD_FIRST
        assert call(marginalize_nonlocal(extended)) == call(plain)


def test_marginalize_rejects_bad_w_weights():
    kernel = table1_box()
    extended = ExtendedModel(
        (("u", "v"),),
        (ONE,),
        (WExtension(LabelSet(("w0", "w1")), (HALF, HALF + ONE), (kernel, kernel)),),
    )
    with pytest.raises(InvalidModel):
        marginalize_nonlocal(extended)


# -- first mover --------------------------------------------------------------


def test_first_mover_appendix_a_product_holds():
    model = appendix_a_model()
    joint = first_mover_joint(model, uniform_distribution(SA), uniform_distribution(SB))
    assert joint.names == ("A", "B", "U", "V", "X")
    ok, witness = check_product(joint, ("B",), ("X", "A", "U", "V"))
    assert ok and witness is None


def test_first_mover_detects_signalling_kernel():
    model = _model_with_signalling_pair(HALF)
    joint = first_mover_joint(model, uniform_distribution(SA), uniform_distribution(SB))
    ok, witness = check_product(joint, ("B",), ("X", "A", "U", "V"))
    assert not ok
    assert witness.joint_value != witness.left_value * witness.right_value


def test_first_mover_point_mass_on_b_is_trivially_product():
    model = _model_with_signalling_pair(HALF)  # even a non-local model
    point_mass = {"1": ONE, "3": ZERO}
    joint = first_mover_joint(model, uniform_distribution(SA), point_mass)
    ok, _ = check_product(joint, ("B",), ("X", "A", "U", "V"))
    assert ok


def test_first_mover_rejects_bad_distribution():
    model = appendix_a_model()
    with pytest.raises(InvalidDistribution):
        first_mover_joint(model, {"0": ONE}, uniform_distribution(SB))
    with pytest.raises(InvalidDistribution):
        first_mover_joint(model, {"0": ONE, "2": ONE}, uniform_distribution(SB))


def _distinct_pairs_model(n: int) -> HiddenVariableModel:
    """n hidden pairs of distinct labels on CHSH spaces: a first-mover
    table of 2 * 2 * n * n * 2 cells."""
    kernel = uniform_behavior(*CHSH_SPACES)
    return HiddenVariableModel(tuple((f"u{i}", f"v{i}") for i in range(n)), (ONE / n,) * n, (kernel,) * n)


def test_first_mover_refuses_past_the_cell_budget_before_building_anything(monkeypatch):
    def unreachable(*args):
        raise AssertionError("first_mover_joint went past the budget check")

    monkeypatch.setattr(hvlab.hvmodel, "require_valid_model", unreachable)
    monkeypatch.setattr(hvlab.hvmodel, "JointTable", unreachable)
    inside = isqrt(FIRST_MOVER_CELL_BUDGET // 8)
    cells = 8 * (inside + 1) ** 2
    with pytest.raises(SizeBudgetExceeded, match=f"{cells} cells exceed the budget of {FIRST_MOVER_CELL_BUDGET}"):
        first_mover_joint(_distinct_pairs_model(inside + 1), uniform_distribution(SA), uniform_distribution(SB))
    # The largest such model within the budget gets past the check.
    with pytest.raises(AssertionError, match="past the budget check"):
        first_mover_joint(_distinct_pairs_model(inside), uniform_distribution(SA), uniform_distribution(SB))


def test_first_mover_cells_are_the_product_of_their_factors():
    # Pairs share u and v labels, one has weight 0, the weights and Alice's
    # distribution carry sqrt2 parts, so do the last kernel's marginals, and
    # the signalling kernel's Alice marginal moves with b.
    tilt = SQRT2 / 8
    weights = (ONE / 2 - tilt, ZERO, ONE / 4 + tilt, ONE / 4)
    pairs = (("u0", "v0"), ("u0", "v1"), ("u1", "v1"), ("u2", "v0"))
    vertex = deterministic_behavior(SA, SB, OX, OY, ("+1", "-1"), ("+1", "+1"))
    tilted = mix([(2 * tilt, vertex), (ONE - 2 * tilt, uniform_behavior(SA, SB, OX, OY))])
    kernels = (table1_box(), pr_box(), _signalling_kernel(), tilted)
    model = HiddenVariableModel(pairs, weights, kernels)
    p_a, p_b = {"0": ONE / 2 + tilt, "2": ONE / 2 - tilt}, {"1": ONE / 3, "3": 2 * ONE / 3}
    joint = first_mover_joint(model, p_a, p_b)
    factors = {pair: (weight, kernel) for pair, weight, kernel in model.items()}
    for assignment, value in zip(joint.assignments(), joint.table):
        a, b, u, v, x = assignment
        weight, kernel = factors.get((u, v), (ZERO, None))
        expected = ZERO if kernel is None else p_a[a] * p_b[b] * weight * marginal(kernel, "alice", (a, b))[x]
        assert value == expected, assignment


def _bad_kernel() -> Behavior:
    """table1 with its first cell set to -1/8."""
    return Behavior(SA, SB, OX, OY, (parse_scalar("-1/8"),) + table1_box().table[1:])


def _other_spaces_box() -> Behavior:
    return uniform_behavior(SA, SB, OX, LabelSet(("0", "1", "2")))


def test_a_model_report_lists_every_problem():
    weights = (parse_scalar("-1/2"), parse_scalar("-1/2*sqrt2"), parse_scalar("2"))
    model = HiddenVariableModel((("u", "v"), ("w", "z"), ("s", "t")), weights, (pr_box(), _bad_kernel(), pr_box()))
    assert validate_model(model).summary() == (
        "negative weight -1/2 at pair ('u', 'v'); negative weight -1/2*sqrt2 at pair ('w', 'z'); "
        "weights sum to 3/2-1/2*sqrt2, expected 1; "
        "kernel at pair ('w', 'z'): negative cell P(+1,+1|0,1) = -1/8; row (0,1) sums to 5/8-1/8*sqrt2"
    )


def test_an_extended_model_lists_every_problem_by_pair_and_w():
    extensions = (
        WExtension(LabelSet(("w0", "w1")), (HALF, HALF), (pr_box(), _bad_kernel())),
        WExtension(LabelSet(("x", "y")), (parse_scalar("-1/2*sqrt2"), ONE), (pr_box(), pr_box())),
    )
    model = ExtendedModel((("u", "v"), ("w", "z")), (parse_scalar("3/2"), parse_scalar("-1/4")), extensions)
    assert validate_model(model).problems == (
        "negative weight -1/4 at pair ('w', 'z')",
        "pair weights sum to 5/4, expected 1",
        "kernel at pair ('u', 'v'), w=w1: negative cell P(+1,+1|0,1) = -1/8; row (0,1) sums to 5/8-1/8*sqrt2",
        "negative weight -1/2*sqrt2 for w=x at pair ('w', 'z')",
        "w weights at pair ('w', 'z') sum to 1-1/2*sqrt2, expected 1",
    )


def _one_w(*kernels) -> tuple[WExtension, ...]:
    return tuple(WExtension(LabelSet(("w",)), (ONE,), (kernel,)) for kernel in kernels)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HiddenVariableModel((), (), ()), "model needs at least one hidden pair"),
        (lambda: ExtendedModel((), (), ()), "model needs at least one hidden pair"),
        (lambda: HiddenVariableModel((("u", "v"),), (ONE, HALF), (pr_box(),)), "pairs, weights and kernels must align"),
        (lambda: ExtendedModel((("u", "v"),), (ONE,), ()), "pairs, weights and extensions must align"),
        (lambda: HiddenVariableModel(((0, 1), ("0", "1")), (HALF, HALF), (pr_box(),) * 2), "duplicate hidden pairs"),
        (lambda: ExtendedModel(((0, 1), ("0", "1")), (HALF, HALF), _one_w(pr_box(), pr_box())), "duplicate hidden pairs"),
        (
            lambda: HiddenVariableModel((("u", "v"), ("w", "z")), (HALF, HALF), (pr_box(), _other_spaces_box())),
            "kernels must share one set of spaces",
        ),
        (
            lambda: ExtendedModel(
                (("u", "v"),), (ONE,), (WExtension(LabelSet(("0", "1")), (HALF, HALF), (pr_box(), _other_spaces_box())),)
            ),
            "kernels must share one set of spaces",
        ),
    ],
    ids=["empty", "extended-empty", "misaligned", "extended-misaligned", "pair-twice", "extended-pair-twice",
         "mixed-spaces", "extended-mixed-w-spaces"],
)
def test_every_model_structure_refusal_has_its_message(build, message):
    with pytest.raises(InvalidModel) as refusal:
        build()
    assert str(refusal.value) == message


def test_a_model_reads_its_weights_and_labels_as_given():
    model = HiddenVariableModel([(0, 1)], ["1"], [pr_box()])
    assert (model.pairs, model.weights, model.kernels) == ((("0", "1"),), (ONE,), (pr_box(),))
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a scalar"):
        HiddenVariableModel((("u", "v"),), (0.5,), (pr_box(),))


_SETTINGS = LabelSet(("0", "1", "2"))


@pytest.mark.parametrize(
    "dist, error, message",
    [
        ({"0": ONE, "1": -ONE / 2, "2": 0.5}, InvalidDistribution, "p has negative weight at '1'"),
        ({"0": 0.5, "1": -ONE / 2, "2": ONE}, TypeError, "cannot interpret 0.5 as a scalar"),
        ({"0": ONE, "1": "1/2*sqrt2", "2": 0}, InvalidDistribution, "p sums to 1+1/2*sqrt2, expected 1"),
        ({"0": ONE, "1": ONE}, InvalidDistribution, "p must assign a weight to exactly the settings ('0', '1', '2')"),
    ],
    ids=["negative-before-unreadable", "unreadable-before-negative", "sum", "keys"],
)
def test_every_setting_distribution_refusal_has_its_message(dist, error, message):
    with pytest.raises(error) as refusal:
        _check_distribution(dist, _SETTINGS, "p")
    assert str(refusal.value) == message


def test_a_setting_distribution_is_read_in_the_order_of_its_settings():
    # Neither the mapping's order nor the sorted one.
    dist = _check_distribution({"2": "1/2*sqrt2", "0": 0, "1": ONE - SQRT2 / 2}, LabelSet(("1", "2", "0")), "p")
    assert list(dist.items()) == [("1", ONE - SQRT2 / 2), ("2", SQRT2 / 2), ("0", ZERO)]


# -- properties ----------------------------------------------------------------


@given(local_models(spaces=CHSH_SPACES))
@settings(max_examples=40)
def test_ns_closure_reconstruction_of_local_models(model):
    assert check_locality(model)[0]
    assert is_no_signalling(reconstruct(model))[0]


def test_ns_closure_contrapositive_signalling_box_has_no_local_model():
    # any model reconstructing a signalling box must itself fail locality
    box = signalling_box()
    model = HiddenVariableModel((("u", "v"),), (ONE,), (box,))
    assert reconstruct(model) == box
    assert not check_locality(model)[0]


@given(local_models(spaces=SMALL_SPACES))
@settings(max_examples=25)
def test_trivial_models_are_uninformative(model):
    trivial, _ = check_triviality(model)
    if not trivial:
        return
    box = reconstruct(model)
    sa, sb = model.spaces[0], model.spaces[1]
    for side, settings_ in (("alice", sa), ("bob", sb)):
        for setting in settings_:
            pair = (setting, sb.labels[0]) if side == "alice" else (sa.labels[0], setting)
            best = max(marginal(box, side, pair).values())
            assert guessing_probability(model, side, setting) == best


@given(local_models(spaces=CHSH_SPACES))
@settings(max_examples=20)
def test_freedom_link_locality_implies_first_mover_product(model):
    rng = random.Random(hash(model.weights) & 0xFFFF)
    from helpers import rational_distribution

    p_a = dict(zip(model.spaces[0].labels, map(Scalar, rational_distribution(rng, len(model.spaces[0])))))
    p_b = dict(zip(model.spaces[1].labels, map(Scalar, rational_distribution(rng, len(model.spaces[1])))))
    joint = first_mover_joint(model, p_a, p_b)
    ok, _ = check_product(joint, ("B",), ("X", "A", "U", "V"))
    assert ok


@given(local_models())
@settings(max_examples=40)
def test_nontrivial_weight_zero_iff_trivial(model):
    trivial, _ = check_triviality(model)
    assert (nontrivial_weight(model) == ZERO) == trivial


def test_reconstruct_commutes_with_marginalize():
    rng = random.Random(7)
    from helpers import random_ns_behavior, rational_distribution

    pairs = (("u0", "v0"), ("u1", "v1"))
    weights = tuple(Scalar(f) for f in rational_distribution(rng, 2))
    extensions = []
    for _ in pairs:
        w_weights = rational_distribution(rng, 3)
        kernels = tuple(random_ns_behavior(rng, CHSH_SPACES) for _ in range(3))
        extensions.append(WExtension(LabelSet(("w0", "w1", "w2")), tuple(map(Scalar, w_weights)), kernels))
    extended = ExtendedModel(pairs, weights, tuple(extensions))
    folded = marginalize_nonlocal(extended)
    direct = reconstruct(folded)
    # doubly-weighted mixture over (pair, w)
    components = []
    for weight, extension in zip(extended.weights, extended.extensions):
        for w_weight, kernel in zip(extension.weights, extension.kernels):
            components.append((weight * w_weight, kernel))
    assert direct == mix(components)


@pytest.mark.parametrize("outcomes_x", [("+", "-"), ("+1", "-1", "0")])
def test_triviality_against_box_with_other_spaces_raises(outcomes_x):
    from hvlab.boxes import uniform_behavior
    from hvlab.errors import SpaceMismatch

    other = uniform_behavior(SA, SB, LabelSet(outcomes_x), OY)
    with pytest.raises(SpaceMismatch):
        check_triviality(appendix_a_model(), against=other)


def test_triviality_against_invalid_box_raises():
    from hvlab.errors import InvalidBehavior

    broken = Behavior(SA, SB, OX, OY, (parse_scalar("2"),) + table1_box().table[1:])
    with pytest.raises(InvalidBehavior):
        check_triviality(appendix_a_model(), against=broken)


def _invalid_model() -> HiddenVariableModel:
    return HiddenVariableModel((("u", "v"),), (HALF,), (pr_box(),))


@pytest.mark.parametrize("make", [appendix_a_model, _invalid_model])
def test_validate_model_returns_one_report_per_model(make):
    model = make()
    report = validate_model(model)
    assert (report.summary() == "valid") == report.ok
    assert validate_model(model) is report
    twin = make()
    assert twin == model and twin is not model
    assert validate_model(twin) == report


@pytest.mark.parametrize("valid", [True, False])
def test_validate_extended_model_gives_equal_problem_lists(valid):
    def make() -> ExtendedModel:
        weights = (HALF, HALF) if valid else (HALF, parse_scalar("-1/2"))
        kernels = (pr_box(), table1_box())
        return ExtendedModel((("u", "v"),), (ONE,), (WExtension(LabelSet(("w0", "w1")), weights, kernels),))

    model = make()
    problems = validate_model(model).problems
    assert (problems == ()) == valid
    with pytest.raises(AttributeError):
        problems.append("edited by the caller")
    assert validate_model(model).problems == validate_model(make()).problems == problems


def test_concurrent_validation_stores_equal_reports():
    import sys
    import threading

    model = appendix_a_model()
    workers = 8
    results = []
    barrier = threading.Barrier(workers)

    def validate():
        barrier.wait(timeout=30)
        results.append(validate_model(model))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=validate) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers
    assert all(report.ok and report == results[0] for report in results)
    assert any(validate_model(model) is report for report in results)
