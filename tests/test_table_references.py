"""Mixing, product checks, number text and file writing in ints, against
the Scalar loops they replaced (``reference_scenario``)."""

import json
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scenario as reference
from helpers import CHSH_SPACES, local_models, scalars, spaces_strategy, valid_behaviors
from hvlab.bell import BellExpression
from hvlab.boxes import Behavior, JointTable, LabelSet, check_product, mix
from hvlab.catalog import entries, table1_box
from hvlab.decompose import decomposition_to_model, max_local_content
from hvlab.errors import HvlabError, OversizedScalar
from hvlab.formats import save_box, save_expression, save_model
from hvlab.hvmodel import ExtendedModel, WExtension, first_mover_joint, uniform_distribution
from hvlab.scalar import ONE, SQRT2, ZERO, Scalar, format_scalar, parse_scalar

# The interpreter's int-to-str digit limit; 0 where there is none.
STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not STR_DIGITS, reason="this interpreter converts ints of any length")


def _outcome(function, *args):
    """The function's result, or the type and message of the HvlabError it raised."""
    try:
        return function(*args)
    except HvlabError as exc:
        return type(exc), str(exc)


# -- format_scalar ----------------------------------------------------------


@st.composite
def triples(draw):
    """A canonical Scalar from ints: big, negative or zero parts, often a
    denominator that shares a factor with only one of them."""
    ints = st.one_of(st.integers(-9, 9), st.integers(-(10**60), 10**60))
    factor = draw(st.sampled_from([1, 2, 3, 6, 10**20 + 39]))
    d = factor * draw(st.integers(1, 10**30))
    p = draw(st.one_of(st.just(0), ints)) * draw(st.sampled_from([1, factor]))
    q = draw(st.one_of(st.just(0), ints)) * draw(st.sampled_from([1, factor]))
    return Scalar(Fraction(p, d), Fraction(q, d))


@given(triples())
def test_format_scalar_matches_the_fraction_reference(value):
    text = format_scalar(value)
    assert text == reference.format_scalar(value)
    assert parse_scalar(text) == value


@pytest.mark.parametrize(
    "value, text",
    [
        (ZERO, "0"),
        (Scalar(Fraction(-6, 4)), "-3/2"),
        (Scalar(0, Fraction(-2, 6)), "-1/3*sqrt2"),
        (Scalar(Fraction(2, 6), Fraction(1, 6)), "1/3+1/6*sqrt2"),
        (Scalar(Fraction(1, 6), Fraction(-4, 6)), "1/6-2/3*sqrt2"),
        (Scalar(-(10**50), 10**50), f"-{10**50}+{10**50}*sqrt2"),
    ],
)
def test_format_scalar_reduces_each_part_on_its_own(value, text):
    assert format_scalar(value) == reference.format_scalar(value) == text


@needs_digit_limit
@pytest.mark.parametrize(
    "value",
    [
        Scalar(Fraction(1, 10 ** (STR_DIGITS + 5))),
        Scalar(1, 10 ** (STR_DIGITS + 5)),
        Scalar(0, Fraction(-1, 3 * 10 ** (STR_DIGITS + 5))),
    ],
)
def test_a_number_past_the_digit_limit_is_a_classified_error(value):
    with pytest.raises(OversizedScalar, match=f"limit {STR_DIGITS} digits"):
        format_scalar(value)


@needs_digit_limit
def test_saving_a_box_past_the_digit_limit_writes_nothing(tmp_path):
    small = Scalar(Fraction(1, 10 ** (STR_DIGITS + 5)))
    box = mix([(small, table1_box()), (ONE - small, entries()["pr-box"].value)])
    path = tmp_path / "long.box.json"
    with pytest.raises(OversizedScalar):
        save_box(box, path)
    assert not path.exists()


# -- mix ----------------------------------------------------------------------


# Cells for mixture components: rational, sqrt2-only, mixed and negative
# values over several denominators, drawn from a list so that a failing
# example shrinks quickly.
_CELLS = tuple(
    Scalar(Fraction(p, d), Fraction(q, d))
    for d in (1, 2, 3, 4, 7, 8)
    for p in range(-2, 4)
    for q in (-1, 0, 1)
)


@st.composite
def mixtures(draw):
    """Components of any cells on one set of spaces (now and then one on
    other spaces), weighted by a distribution, by one with a sqrt2 weight,
    or by free weights, any of which may be zero or negative."""
    spaces = draw(spaces_strategy())
    size = len(spaces[0]) * len(spaces[1]) * len(spaces[2]) * len(spaces[3])
    count = draw(st.integers(1, 4))
    tables = st.lists(st.sampled_from(_CELLS), min_size=size, max_size=size)
    boxes = [Behavior(*spaces, tuple(draw(tables))) for _ in range(count)]
    kind = draw(st.sampled_from(["distribution", "sqrt2", "free"]))
    if kind == "free":
        weights = [draw(st.one_of(scalars, st.sampled_from([0, 1]))) for _ in range(count)]
    else:
        raw = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        raw[-1] = raw[-1] or 1
        weights = [Scalar(Fraction(value, sum(raw))) for value in raw]
        if kind == "sqrt2":
            # A sqrt2 weight first; the others share the rest of 1, and are
            # negative when the first is past 1.
            first = Scalar(0, draw(st.fractions(-1, 1, max_denominator=8)))
            weights = [first] + [Scalar(Fraction(value, sum(raw[1:]))) * (ONE - first) for value in raw[1:]]
        if draw(st.integers(0, 9)) == 0:
            weights[-1] = weights[-1] + Scalar(Fraction(1, 5))
    if draw(st.integers(0, 9)) == 0:
        other = draw(spaces_strategy())
        if other != spaces:
            boxes[-1] = draw(valid_behaviors(spaces=other))
    return list(zip(weights, boxes))


@given(mixtures())
@settings(max_examples=100)
def test_mix_matches_the_scalar_loop(components):
    assert _outcome(mix, components) == _outcome(reference.mix, components)


@pytest.mark.parametrize(
    "weights",
    [
        [],
        [ZERO, ONE, ZERO],
        [SQRT2 / 2, ONE - SQRT2 / 2],
        [-ONE / 2, ONE / 2, ONE],
        [ONE / 2, ONE / 2, ONE / 4],
        [ZERO, ZERO],
        [1, 0],
    ],
)
def test_mix_matches_the_scalar_loop_on_edge_weights(weights):
    boxes = [value.value for value in entries().values() if value.kind == "behavior"]
    components = list(zip(weights, boxes))
    assert _outcome(mix, components) == _outcome(reference.mix, components)


# -- check_product and joint tables -------------------------------------------


@st.composite
def joint_tables(draw):
    """A joint table over two to four variables: a product of two blocks'
    distributions, possibly with sqrt2 weights, or any distribution."""
    count = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(count)]
    variables = [(f"V{i}", LabelSet(tuple(f"v{i}{k}" for k in range(n)))) for i, n in enumerate(sizes)]
    size = prod(sizes)
    raw = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    if not any(raw):
        raw[-1] = 1
    table = [Scalar(Fraction(value, sum(raw))) for value in raw]
    if draw(st.booleans()):
        # The product of the table's first-variable marginal (tilted by a
        # sqrt2 term) and the rest's marginal: independent by construction.
        first = len(variables[0][1])
        rest = size // first
        left = [sum(table[i * rest : (i + 1) * rest], ZERO) for i in range(first)]
        right = [sum(table[j::rest], ZERO) for j in range(rest)]
        if first > 1 and draw(st.booleans()):
            tilt = SQRT2 * draw(st.fractions(0, Fraction(1, 8), max_denominator=8))
            shift = (left[1] - left[0]) * tilt
            left[0], left[1] = left[0] + shift, left[1] - shift
        table = [left[i] * right[j] for i in range(first) for j in range(rest)]
    if size > 1 and draw(st.booleans()):
        # Move a sqrt2 share of one cell's mass to another.
        i, j = draw(st.permutations(range(size)))[:2]
        moved = table[j] * SQRT2 * draw(st.fractions(0, Fraction(1, 2), max_denominator=8))
        table[i], table[j] = table[i] + moved, table[j] - moved
    names = [name for name, _ in variables]
    order = draw(st.permutations(names))
    cut = draw(st.integers(1, count - 1))
    return JointTable(tuple(variables), tuple(table)), order[:cut], order[cut:]


@given(joint_tables())
@settings(max_examples=150)
def test_check_product_matches_the_scalar_loop(case):
    joint, left, right = case
    assert check_product(joint, left, right) == reference.check_product(joint, left, right)


@given(local_models(spaces=CHSH_SPACES), valid_behaviors(spaces=CHSH_SPACES))
@settings(max_examples=40)
def test_first_mover_verdicts_and_witnesses_match_the_scalar_loop(model, box):
    # The last kernel, replaced by a generically signalling box, may make
    # B depend on (X, A, U, V) anywhere in the table.
    model = type(model)(model.pairs, model.weights, model.kernels[:-1] + (box,))
    settings_a, settings_b, _, _ = CHSH_SPACES
    joint = first_mover_joint(model, uniform_distribution(settings_a), uniform_distribution(settings_b))
    for left, right in ((("B",), ("X", "A", "U", "V")), (("A", "X"), ("U", "B", "V"))):
        assert check_product(joint, left, right) == reference.check_product(joint, left, right)


@pytest.mark.parametrize(
    "left, right",
    [((), ("A", "B")), (("A", "A"), ("B",)), (("A",), ("A", "B")), (("A",), ("C",)), (("A",), ("B", "C"))],
)
def test_check_product_refuses_the_same_partitions(left, right):
    joint = JointTable((("A", LabelSet(("0", "1"))), ("B", LabelSet(("0",)))), (ONE / 2, ONE / 2))
    expected = _outcome(reference.check_product, joint, left, right)
    assert _outcome(check_product, joint, left, right) == expected


def _scalar_loop_joint_problem(table):
    """The message of the Scalar-loop joint-table check, or None."""
    total = ZERO
    for value in table:
        if value.sign() < 0:
            return f"negative entry {reference.format_scalar(value)}"
        total = total + value
    if total != ONE:
        return f"entries sum to {reference.format_scalar(total)}, expected 1"
    return None


@given(
    st.lists(scalars, min_size=4, max_size=4),
    st.sampled_from(["drawn", "normalised", "rational parts sum to 1"]),
)
def test_joint_table_validation_matches_the_scalar_loop(cells, mode):
    if mode != "drawn":
        cells = [Scalar(abs(cell.a), abs(cell.b)) for cell in cells]
        cells[-1] = cells[-1] if any(cells) else ONE
        if mode == "normalised":
            total = sum(cells, ZERO)
            cells = [cell / total for cell in cells]
        else:
            cells[-1] = cells[-1] + (1 - sum(cell.a for cell in cells))
    variables = (("A", LabelSet(("0", "1"))), ("B", LabelSet(("0", "1"))))
    problem = _scalar_loop_joint_problem(cells)
    outcome = _outcome(JointTable, variables, tuple(cells))
    if problem is None:
        assert isinstance(outcome, JointTable)
    else:
        assert outcome[1] == problem


# -- saved bytes --------------------------------------------------------------


def _reference_bytes(kind: str, value) -> str:
    document = {
        "behavior": lambda: reference.tensor_to_dict(value, "p"),
        "expression": lambda: reference.tensor_to_dict(value, "c"),
        "model": lambda: reference.model_to_dict(value),
    }[kind]()
    return json.dumps(document, indent=2) + "\n"


_SAVE = {"behavior": save_box, "expression": save_expression, "model": save_model}


def test_every_catalog_file_and_an_emitted_model_match_the_reference_bytes(tmp_path):
    cases = [(entry.kind, entry.value) for entry in entries().values() if entry.kind != "scalar"]
    cases.append(("model", decomposition_to_model(max_local_content(table1_box()))))
    coefficients = tuple(Scalar(k % 3 - 1, Fraction(k, 7)) for k in range(16))
    cases.append(("expression", BellExpression(*CHSH_SPACES, coefficients)))
    for index, (kind, value) in enumerate(cases):
        path = tmp_path / f"{index}.json"
        _SAVE[kind](value, path)
        assert path.read_text(encoding="utf-8") == _reference_bytes(kind, value)


@st.composite
def extended_models(draw):
    """An extended model whose kernels repeat across pairs and w values,
    with sqrt2 weights in some extensions."""
    base = draw(local_models(max_pairs=3))
    pool = base.kernels
    extensions = []
    for _ in base.pairs:
        count = draw(st.integers(1, 3))
        if count == 1:
            weights = (ONE,)
        else:
            first = SQRT2 * draw(st.fractions(0, Fraction(1, 2), max_denominator=6))
            weights = (first,) + ((ONE - first) / (count - 1),) * (count - 1)
        kernels = tuple(draw(st.sampled_from(pool)) for _ in range(count))
        extensions.append(WExtension(LabelSet(tuple(str(k) for k in range(count))), weights, kernels))
    return ExtendedModel(base.pairs, base.weights, tuple(extensions))


@given(extended_models())
@settings(max_examples=40, deadline=None)
def test_a_random_extended_model_matches_the_reference_bytes(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("extended") / "model.json"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == _reference_bytes("model", model)
