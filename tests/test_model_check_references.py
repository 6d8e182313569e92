"""Model validation, the two model constructors, setting distributions and
the first-mover table, each checking its weights through one int helper,
against the Scalar loops and constructor bodies they replaced
(``reference_scenario``)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scenario as reference
from helpers import CHSH_SPACES, ns_behaviors, scalars, spaces_strategy, valid_behaviors
from hvlab.boxes import Behavior, LabelSet, mix
from hvlab.errors import InvalidModel
from hvlab.hvmodel import (
    ExtendedModel,
    HiddenVariableModel,
    WExtension,
    _check_distribution,
    first_mover_joint,
    require_valid_model,
    validate_extended_model,
    validate_model,
)
from hvlab.scalar import ONE, SQRT2, ZERO, Scalar


def _outcome(function, *args):
    """The function's result, or the type and message of what it raised."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def weight_vectors(draw, count):
    """``count`` weights: a distribution, one with a sqrt2 weight first
    (the others negative when it is past 1), or free weights; any may be
    zero or negative, and now and then the total is off by 1/5."""
    kind = draw(st.sampled_from(["distribution", "sqrt2", "free"]))
    if kind == "free":
        return [draw(st.one_of(scalars, st.sampled_from([ZERO, ONE, -ONE / 2]))) for _ in range(count)]
    raw = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    raw[-1] = raw[-1] or 1
    weights = [Scalar(Fraction(value, sum(raw))) for value in raw]
    if kind == "sqrt2" and count > 1:
        first = Scalar(0, draw(st.fractions(-1, 1, max_denominator=8)))
        weights = [first] + [Scalar(Fraction(value, sum(raw[1:]))) * (ONE - first) for value in raw[1:]]
    if draw(st.integers(0, 4)) == 0:
        weights[-1] = weights[-1] + Scalar(Fraction(1, 5))
    return weights


@st.composite
def kernels(draw, spaces):
    """A no-signalling box on ``spaces``, or now and then one with a
    negative cell or a row that does not sum to 1."""
    box = draw(ns_behaviors(spaces=spaces))
    flaw = draw(st.sampled_from([None, None, None, "negative", "row"]))
    if flaw is None:
        return box
    table = list(box.table)
    table[0] = -ONE / 2 if flaw == "negative" else table[0] + SQRT2
    return Behavior(*spaces, tuple(table))


# -- mix --------------------------------------------------------------------


@st.composite
def weighted_boxes(draw):
    count = draw(st.integers(1, 4))
    weights = draw(weight_vectors(count))
    return [(weight, draw(valid_behaviors(spaces=CHSH_SPACES))) for weight in weights]


@given(weighted_boxes())
@settings(max_examples=100, deadline=None)
def test_mix_weight_checks_match_the_scalar_loop(components):
    assert _outcome(mix, components) == _outcome(reference.mix, components)


# -- model validation -------------------------------------------------------


@st.composite
def models(draw):
    spaces = draw(spaces_strategy())
    count = draw(st.integers(1, 4))
    pairs = tuple((f"u{i}", f"v{i}") for i in range(count))
    weights = draw(weight_vectors(count))
    return HiddenVariableModel(pairs, tuple(weights), tuple(draw(kernels(spaces)) for _ in range(count)))


@given(models())
@settings(max_examples=150, deadline=None)
def test_model_reports_match_the_scalar_loop(model):
    expected = reference.model_report(model)
    assert validate_model(model) == expected
    problem = None if expected.ok else (InvalidModel, expected.summary())
    assert _outcome(require_valid_model, model) == problem


@st.composite
def extended_models(draw):
    """Pairs whose w weights and kernels may be bad, under pair weights
    that may be bad too."""
    spaces = draw(spaces_strategy())
    count = draw(st.integers(1, 3))
    extensions = []
    for _ in range(count):
        size = draw(st.integers(1, 3))
        values = LabelSet(tuple(f"w{k}" for k in range(size)))
        w_kernels = tuple(draw(kernels(spaces)) for _ in range(size))
        extensions.append(WExtension(values, tuple(draw(weight_vectors(size))), w_kernels))
    pairs = tuple((f"u{i}", "v") for i in range(count))
    return ExtendedModel(pairs, tuple(draw(weight_vectors(count))), tuple(extensions))


@given(extended_models())
@settings(max_examples=150, deadline=None)
def test_extended_model_problems_match_the_scalar_loop(model):
    expected = list(reference.extended_model_problems(model))
    assert validate_extended_model(model) == expected
    problem = (InvalidModel, "; ".join(expected)) if expected else None
    assert _outcome(require_valid_model, model) == problem


# -- setting distributions ----------------------------------------------------

# Values that as_scalar refuses: a float and None (TypeError), and a string
# outside the scalar grammar (MalformedScalar).
_UNREADABLE = (0.5, None, "half")


@st.composite
def distributions(draw):
    """A setting distribution over a label set: drawn weights, some given
    as ints, Fractions or strings, some unreadable, a negative one now and
    then placed before an unreadable one, and now and then a key too few
    or too many."""
    space = LabelSet(tuple(f"s{i}" for i in range(draw(st.integers(1, 4)))))
    values = []
    for weight in draw(weight_vectors(len(space))):
        form = draw(st.sampled_from(["scalar", "scalar", "exact", "text"]))
        if form == "exact" and not weight.b:
            weight = weight.a if weight.a.denominator != 1 else int(weight.a)
        elif form == "text":
            weight = str(weight)
        values.append(weight)
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_UNREADABLE))
    if len(values) > 1 and draw(st.booleans()):
        bad = draw(st.integers(1, len(values) - 1))
        values[draw(st.integers(0, bad - 1))] = -ONE / 3
        values[bad] = draw(st.sampled_from(_UNREADABLE))
    dist = dict(zip(space.labels, values))
    keys = draw(st.sampled_from(["exact", "exact", "exact", "missing", "extra"]))
    if keys == "missing":
        dist.pop(space.labels[-1])
    elif keys == "extra":
        dist["other"] = ZERO
    # The mapping's own order need not be the space's.
    order = draw(st.permutations(list(dist)))
    return {label: dist[label] for label in order}, space


@given(distributions())
@settings(max_examples=300)
def test_setting_distributions_match_the_label_by_label_reference(case):
    dist, space = case
    what = "setting distribution for A"
    outcome = _outcome(_check_distribution, dist, space, what)
    expected = _outcome(reference.check_distribution, dist, space, what)
    assert outcome == expected
    if isinstance(expected, dict):
        assert list(outcome) == list(expected)


def test_a_negative_weight_is_refused_before_a_later_unreadable_one():
    space = LabelSet(("0", "1", "2"))
    dist = {"0": ONE, "1": -ONE / 2, "2": 0.5}
    expected = _outcome(reference.check_distribution, dist, space, "p")
    assert _outcome(_check_distribution, dist, space, "p") == expected
    assert expected[1] == "p has negative weight at '1'"
    dist = {"0": 0.5, "1": -ONE / 2, "2": ONE}
    assert _outcome(_check_distribution, dist, space, "p") == (TypeError, "cannot interpret 0.5 as a scalar")


# -- constructors -------------------------------------------------------------


@st.composite
def model_fields(draw):
    """Fields for either constructor: pairs with int or repeated labels,
    weights that may be unreadable, kernels on mixed spaces, and any of the
    three fields a different length."""
    spaces = draw(spaces_strategy())
    other = draw(spaces_strategy())
    count = draw(st.integers(0, 3))
    labels = st.one_of(st.sampled_from(["u", "v", "0"]), st.integers(0, 2))
    pairs = [(draw(labels), draw(labels)) for _ in range(count)]
    weights = list(draw(weight_vectors(max(count, 1))))[:count]
    if count and draw(st.integers(0, 5)) == 0:
        weights[-1] = draw(st.sampled_from([0.5, "1/2", Fraction(1, 2), 1]))
    kernel_spaces = [draw(st.sampled_from([spaces, spaces, other])) for _ in range(count)]
    boxes = [draw(valid_behaviors(spaces=s)) for s in kernel_spaces]
    field = draw(st.sampled_from([None, None, "pairs", "weights", "kernels"]))
    if field == "pairs":
        pairs.append(("extra", "pair"))
    elif field == "weights":
        weights = weights[:-1]
    elif field == "kernels":
        boxes.append(draw(valid_behaviors(spaces=spaces)))
    return pairs, weights, boxes


def _fields(model):
    return tuple(getattr(model, name) for name in model._fields)


def _built(cls, *fields):
    model = _outcome(cls, *fields)
    return _fields(model) if isinstance(model, cls) else model


@given(model_fields())
@settings(max_examples=200, deadline=None)
def test_the_model_constructor_matches_its_reference(fields):
    pairs, weights, boxes = fields
    expected = _outcome(reference.model_structure, pairs, weights, boxes)
    assert _built(HiddenVariableModel, pairs, weights, boxes) == expected
    assert _built(HiddenVariableModel, iter(pairs), iter(weights), iter(boxes)) == expected


@given(model_fields(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_extended_model_constructor_matches_its_reference(fields, data):
    pairs, weights, boxes = fields
    # Each box with a one-valued w, or split in two w values of the same box.
    extensions = [
        WExtension(LabelSet(("0", "1")), (ONE / 2, ONE / 2), (box, box))
        if data.draw(st.booleans())
        else WExtension(LabelSet(("0",)), (ONE,), (box,))
        for box in boxes
    ]
    expected = _outcome(reference.extended_model_structure, pairs, weights, extensions)
    assert _built(ExtendedModel, pairs, weights, extensions) == expected


# -- first_mover_joint --------------------------------------------------------


@st.composite
def first_mover_kernels(draw):
    """A box on the CHSH spaces that may signal, often with sqrt2 cells: a
    mixture of two boxes with a sqrt2 weight."""
    boxes = st.one_of(ns_behaviors(spaces=CHSH_SPACES), valid_behaviors(spaces=CHSH_SPACES))
    box = draw(boxes)
    if draw(st.booleans()):
        tilt = SQRT2 * draw(st.fractions(0, Fraction(1, 2), max_denominator=8))
        box = mix([(tilt, box), (ONE - tilt, draw(boxes))])
    return box


@st.composite
def first_mover_cases(draw):
    """A model on the CHSH spaces whose pairs share u or v labels, with
    sqrt2 and zero weights and kernels that may signal or hold sqrt2 cells,
    and setting distributions that may carry a sqrt2 weight."""
    labels = st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(["v0", "v1", "v2"]))
    pairs = tuple(draw(st.lists(labels, min_size=1, max_size=5, unique=True)))
    weights = [w if w.sign() >= 0 else -w for w in draw(weight_vectors(len(pairs)))]
    total = sum(weights, ZERO)
    weights = [w / total for w in weights] if total.sign() > 0 else [ONE / len(pairs)] * len(pairs)
    if len(pairs) > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, len(pairs) - 1))] = ZERO
        total = sum(weights, ZERO)
        weights = [w / total for w in weights] if total.sign() > 0 else [ONE] + [ZERO] * (len(pairs) - 1)
    boxes = tuple(draw(first_mover_kernels()) for _ in pairs)
    model = HiddenVariableModel(pairs, tuple(weights), boxes)
    settings_a, settings_b, _, _ = CHSH_SPACES
    tilt = SQRT2 * draw(st.fractions(0, Fraction(1, 4), max_denominator=8))
    first, second = draw(st.permutations([(ONE / 2 + tilt, ONE / 2 - tilt), (ONE / 2, ONE / 2)]))
    # Now and then Bob's distribution is a point mass, or sums to 2.
    second = draw(st.sampled_from([second] * 8 + [(ONE, ZERO), (ONE, ONE)]))
    return model, dict(zip(settings_a.labels, first)), dict(zip(settings_b.labels, second))


@given(first_mover_cases())
@settings(max_examples=150, deadline=None)
def test_first_mover_tables_match_the_callback_reference(case):
    model, p_a, p_b = case
    assert _outcome(first_mover_joint, model, p_a, p_b) == _outcome(reference.first_mover_joint, model, p_a, p_b)
