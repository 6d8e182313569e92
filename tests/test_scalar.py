"""Exact field arithmetic, parsing and ordering."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import nonzero_scalars, numbered_spaces, scalars
from hvlab.boxes import Behavior, _int_view
from hvlab.errors import DivisionByZero, MalformedScalar, ZeroDenominator
from hvlab.scalar import ONE, SQRT2, ZERO, Scalar, _common_denominator, compare, format_scalar, parse_scalar


def test_parse_alpha_string():
    assert parse_scalar("1/4-1/8*sqrt2") == Scalar(Fraction(1, 4), Fraction(-1, 8))


def test_parse_zero():
    assert parse_scalar("0") == Scalar()


def test_parse_canonicalizes_components():
    assert parse_scalar("2/4") == Scalar(Fraction(1, 2))
    assert parse_scalar("2/4").a.denominator == 2


def test_parse_root_only_forms():
    assert parse_scalar("1*sqrt2") == SQRT2
    assert parse_scalar("-1/2*sqrt2") == Scalar(0, Fraction(-1, 2))
    assert parse_scalar("+3*sqrt2") == Scalar(0, 3)


@pytest.mark.parametrize(
    "text",
    ["", " 1", "1 ", "1/4 - 1/8*sqrt2", "1.5", "sqrt2", "1*sqrt3", "1//2", "--1", "1+*sqrt2", "0x1", "1e3", 1, None],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedScalar):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1/0", "1/0*sqrt2", "3-1/0*sqrt2"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ZeroDenominator):
        parse_scalar(text)


def test_format_examples():
    assert format_scalar(Scalar(Fraction(1, 4), Fraction(-1, 8))) == "1/4-1/8*sqrt2"
    assert format_scalar(Scalar(0, 1)) == "1*sqrt2"
    assert format_scalar(Scalar()) == "0"
    assert format_scalar(Scalar(Fraction(1, 2))) == "1/2"
    assert format_scalar(Scalar(Fraction(-3), Fraction(2, 5))) == "-3+2/5*sqrt2"


def test_add_symmetric_cells():
    alpha = Scalar(Fraction(1, 4), Fraction(-1, 8))
    complement = Scalar(Fraction(1, 4), Fraction(1, 8))
    assert alpha + complement == Scalar(Fraction(1, 2))


def test_mul_conjugate_identity():
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(-1)


def test_div_checked_by_multiplying_back():
    quotient = ONE / Scalar(1, 1)
    assert quotient * Scalar(1, 1) == ONE
    assert quotient == Scalar(-1, 1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_sign_examples():
    assert Scalar(Fraction(3, 2), -1).sign() == 1  # 9/4 > 2
    assert ZERO.sign() == 0
    assert Scalar(1, -1).sign() == -1  # 1 < 2
    assert Scalar(-3, 2).sign() == -1  # 9 > 8, rational part dominates
    assert Scalar(-1, 1).sign() == 1


def test_to_float_examples():
    assert Scalar(Fraction(1, 4), Fraction(-1, 8)).to_float() == pytest.approx(0.0732233, abs=1e-7)
    assert Scalar(0, 2).to_float() == pytest.approx(2.8284271, abs=1e-7)
    assert ZERO.to_float() == 0.0


def test_int_and_fraction_coercion():
    assert 2 * SQRT2 == Scalar(0, 2)
    assert SQRT2 + 1 == Scalar(1, 1)
    assert 1 - SQRT2 == Scalar(1, -1)
    assert SQRT2 - 1 == Scalar(-1, 1)
    assert Scalar(4) / 2 == Scalar(2)
    assert 1 / SQRT2 == Scalar(0, Fraction(1, 2))
    assert Scalar(Fraction(1, 2)) + Fraction(1, 2) == ONE
    assert +SQRT2 is SQRT2


# bool is an int subclass, yet neither component may be one, as
# as_scalar(True) and Scalar(1) + True are refused too.
@pytest.mark.parametrize(
    "components, name",
    [((True,), "a"), ((1, True), "b"), ((False, Fraction(1, 2)), "a"), ((Fraction(1, 2), False), "b")],
)
def test_a_bool_component_is_refused(components, name):
    with pytest.raises(TypeError) as refusal:
        Scalar(*components)
    assert str(refusal.value) == f"Scalar component {name} must be int or Fraction, got bool"


# A str operand, on either side: Scalar returns NotImplemented, so Python
# raises its own TypeError and names both types.
_STR_OPERANDS = {
    "add": (lambda x: x + "x", "unsupported operand type(s) for +: 'Scalar' and 'str'"),
    "sub": (lambda x: x - "x", "unsupported operand type(s) for -: 'Scalar' and 'str'"),
    "mul": (lambda x: x * "x", "can't multiply sequence by non-int of type 'Scalar'"),
    "div": (lambda x: x / "x", "unsupported operand type(s) for /: 'Scalar' and 'str'"),
    "rsub": (lambda x: "x" - x, "unsupported operand type(s) for -: 'str' and 'Scalar'"),
    "rdiv": (lambda x: "x" / x, "unsupported operand type(s) for /: 'str' and 'Scalar'"),
    "lt": (lambda x: x < "x", "'<' not supported between instances of 'Scalar' and 'str'"),
    "le": (lambda x: x <= "x", "'<=' not supported between instances of 'Scalar' and 'str'"),
    "gt": (lambda x: x > "x", "'>' not supported between instances of 'Scalar' and 'str'"),
    "ge": (lambda x: x >= "x", "'>=' not supported between instances of 'Scalar' and 'str'"),
}


@pytest.mark.parametrize("operation, message", _STR_OPERANDS.values(), ids=_STR_OPERANDS)
def test_a_str_operand_is_a_type_error(operation, message):
    with pytest.raises(TypeError) as refusal:
        operation(SQRT2)
    assert str(refusal.value) == message


def test_ordering_operators():
    assert ONE < SQRT2 < Scalar(Fraction(3, 2))
    assert SQRT2 > 1
    assert Scalar(Fraction(7, 5)) < SQRT2  # 49/25 < 2
    assert Scalar(Fraction(3, 2)) >= SQRT2


@given(scalars)
def test_format_parse_round_trip(s):
    assert parse_scalar(format_scalar(s)) == s


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(nonzero_scalars)
def test_multiplicative_inverse(x):
    assert x * (ONE / x) == ONE


@given(scalars, scalars)
def test_order_compatibility(x, y):
    assert (x * y).sign() == x.sign() * y.sign()
    if x.sign() == y.sign() != 0:
        assert (x + y).sign() == x.sign()


@given(scalars, scalars)
def test_uniqueness_of_representation(x, y):
    # sign(x - y) == 0 iff both components agree: irrationality of
    # sqrt(2) makes the components of equal values forced
    assert (compare(x, y) == 0) == (x.a == y.a and x.b == y.b)


# Vectors over one shared denominator d: (1 + d*k)/d is in lowest terms
# for every k, so each value's canonical denominator is d itself.
_one_denominator = st.integers(1, 12).flatmap(
    lambda d: st.lists(
        st.builds(lambda k, q: Scalar(Fraction(1 + d * k, d), Fraction(q, d)), st.integers(-9, 9), st.integers(-9, 9)),
        max_size=8,
    )
)


@given(st.one_of(_one_denominator, st.lists(scalars, max_size=8)))
@example([])
@example([ONE] * 5)
@example([Scalar(Fraction(1, 3)), Scalar(Fraction(-1, 2), Fraction(1, 4)), SQRT2])
def test_common_denominator_is_the_lcm_and_gives_back_every_value(values):
    ps, qs, den = _common_denominator(values)
    assert den == lcm(*(part.denominator for value in values for part in (value.a, value.b)))
    assert len(ps) == len(qs) == len(values)
    assert [Scalar(Fraction(p, den), Fraction(q, den)) for p, q in zip(ps, qs)] == values
    if values:
        box = Behavior(*numbered_spaces(1, 1, 1, len(values)), tuple(values))
        assert _int_view(box) == (tuple(ps), tuple(qs), den)
