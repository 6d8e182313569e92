"""Scalar against a plain Fraction-pair reference, plus its object protocol.

The reference below is the textbook representation of a + b*sqrt(2):
two Fractions, with the sign decided by comparing a*a against 2*b*b.
Scalar stores an integer triple instead, so every operation is checked
against the reference on the components it reports.
"""

import copy
import math
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvlab.errors import DivisionByZero
from hvlab.scalar import Scalar


class PairReference:
    """a + b*sqrt(2) as a pair of Fractions."""

    def __init__(self, a: Fraction, b: Fraction):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, other):
        return PairReference(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return PairReference(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return PairReference(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        norm = other.a * other.a - 2 * other.b * other.b
        return self * PairReference(other.a / norm, -other.b / norm)

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0


# Wider than helpers.small_fractions, so that reductions by large gcds occur.
fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
pairs = st.tuples(fractions, fractions)


def _agrees(s: Scalar, ref: PairReference) -> bool:
    return type(s.a) is Fraction and type(s.b) is Fraction and (s.a, s.b) == (ref.a, ref.b)


@given(pairs, pairs)
def test_field_operations_match_reference(x, y):
    sx, sy, rx, ry = Scalar(*x), Scalar(*y), PairReference(*x), PairReference(*y)
    assert _agrees(sx, rx)
    assert _agrees(sx + sy, rx + ry)
    assert _agrees(sx - sy, rx - ry)
    assert _agrees(sx * sy, rx * ry)
    if y != (0, 0):
        assert _agrees(sx / sy, rx / ry)
    else:
        with pytest.raises(DivisionByZero):
            sx / sy


@given(pairs, pairs)
def test_sign_and_order_match_reference(x, y):
    sx, sy, rx, ry = Scalar(*x), Scalar(*y), PairReference(*x), PairReference(*y)
    assert sx.sign() == rx.sign()
    assert (sx < sy) == (rx < ry)
    assert (sx - sy).sign() == (rx - ry).sign()


@given(pairs, st.integers(-50, 50))
def test_components_are_reduced(x, k):
    s = Scalar(*x) * Scalar(k)
    for component in (s.a, s.b):
        assert math.gcd(component.numerator, component.denominator) == 1
        assert component.denominator > 0


@given(pairs, pairs)
def test_equal_values_hash_equal(x, y):
    s = Scalar(*x)
    other = Scalar(*y)
    rebuilt = (s + other) - other
    assert rebuilt == s
    assert hash(rebuilt) == hash(s)
    assert hash(s) == hash((s.a, s.b))


@given(pairs)
def test_copies_and_pickles_are_equal(x):
    s = Scalar(*x)
    for duplicate in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(duplicate) is Scalar
        assert duplicate == s


@pytest.mark.parametrize("name", ["a", "b", "_v", "extra"])
def test_instances_are_immutable(name):
    s = Scalar(Fraction(1, 3), 2)
    with pytest.raises(AttributeError):
        setattr(s, name, 5)
    with pytest.raises(AttributeError):
        delattr(s, name)
    assert s == Scalar(Fraction(1, 3), 2)


@pytest.mark.parametrize("args", [(1.5,), ("1",), (1, 1.5), (1, "1")])
def test_non_rational_components_raise_type_error(args):
    with pytest.raises(TypeError):
        Scalar(*args)


def test_equality_with_other_types_is_not_implemented():
    assert Scalar(1).__eq__(1) is NotImplemented
    assert Scalar(1) != 1


def _pell(digits: int) -> tuple[int, int]:
    """p, q with p*p - 2*q*q == +-1 and p past 10**digits."""
    p, q = 1, 1
    while p < 10**digits:
        p, q = p + 2 * q, p + q
    return p, q


def test_to_float_never_raises():
    big = Scalar(10**400)
    assert big.to_float() == math.inf
    assert (-big).to_float() == -math.inf
    assert Scalar(0, -(10**400)).to_float() == -math.inf
    assert Scalar(1, Fraction(1, 10**400)).to_float() == 1.0
    # Both components fit in a float but the sqrt(2) term alone does not.
    assert Scalar(-17 * 10**307, 13 * 10**307).to_float() == pytest.approx(1e307 * (-17 + 13 * math.sqrt(2)), rel=1e-12)
    # Components past the float range whose parts nearly cancel:
    # p*(p - q*sqrt2) = +-p / (p + q*sqrt2), about +-1/2.
    p, q = _pell(400)
    cancelling = Scalar(p * p, -p * q)
    assert cancelling.to_float() == pytest.approx(0.5 * cancelling.sign(), rel=1e-12)


def _decimal_value(x: Scalar) -> Decimal:
    """a + b*sqrt(2) to 1000 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 1000
        a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
        b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
        return a + b * Decimal(2).sqrt()


def _inverse_sqrt2(digits: int) -> Fraction:
    """1/sqrt(2) rounded to the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(1) / Decimal(2).sqrt())


def test_to_float_when_the_parts_nearly_cancel():
    # The float formula gave -1.59e234 here: every digit and the sign lost.
    x = Scalar(10**250, -_inverse_sqrt2(100) * 10**250)
    reference = float(_decimal_value(x))
    assert reference > 0
    assert x.to_float() == pytest.approx(reference, rel=1e-12)


@given(
    st.integers(1, 80),
    st.fractions(min_value=Fraction(1, 10**12), max_value=10**40, max_denominator=10**12),
    st.sampled_from([1, -1]),
)
def test_to_float_of_near_cancelling_parts_matches_decimal(digits, scale, sign):
    x = Scalar(sign * scale, -sign * scale * _inverse_sqrt2(digits))
    reference = float(_decimal_value(x))
    assert math.copysign(1, reference) == x.sign()
    assert x.to_float() == pytest.approx(reference, rel=1e-9)
