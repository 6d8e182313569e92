"""Exact arithmetic in the ordered field Q(sqrt(2)).

A Scalar is the real number ``a + b*sqrt(2)`` with rational components.
Since sqrt(2) is irrational the representation is unique, so equality,
ordering and hashing are decided exactly from the components.  Floats
appear only in the display helper :func:`Scalar.to_float` and are never
used in decision logic.

Components are :class:`fractions.Fraction` values, which already keep
the canonical reduced form (positive denominator, gcd one, zero as 0/1)
with arbitrary-precision integers underneath.  That matters: simplex
pivoting grows numerators and denominators, and fixed-width overflow
would be a correctness bug.

The text grammar, shared by every file format in the package::

    scalar   ::= rational | rational SIGN rational '*' 'sqrt2'
               | [SIGN] rational '*' 'sqrt2'
    rational ::= ['-'] digits ['/' digits]

No whitespace is allowed; ``1/4-1/8*sqrt2`` denotes 1/4 - (1/8)sqrt(2).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, MalformedScalar, ZeroDenominator

Rational = Fraction

_RATIONAL = r"-?\d+(?:/\d+)?"
_PURE_RE = re.compile(rf"({_RATIONAL})\Z")
_MIXED_RE = re.compile(rf"({_RATIONAL})([+-])({_RATIONAL})\*sqrt2\Z")
_ROOT_RE = re.compile(rf"([+-]?)({_RATIONAL})\*sqrt2\Z")

_SQRT2_FLOAT = math.sqrt(2.0)


@dataclass(frozen=True)
class Scalar:
    """The exact real number ``a + b*sqrt(2)``."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = getattr(self, name)
            if isinstance(value, Fraction):
                continue
            if isinstance(value, int):
                object.__setattr__(self, name, Fraction(value))
            else:
                raise TypeError(f"Scalar component {name} must be int or Fraction, got {type(value).__name__}")

    def sign(self) -> int:
        """Exact sign of the real value, in {-1, 0, +1}.

        When the components disagree in sign the comparison reduces to
        a*a vs 2*b*b, which is decided in exact rational arithmetic.
        """
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # Components of opposite sign; a*a == 2*b*b is impossible here
        # because sqrt(2) is irrational.
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def to_float(self) -> float:
        """Double-precision approximation, for display only."""
        return float(self.a) + float(self.b) * _SQRT2_FLOAT

    # -- field operations ------------------------------------------------

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> Scalar:
        return Scalar(-self.a, -self.b)

    def __pos__(self) -> Scalar:
        return self

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def _inverse(self) -> Scalar:
        # 1/(a + b*sqrt2) = (a - b*sqrt2)/(a^2 - 2 b^2)
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise DivisionByZero("division by zero scalar")
        return Scalar(self.a / norm, -self.b / norm)

    # -- order -----------------------------------------------------------

    def __lt__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() >= 0

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def _coerce(value: object) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Scalar(Fraction(value))
    return None


def as_scalar(value: Scalar | int | Fraction | str) -> Scalar:
    """Coerce ints, Fractions and grammar strings to Scalar."""
    if isinstance(value, str):
        return parse_scalar(value)
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    return coerced


def compare(x: Scalar, y: Scalar) -> int:
    """sign(x - y), exactly."""
    return (x - y).sign()


def _parse_rational(token: str) -> Fraction:
    num_text, _, den_text = token.partition("/")
    try:
        num, den = int(num_text), int(den_text or "1")
    except ValueError as exc:  # the grammar matched, so only the interpreter's digit limit is left
        raise MalformedScalar(f"number {token[:20]}... has more digits than int() converts") from exc
    if den == 0:
        raise ZeroDenominator(f"zero denominator in {token!r}")
    return Fraction(num, den)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical number grammar into a Scalar.

    Raises MalformedScalar on any deviation (including whitespace) and
    ZeroDenominator for tokens like ``1/0``.
    """
    if not isinstance(text, str):
        raise MalformedScalar(f"expected a string, got {type(text).__name__}")
    m = _PURE_RE.fullmatch(text)
    if m:
        return Scalar(_parse_rational(m.group(1)))
    m = _MIXED_RE.fullmatch(text)
    if m:
        a = _parse_rational(m.group(1))
        b = _parse_rational(m.group(3))
        if m.group(2) == "-":
            b = -b
        return Scalar(a, b)
    m = _ROOT_RE.fullmatch(text)
    if m:
        b = _parse_rational(m.group(2))
        if m.group(1) == "-":
            b = -b
        return Scalar(Fraction(0), b)
    raise MalformedScalar(f"not a valid scalar string: {text!r}")


def _format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(s)) == s."""
    if not s.b:
        return _format_rational(s.a)
    root = f"{_format_rational(abs(s.b))}*sqrt2"
    if not s.a:
        return root if s.b > 0 else f"-{root}"
    sign = "+" if s.b > 0 else "-"
    return f"{_format_rational(s.a)}{sign}{root}"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
TWO = Scalar(Fraction(2))
HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(Fraction(0), Fraction(1))
