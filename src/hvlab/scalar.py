"""Exact arithmetic in the ordered field Q(sqrt(2)).

A Scalar is the real number ``(p + q*sqrt(2)) / d`` stored as three
Python ints in canonical form: ``d > 0`` and ``gcd(p, q, d) == 1``, with
zero as ``(0, 0, 1)``.  Since sqrt(2) is irrational every value has
exactly one canonical triple, so equality is a comparison of the three
ints, and the sign is decided in integer arithmetic (when ``p`` and
``q`` disagree in sign, by comparing ``p*p`` with ``2*q*q``).  Floats
appear only in the display helper :meth:`Scalar.to_float` and are never
used in decision logic.  Python ints are arbitrary-precision; that
matters, because simplex pivoting grows numerators and denominators and
fixed-width overflow would be a correctness bug.

The rational components of ``a + b*sqrt(2)`` are derived on demand:
``a`` and ``b`` are reduced :class:`fractions.Fraction` values (``p/d``
and ``q/d``), and a Scalar hashes like the pair ``(a, b)``.  The text form
does not build them: :func:`format_scalar` reduces ``p/d`` and ``q/d``
from the triple with one gcd each.

The text grammar, shared by every file format in the package::

    scalar   ::= rational | rational SIGN rational '*' 'sqrt2'
               | [SIGN] rational '*' 'sqrt2'
    rational ::= ['-'] digits ['/' digits]

No whitespace is allowed; ``1/4-1/8*sqrt2`` denotes 1/4 - (1/8)sqrt(2).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DivisionByZero, MalformedScalar, OversizedScalar, ZeroDenominator

_RATIONAL = r"-?\d+(?:/\d+)?"
_PURE_RE = re.compile(rf"({_RATIONAL})\Z")
_MIXED_RE = re.compile(rf"({_RATIONAL})([+-])({_RATIONAL})\*sqrt2\Z")
_ROOT_RE = re.compile(rf"([+-]?)({_RATIONAL})\*sqrt2\Z")

_SQRT2_FLOAT = math.sqrt(2.0)
_MAX_CANCELLATION = 2.0**20
_COMPONENT_TYPES = (int, Fraction)


class Scalar:
    """The exact real number ``a + b*sqrt(2)``."""

    __slots__ = ("_v",)  # the canonical (p, q, d) triple

    def __new__(cls, a: int | Fraction = 0, b: int | Fraction = 0) -> Scalar:
        # bool is an int subclass, but True is no component: Scalar(1, True) is refused.
        a_ok = isinstance(a, _COMPONENT_TYPES) and type(a) is not bool
        if not (a_ok and isinstance(b, _COMPONENT_TYPES) and type(b) is not bool):
            name, value = ("b", b) if a_ok else ("a", a)
            raise TypeError(f"Scalar component {name} must be int or Fraction, got {type(value).__name__}")
        na, da = a.as_integer_ratio()
        nb, db = b.as_integer_ratio()
        # Over the lcm of two reduced denominators gcd(p, q, d) is already one.
        d = math.lcm(da, db)
        s = _new(cls)
        _set(s, (na * (d // da), nb * (d // db), d))
        return s

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Scalar is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple[type[Scalar], tuple[Fraction, Fraction]]:
        return Scalar, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        """Rational part, reduced."""
        p, _, d = self._v
        return Fraction(p, d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(2), reduced."""
        _, q, d = self._v
        return Fraction(q, d)

    def sign(self) -> int:
        """Exact sign of the real value, in {-1, 0, +1}."""
        p, q, _ = self._v
        return _sign(p, q)

    def is_zero(self) -> bool:
        p, q, _ = self._v
        return not p and not q

    def to_float(self) -> float:
        """Double-precision approximation, for display only; never raises.

        A value past the float range gives ``inf`` or ``-inf``.
        """
        p, q, d = self._v
        try:
            rational = p / d
            x = rational + q / d * _SQRT2_FLOAT
        except OverflowError:
            rational = x = math.inf
        # Keep the float sum unless it is non-finite or cancelled (lost over 20 of 53 bits).
        if math.isfinite(x) and abs(x) * _MAX_CANCELLATION >= abs(rational):
            return x
        # A component or the sqrt(2) term is past the float range, or the
        # two nearly cancel: scale by 2**k with k large enough that the error
        # of the integer sqrt(2) cannot swamp
        # |p + q*sqrt(2)| >= 1 / (2*max(|p|, 2|q|)).
        k = 2 * max(p.bit_length(), q.bit_length()) + 64
        n = (p << k) + q * math.isqrt(2 << (2 * k))
        try:
            return n / (d << k)
        except OverflowError:
            return math.inf if n > 0 else -math.inf

    def __eq__(self, other: object) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # -- field operations ------------------------------------------------

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        if d1 == d2:
            return _reduced(p1 + p2, q1 + q2, d1)
        return _reduced(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        if d1 == d2:
            return _reduced(p1 - p2, q1 - q2, d1)
        return _reduced(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2)

    def __rsub__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> Scalar:
        p, q, d = self._v
        return _canonical(-p, -q, d)

    def __pos__(self) -> Scalar:
        return self

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        if not q1 and not q2:
            p = p1 * p2
            d = d1 * d2
            g = gcd(p, d)
            if g != 1:
                p, d = p // g, d // g
            return _canonical(p, 0, d)
        return _reduced(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        if type(other) is not Scalar:
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
        # d/(p + q*sqrt2) = d*(p - q*sqrt2)/(p^2 - 2 q^2)
        p, q, d = self._v
        norm = p * p - 2 * q * q
        if not norm:
            raise DivisionByZero("division by zero scalar")
        if norm < 0:
            return _reduced(-d * p, d * q, -norm)
        return _reduced(d * p, -d * q, norm)

    # -- order -----------------------------------------------------------

    def __lt__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return compare(self, other) < 0

    def __le__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return compare(self, other) <= 0

    def __gt__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return compare(self, other) > 0

    def __ge__(self, other: Scalar | int | Fraction) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


# Results the class computes itself are built without argument checks;
# the slot's own setter writes past the immutability guard.
_new = object.__new__
_set = Scalar._v.__set__


def _canonical(p: int, q: int, d: int) -> Scalar:
    """The Scalar (p + q*sqrt2)/d for a triple already in canonical form."""
    s = _new(Scalar)
    _set(s, (p, q, d))
    return s


def _reduced(p: int, q: int, d: int) -> Scalar:
    """The Scalar (p + q*sqrt2)/d for d > 0, brought to canonical form."""
    # d first: math.gcd skips the remaining arguments once it reaches 1.
    g = gcd(d, p, q)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _canonical(p, q, d)


def _common_denominator(values: Iterable[Scalar]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The values as ints ``(ps, qs, den)``: value i is
    ``(ps[i] + qs[i]*sqrt2) / den``, where den is the lcm of their
    denominators (1 for no values).

    When every value has the same denominator, an integer table or a
    vector of ONEs for one, ps and qs are read off the canonical triples
    by one ``zip`` and nothing is scaled; otherwise each part is scaled
    by den over its own denominator."""
    triples = [v._v for v in values]
    dens = {d for _, _, d in triples}
    if len(dens) == 1:
        ps, qs, ds = zip(*triples)
        return ps, qs, ds[0]
    den = lcm(*dens)
    return tuple([p * (den // d) for p, _, d in triples]), tuple([q * (den // d) for _, q, d in triples]), den


def _sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for ints p and q."""
    if not q:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if not p or (p > 0) == (q > 0):
        return sq
    # Opposite signs; p*p == 2*q*q is impossible because sqrt(2) is irrational.
    return -sq if p * p > 2 * q * q else sq


def _coerce(value: object) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return _canonical(value.numerator, 0, value.denominator)
    return None


def as_scalar(value: Scalar | int | Fraction | str) -> Scalar:
    """Coerce ints, Fractions and grammar strings to Scalar."""
    if type(value) is Scalar:
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    return coerced


def compare(x: Scalar, y: Scalar) -> int:
    """sign(x - y), exactly, without building the difference."""
    p1, q1, d1 = x._v
    p2, q2, d2 = y._v
    if d1 == d2:
        return _sign(p1 - p2, q1 - q2)
    return _sign(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1)


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


def _format_rational(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0, without the denominator when it is 1."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(s)) == s.

    Written from the canonical triple, with p/d and q/d each reduced by one
    gcd.  A component with more digits than the interpreter's int-to-str
    limit raises OversizedScalar.
    """
    p, q, d = s._v
    try:
        if not q:
            return _format_rational(p, d)
        root = f"{_format_rational(abs(q), d)}*sqrt2"
        if not p:
            return root if q > 0 else f"-{root}"
        return f"{_format_rational(p, d)}{'+' if q > 0 else '-'}{root}"
    except ValueError as exc:  # only str(int) can raise it: the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise OversizedScalar(f"a number has more digits than str() converts (limit {limit} digits)") from exc


ZERO = Scalar()
ONE = Scalar(Fraction(1))
HALF = Scalar(Fraction(1, 2))
SQRT2 = Scalar(Fraction(0), Fraction(1))
