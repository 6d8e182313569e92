"""Independent exact arithmetic for the benchmark's output gate.

A value ``a + b*sqrt2`` is held as a pair of Fractions.  Nothing here
imports hvlab, so the checks built on it (contractions and a
best-response local bound) do not share code with the program they
check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Q2:
    """The exact real ``a + b*sqrt2`` with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def of(cls, scalar) -> "Q2":
        """Read any object with rational ``a`` and ``b`` fields."""
        return cls(scalar.a, scalar.b)

    def __add__(self, other: "Q2") -> "Q2":
        return Q2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Q2") -> "Q2":
        return Q2(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Q2") -> "Q2":
        return Q2(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Q2) and self.a == other.a and self.b == other.b

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        # opposite signs: compare a^2 with 2 b^2 (never equal, sqrt2 is irrational)
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __lt__(self, other: "Q2") -> bool:
        return (self - other).sign() < 0

    def __repr__(self) -> str:
        return f"Q2({self.a}, {self.b})"


ZERO = Q2()


def contraction(coefficients, table) -> Q2:
    """sum c_i * p_i over two equal-length sequences of scalars."""
    total = ZERO
    for c, p in zip(coefficients, table):
        total = total + Q2.of(c) * Q2.of(p)
    return total


def best_response_local_bound(coefficients, shape: tuple[int, int, int, int]) -> Q2:
    """Maximum of a Bell functional over deterministic local strategies.

    For each of Alice's strategies, Bob's best reply splits into one
    independent choice per setting, so only |X|^|A| strategies are
    enumerated.  ``coefficients`` is row-major over (a, b, x, y).
    """
    na, nb, nx, ny = shape
    c = [Q2.of(v) for v in coefficients]

    def at(ia: int, ib: int, ix: int, iy: int) -> Q2:
        return c[((ia * nb + ib) * nx + ix) * ny + iy]

    best = None
    for outputs_a in product(range(nx), repeat=na):
        total = ZERO
        for ib in range(nb):
            reply = None
            for iy in range(ny):
                value = ZERO
                for ia in range(na):
                    value = value + at(ia, ib, outputs_a[ia], iy)
                if reply is None or reply < value:
                    reply = value
            total = total + reply
        if best is None or best < total:
            best = total
    return best
