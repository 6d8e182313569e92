"""Built-in boxes, models, expressions and constants.

Everything here is constructed in exact arithmetic from closed-form
components, so repeated construction is bit-identical.
"""

from __future__ import annotations

from fractions import Fraction

from .bell import chsh
from .boxes import Behavior, LabelSet, deterministic_behavior, uniform_behavior
from .frozen import Frozen
from .hvmodel import HiddenVariableModel
from .scalar import HALF, ONE, ZERO, Scalar

# The CHSH spaces, and the sign pattern that table1_box and pr_box follow.
_CHSH = chsh()
_SPACES = _CHSH.spaces


def alpha() -> Scalar:
    """The small cell value: half sin^2(pi/8) = 1/4 - (1/8)sqrt2.

    Constructed through the half-angle identity sin^2(pi/8) = (2-sqrt2)/4
    rather than numerically, so the value is exact.
    """
    return Scalar(Fraction(1, 4), Fraction(-1, 8))


def _chsh_pattern(large: Scalar, small: Scalar) -> Behavior:
    """The box on the CHSH spaces that is ``large`` where the CHSH
    coefficient is +1 and ``small`` where it is -1."""
    return Behavior(*_SPACES, tuple(large if c == ONE else small for c in _CHSH.coefficients))


def table1_box() -> Behavior:
    """The no-signalling box with CHSH value 2*sqrt2 and uniform marginals.

    Outcomes agree with probability 1/2 - alpha per cell (alpha on the
    flipped setting pair (0,3)), matching the maximal quantum violation.
    """
    return _chsh_pattern(HALF - alpha(), alpha())


def pr_box() -> Behavior:
    """Extremal no-signalling box: outcomes perfectly follow the CHSH
    sign pattern, value 4."""
    return _chsh_pattern(HALF, ZERO)


def noise_box() -> Behavior:
    """Uniform box on the CHSH spaces; every cell 1/4."""
    return uniform_behavior(*_SPACES)


def appendix_a_model() -> HiddenVariableModel:
    """Hidden-variable model with a non-trivial local part.

    Four deterministic pairs (the four constant outcome assignments) of
    weight alpha each, plus the pair (0,0) of weight 1-4*alpha whose
    kernel is the extremal box; the mixture reconstructs table1_box.
    """
    a_small = alpha()
    pairs: list[tuple[str, str]] = [("0", "0")]
    weights: list[Scalar] = [ONE - 4 * a_small]
    kernels: list[Behavior] = [pr_box()]
    for x0 in _SPACES[2]:
        for y0 in _SPACES[3]:
            pairs.append((x0, y0))
            weights.append(a_small)
            kernels.append(
                deterministic_behavior(*_SPACES, (x0, x0), (y0, y0))
            )
    return HiddenVariableModel(tuple(pairs), tuple(weights), tuple(kernels))


def signalling_box() -> Behavior:
    """Completely signalling correlations X=B, Y=A on binary alphabets.

    Outcomes must range over the counterpart's setting alphabet, so the
    spaces are {0,1} on all four slots rather than the CHSH labels.
    """
    binary = LabelSet(("0", "1"))
    return Behavior.from_function(
        binary, binary, binary, binary, lambda a, b, x, y: ONE if (x == b and y == a) else ZERO
    )


def classical_model() -> HiddenVariableModel:
    """Shared uniform coin: both parties output the coin value."""
    pairs = []
    weights = []
    kernels = []
    for c in _SPACES[2]:
        pairs.append((c, c))
        weights.append(HALF)
        kernels.append(deterministic_behavior(*_SPACES, (c, c), (c, c)))
    return HiddenVariableModel(tuple(pairs), tuple(weights), tuple(kernels))


class CatalogEntry(Frozen):
    key: str
    kind: str  # scalar | behavior | model | expression
    value: object
    note: str


def entries() -> dict[str, CatalogEntry]:
    """All built-in objects, keyed for the CLI."""
    listing = [
        CatalogEntry("alpha", "scalar", alpha(), "half sin^2(pi/8); the small cell of the maximally violating box"),
        CatalogEntry("table1-box", "behavior", table1_box(), "no-signalling box attaining CHSH value 2*sqrt2"),
        CatalogEntry("pr-box", "behavior", pr_box(), "extremal no-signalling box attaining CHSH value 4"),
        CatalogEntry("noise-box", "behavior", noise_box(), "uniform box; every cell 1/4"),
        CatalogEntry(
            "signalling-box",
            "behavior",
            signalling_box(),
            "completely signalling box X=B, Y=A on binary setting/outcome alphabets",
        ),
        CatalogEntry(
            "appendix-a-model",
            "model",
            appendix_a_model(),
            "hidden-variable model with non-trivial local part reconstructing table1-box",
        ),
        CatalogEntry(
            "classical-model",
            "model",
            classical_model(),
            "shared uniform coin; both parties output the coin value",
        ),
        CatalogEntry("chsh", "expression", chsh(), "CHSH correlator functional, sign flipped on (0,3)"),
    ]
    return {entry.key: entry for entry in listing}
