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

CHSH_SETTINGS_A = LabelSet(("0", "2"))
CHSH_SETTINGS_B = LabelSet(("1", "3"))
CHSH_OUTCOMES = LabelSet(("+1", "-1"))

_CHSH_SPACES = (CHSH_SETTINGS_A, CHSH_SETTINGS_B, CHSH_OUTCOMES, CHSH_OUTCOMES)


def alpha() -> Scalar:
    """The small cell value: half sin^2(pi/8) = 1/4 - (1/8)sqrt2.

    Constructed through the half-angle identity sin^2(pi/8) = (2-sqrt2)/4
    rather than numerically, so the value is exact.
    """
    return Scalar(Fraction(1, 4), Fraction(-1, 8))


def _chsh_sign(a: str, b: str) -> int:
    return -1 if (a, b) == ("0", "3") else 1


def _aligned(x: str, y: str) -> bool:
    return x == y


def table1_box() -> Behavior:
    """The no-signalling box with CHSH value 2*sqrt2 and uniform marginals.

    Outcomes agree with probability 1/2 - alpha per cell (alpha on the
    flipped setting pair (0,3)), matching the maximal quantum violation.
    """
    a_small = alpha()
    a_large = HALF - a_small

    def cell(a: str, b: str, x: str, y: str) -> Scalar:
        favoured = _aligned(x, y) if _chsh_sign(a, b) > 0 else not _aligned(x, y)
        return a_large if favoured else a_small

    return Behavior.from_function(*_CHSH_SPACES, cell)


def pr_box() -> Behavior:
    """Extremal no-signalling box: outcomes perfectly follow the CHSH
    sign pattern, value 4."""

    def cell(a: str, b: str, x: str, y: str) -> Scalar:
        favoured = _aligned(x, y) if _chsh_sign(a, b) > 0 else not _aligned(x, y)
        return HALF if favoured else ZERO

    return Behavior.from_function(*_CHSH_SPACES, cell)


def noise_box() -> Behavior:
    """Uniform box on the CHSH spaces; every cell 1/4."""
    return uniform_behavior(*_CHSH_SPACES)


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
    for x0 in CHSH_OUTCOMES:
        for y0 in CHSH_OUTCOMES:
            pairs.append((x0, y0))
            weights.append(a_small)
            kernels.append(
                deterministic_behavior(*_CHSH_SPACES, (x0, x0), (y0, y0))
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
    for c in CHSH_OUTCOMES:
        pairs.append((c, c))
        weights.append(HALF)
        kernels.append(deterministic_behavior(*_CHSH_SPACES, (c, c), (c, c)))
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
