"""Shared exact random generators and hypothesis strategies for the tests.

Everything here produces exact rational data (Fractions fed into
Scalars), so property assertions can demand bit-exact equality.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from hvlab.boxes import Behavior, LabelSet, deterministic_behavior, mix
from hvlab.hvmodel import HiddenVariableModel
from hvlab.scalar import HALF, Scalar

CHSH_SPACES = (
    LabelSet(("0", "2")),
    LabelSet(("1", "3")),
    LabelSet(("+1", "-1")),
    LabelSet(("+1", "-1")),
)

SMALL_SPACES = (
    LabelSet(("a0", "a1")),
    LabelSet(("b0",)),
    LabelSet(("x0", "x1")),
    LabelSet(("y0", "y1", "y2")),
)

# Two settings and sixteen outcomes per side: 16**2 * 16**2 = 65 536
# strategies, within the strategy budget, but 65 536 vertices of 1024
# cells are past the vertex cell budget.
WIDE_SPACES = (
    LabelSet(("a0", "a1")),
    LabelSet(("b0", "b1")),
    LabelSet(tuple(f"x{i}" for i in range(16))),
    LabelSet(tuple(f"y{i}" for i in range(16))),
)

# Six settings and three outcomes per side: 3**6 * 3**6 = 531 441
# deterministic strategies, past the enumeration size budget.
OVERSIZED_SPACES = (
    LabelSet(tuple(f"a{i}" for i in range(6))),
    LabelSet(tuple(f"b{i}" for i in range(6))),
    LabelSet(("x0", "x1", "x2")),
    LabelSet(("y0", "y1", "y2")),
)


def comma_label_box() -> Behavior:
    """Half each of two vertices whose output tables, written as hidden-pair
    labels, coincide: ("0", "1") by ("p", "q") joins to ("0,1", "p,q"),
    and the constant ("0,1", "0,1") by ("p,q", "p,q") collapses to it."""
    settings = LabelSet(("0", "1"))
    spaces = (settings, settings, LabelSet(("0", "1", "0,1")), LabelSet(("p", "q", "p,q")))
    return mix(
        [
            (HALF, deterministic_behavior(*spaces, ("0", "1"), ("p", "q"))),
            (HALF, deterministic_behavior(*spaces, ("0,1", "0,1"), ("p,q", "p,q"))),
        ]
    )


def numbered_spaces(na: int, nb: int, nx: int, ny: int) -> tuple[LabelSet, ...]:
    """Spaces with the given numbers of settings and outcomes per side,
    labelled a0, a1, ..., b0, ..., x0, ..., y0, ..."""
    return tuple(LabelSet(tuple(f"{name}{i}" for i in range(k))) for name, k in zip("abxy", (na, nb, nx, ny)))


# -- plain random.Random generators (for counted randomized suites) ---------


def rational_distribution(rng: random.Random, count: int, spread: int = 9) -> list[Fraction]:
    """Exact nonnegative rationals summing to one."""
    raw = [rng.randint(0, spread) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    total = sum(raw)
    return [Fraction(value, total) for value in raw]


def random_valid_behavior(rng: random.Random, spaces) -> Behavior:
    """Row-normalized random table; valid but generically signalling."""
    sa, sb, ox, oy = spaces
    table: list[Scalar] = []
    for _ in range(len(sa) * len(sb)):
        table.extend(Scalar(f) for f in rational_distribution(rng, len(ox) * len(oy)))
    return Behavior(sa, sb, ox, oy, tuple(table))


def random_product_box(rng: random.Random, spaces) -> Behavior:
    """P(x|a) * Q(y|b) with random exact one-side distributions."""
    sa, sb, ox, oy = spaces
    p_alice = {a: rational_distribution(rng, len(ox)) for a in sa}
    p_bob = {b: rational_distribution(rng, len(oy)) for b in sb}
    table = tuple(
        Scalar(p_alice[a][ix] * p_bob[b][iy])
        for a in sa
        for b in sb
        for ix in range(len(ox))
        for iy in range(len(oy))
    )
    return Behavior(sa, sb, ox, oy, table)


def random_ns_behavior(rng: random.Random, spaces, components: int = 3) -> Behavior:
    """Random mixture of product boxes; no-signalling by construction."""
    weights = rational_distribution(rng, components)
    boxes = [random_product_box(rng, spaces) for _ in range(components)]
    table = [Fraction(0)] * len(boxes[0].table)
    for weight, box in zip(weights, boxes):
        for i, cell in enumerate(box.table):
            table[i] += weight * cell.a
    sa, sb, ox, oy = spaces
    return Behavior(sa, sb, ox, oy, tuple(Scalar(f) for f in table))


def random_local_model(rng: random.Random, spaces, n_pairs: int = 3) -> HiddenVariableModel:
    """Random weights over pairs with random no-signalling kernels."""
    pairs = tuple((f"u{i}", f"v{i}") for i in range(n_pairs))
    weights = tuple(Scalar(f) for f in rational_distribution(rng, n_pairs))
    kernels = tuple(random_ns_behavior(rng, spaces) for _ in range(n_pairs))
    return HiddenVariableModel(pairs, weights, kernels)


# -- hypothesis strategies ---------------------------------------------------


def small_fractions(bound: int = 4, max_denominator: int = 8):
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=max_denominator)


scalars = st.builds(Scalar, small_fractions(), small_fractions())
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())

_label_alphabet = "abxyz012+-"


def label_sets(min_size: int = 1, max_size: int = 3):
    return st.lists(
        st.text(alphabet=_label_alphabet, min_size=1, max_size=3),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    ).map(lambda labels: LabelSet(tuple(labels)))


@st.composite
def spaces_strategy(draw, max_settings: int = 2, max_outcomes: int = 3):
    return (
        draw(label_sets(1, max_settings)),
        draw(label_sets(1, max_settings)),
        draw(label_sets(1, max_outcomes)),
        draw(label_sets(1, max_outcomes)),
    )


@st.composite
def valid_behaviors(draw, spaces=None):
    """Exact valid behavior; generically signalling."""
    if spaces is None:
        spaces = draw(spaces_strategy())
    sa, sb, ox, oy = spaces
    cells_per_row = len(ox) * len(oy)
    table: list[Scalar] = []
    for _ in range(len(sa) * len(sb)):
        raw = draw(
            st.lists(st.integers(0, 6), min_size=cells_per_row, max_size=cells_per_row)
        )
        if sum(raw) == 0:
            raw = raw[:-1] + [1]
        total = sum(raw)
        table.extend(Scalar(Fraction(value, total)) for value in raw)
    return Behavior(sa, sb, ox, oy, tuple(table))


def _distribution_lists(draw, count: int):
    raw = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    if sum(raw) == 0:
        raw = raw[:-1] + [1]
    total = sum(raw)
    return [Fraction(value, total) for value in raw]


@st.composite
def ns_behaviors(draw, spaces=None, components: int = 2):
    """Exact no-signalling behavior: a mixture of product boxes."""
    if spaces is None:
        spaces = draw(spaces_strategy())
    sa, sb, ox, oy = spaces
    weights = _distribution_lists(draw, components)
    table = [Fraction(0)] * (len(sa) * len(sb) * len(ox) * len(oy))
    for weight in weights:
        p_alice = {a: _distribution_lists(draw, len(ox)) for a in sa}
        p_bob = {b: _distribution_lists(draw, len(oy)) for b in sb}
        i = 0
        for a in sa:
            for b in sb:
                for ix in range(len(ox)):
                    for iy in range(len(oy)):
                        table[i] += weight * p_alice[a][ix] * p_bob[b][iy]
                        i += 1
    return Behavior(sa, sb, ox, oy, tuple(Scalar(f) for f in table))


@st.composite
def local_models(draw, spaces=None, max_pairs: int = 3):
    if spaces is None:
        spaces = draw(spaces_strategy())
    n_pairs = draw(st.integers(1, max_pairs))
    pairs = tuple((f"u{i}", f"v{i}") for i in range(n_pairs))
    weights = tuple(Scalar(f) for f in _distribution_lists(draw, n_pairs))
    kernels = tuple(draw(ns_behaviors(spaces=spaces)) for _ in range(n_pairs))
    return HiddenVariableModel(pairs, weights, kernels)


def all_assignments(*label_sets: LabelSet):
    return product(*(ls.labels for ls in label_sets))
