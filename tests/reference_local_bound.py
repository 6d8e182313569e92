"""Reference local bound: the best-response search over Scalar sums.

This is the search hvlab shipped before ``hvlab.bell.local_bound`` moved
to ints over one common denominator; it is kept here, unchanged, only so
that the tests can demand the same value and the same witness strategy
from the int kernel.  Every partial sum is a Scalar addition and every
decision an exact Scalar comparison.
"""

from __future__ import annotations

from itertools import product

from hvlab.bell import BellExpression, DeterministicStrategy
from hvlab.boxes import _strategy_count
from hvlab.scalar import ZERO, Scalar, compare


def local_bound(expression: BellExpression) -> tuple[Scalar, DeterministicStrategy]:
    """Exact maximum over all deterministic local strategies.

    Ties are broken by the first strategy in lexicographic order of the
    (Alice, Bob) output tables, so the witness is deterministic.  The
    search keeps that witness: Alice's tables are walked in order and a
    total replaces the best only when strictly greater, and Bob's best
    replies to one table form a product over his settings, whose first
    element takes the first maximising outcome at each setting.
    """
    _strategy_count(expression.spaces)
    settings_a, settings_b, outcomes_x, outcomes_y = expression.spaces
    nx = len(outcomes_x)
    # gains[ib][iy][ia][ix] = c(a, b, x, y)
    gains = [
        [
            [tuple(expression.at(ia, ib, ix, iy) for ix in range(nx)) for ia in range(len(settings_a))]
            for iy in range(len(outcomes_y))
        ]
        for ib in range(len(settings_b))
    ]
    best_value: Scalar | None = None
    best_tables: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for xs in product(range(nx), repeat=len(settings_a)):
        total = ZERO
        ys = []
        for by_outcome in gains:
            reply_value: Scalar | None = None
            for iy, by_setting in enumerate(by_outcome):
                value = ZERO
                for row, ix in zip(by_setting, xs):
                    value = value + row[ix]
                if reply_value is None or compare(value, reply_value) > 0:
                    reply_value, reply = value, iy
            total = total + reply_value
            ys.append(reply)
        if best_value is None or compare(total, best_value) > 0:
            best_value, best_tables = total, (xs, tuple(ys))
    xs, ys = best_tables
    return best_value, DeterministicStrategy(
        tuple(outcomes_x.labels[ix] for ix in xs), tuple(outcomes_y.labels[iy] for iy in ys)
    )
