"""Host speed reference for the end-to-end timings.

On a shared host the CPU time a process gets per wall-clock second
drifts: one fixed hvlab computation ran 1.6x slower for spells of about
half a minute and then recovered, with the process on the CPU the whole
time.  A spell that long covers a whole run, so repeating an input
within the run cannot remove it.

The benchmark therefore times a fixed reference task, exact rational
Gauss-Jordan elimination with ``fractions.Fraction`` (the arithmetic
hvlab's scalars are built on, and nothing of hvlab itself), once after
every input, and scales each input's timing by
``(NOMINAL_S / median of the three reference calls nearest it) ** EXPONENT``.
The median drops a reference call that a short hiccup of the host hits
(a few tens of milliseconds, 1.7x slower).  Nearer calls tracked the
host better than the median of a whole round's calls, and that better
than a median over several rounds: the host's speed changes within
seconds.

The reference, a small tight loop, slows more in a slow spell than the
workloads do.  Regressing the log of each round's time (same inputs,
100 to 120 seconds back to back) on the log of the round's median
reference time gave slopes of 0.52 (``content``), 0.76 (``nsbound``),
0.83 (``localbound``) and 0.38 (``cli``, whose commands run in child
processes); EXPONENT is one value for all.  With it the round-to-round
coefficient of variation of the same inputs went from 0.109 to 0.055
(``content``), 0.173 to 0.076 (``nsbound``), 0.164 to 0.052
(``localbound``) and 0.087 to 0.084 (``cli``); with exponent 1 it was
0.070, 0.085, 0.049 and 0.103.  An exponent of 0.4 for ``cli`` alone,
closer to its slope, left a heavier slow spell 1.2x in its figures (ten
runs: ``p50_ms`` spread 0.150), so one exponent serves all.  For a given state of
the host a scaled time is proportional to the raw one, so a change of
the program's own cost shows in full.  A scaled time reads as the time
the input takes when the reference takes ``NOMINAL_S``; the raw times
are printed beside them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The reference task's median time on the machine the benchmark was
# written on (2 vCPU VM, Python 3.11) in a quiet spell.  Only ratios to it
# matter.
NOMINAL_S = 0.00206
EXPONENT = 0.75
# Reference calls around one set-up.
CALLS = 7
SIZE = 9
MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(SIZE + 1)) for i in range(SIZE)
)


def reference_task() -> list[list[Fraction]]:
    """Reduce the fixed SIZE x (SIZE + 1) rational matrix to reduced row echelon form."""
    rows = [list(row) for row in MATRIX]
    for col in range(SIZE):
        pivot_row = next(r for r in range(col, SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [value / pivot for value in rows[col]]
        for r in range(SIZE):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


def call() -> float:
    """Seconds of one reference call."""
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def sample() -> list[float]:
    """Seconds of CALLS reference calls."""
    return [call() for _ in range(CALLS)]


def scale(times: list[float]) -> float:
    """Factor for timings taken among reference calls of these ``times``."""
    return (NOMINAL_S / statistics.median(times)) ** EXPONENT
