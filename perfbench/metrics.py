"""Metric names, units and the order statistics the benchmark reports.

The names are shared by all four workloads, so each run prints every
name; a count or share of a layer that a workload never reaches is 0.
BENCHMARK.json lists the same names (the benchmark's tests compare them).
"""

from __future__ import annotations

import math
import statistics

from inputs import CLI_COMMANDS, KINDS
from tracing import BUSY_FUNCTIONS, COUNTED_FUNCTIONS, SELF_FUNCTIONS, TIMED_LAYERS

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{function}.calls", "count") for function in COUNTED_FUNCTIONS)
    + tuple((f"{function}.busy_share", "fraction") for function in BUSY_FUNCTIONS)
    + tuple((f"{function}.self_share", "fraction") for function in SELF_FUNCTIONS)
    + (
        ("bell.local_bound.strategies", "count"),
        ("simplex.lp.cells", "count"),
        ("simplex.solution.max_bits", "bit"),
        ("scalar.mul.calls", "count"),
        ("scalar.add.calls", "count"),
        ("scalar.div.calls", "count"),
        ("scalar.sign.calls", "count"),
        ("scalar.mul.sqrt2_share", "fraction"),
        ("formats.load.busy_share", "fraction"),
        ("formats.load.bytes", "byte"),
        ("formats.save.busy_share", "fraction"),
        ("formats.save.bytes", "byte"),
    )
    + tuple((f"layer.{layer}.self_share", "fraction") for layer in TIMED_LAYERS)
    + (("cli.interpreter_s", "s"), ("cli.import_s", "s"))
    + tuple((f"cli.{command}.wall_ms", "ms") for command in CLI_COMMANDS)
    + tuple((f"ladder.{step}.{kind}.p50_ms", "ms") for step in (1, 2, 3) for kind in KINDS)
    + (("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_share", "fraction"))
)


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index], len(ordered) - 1 - index


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
