#!/usr/bin/env python3
"""hvlab benchmark: certified exact solves on a ladder of box sizes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload content --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

- ``content``    max_local_content, verify_decomposition, check_certificate
- ``nsbound``    evaluate plus ns_bound
- ``localbound`` local_bound by strategy enumeration (no LP)
- ``cli``        the README command chain, one fresh process per command

Each is a closed loop with one caller.  With ``--trace 0`` the run
measures for ``--seconds`` and prints the end-to-end metrics; every
timing is scaled by the host speed measured around it
(``hostspeed.py``), so that a slow spell of a shared host does not
decide a figure.  With ``--trace 1`` it runs a fixed number of rounds
twice, untraced and then traced, and prints the per-layer metrics and
the tracing overhead.
Every output is checked exactly; the last stdout line is one JSON object
and the exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FROZEN = HERE / "frozen.json"
# Exact values of this seed are frozen in frozen.json.
DEFAULT_SEED = 1
# Set-up (import plus input generation) is repeated this many times at the
# start, the middle and the end of the timed run, and its median reported.
SETUPS_PER_BREAK = 2
# A timed run stops between rounds once it has taken this many times --seconds.
OVERRUN = 1.5
# Tail percentile: the highest of 75, 90 and 99 that leaves at least ten
# samples beyond it in a run of every workload on the code the benchmark
# was written for; fixed, so that two commits compare the same percentile.
TAIL = 0.75

import hostspeed  # noqa: E402
from inputs import CLI_COMMANDS, KINDS, Item, generate  # noqa: E402
from metrics import END_TO_END, PER_LAYER, median, percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, run_cli_inprocess  # noqa: E402


@dataclass
class Outcome:
    item: Item
    seconds: float
    result: Any = None
    error: str = ""
    # Host speed factor at the time of the timing (hostspeed.scale).
    scale: float = 1.0


def import_hvlab():
    """Import hvlab afresh from the checkout's src and return the package."""
    for name in [n for n in sys.modules if n == "hvlab" or n.startswith("hvlab.")]:
        del sys.modules[name]
    for name in ("hvlab", "hvlab.formats", "hvlab.cli"):
        importlib.import_module(name)
    hv = sys.modules["hvlab"]
    if not Path(hv.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hvlab was imported from {hv.__file__}, not from {SRC}")
    return hv


def setup(workload: Workload, seed: int, workdir: Path, times: list[float], reps: int = 1):
    """Set up ``reps`` times, appending each one's scaled seconds to ``times``;
    return the last one's package and items."""
    for _ in range(reps):
        before = hostspeed.sample()
        start = perf_counter()
        hv = import_hvlab()
        items = generate(hv, workload.name, seed, workload.pool_rounds, workdir)
        seconds = perf_counter() - start
        times.append(seconds * hostspeed.scale(before + hostspeed.sample()))
        gc.collect()
    return hv, items


def run_one(hv, run, item: Item) -> Outcome:
    start = perf_counter()
    try:
        result = run(hv, item)
    except Exception as exc:  # an operation that fails is counted, and the run goes on
        return Outcome(item, perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Outcome(item, perf_counter() - start, result)


def run_pass(hv, run, items: list[Item], tracer: Tracer | None = None) -> list[Outcome]:
    if tracer is None:
        return [run_one(hv, run, item) for item in items]
    outcomes = []
    for item in items:
        with tracer.item(item.key):
            outcomes.append(run_one(hv, run, item))
    return outcomes


def timed_run(
    workload: Workload, seed: int, seconds: float, workdir: Path, lines: list[str]
) -> tuple[float, Any, list[Outcome]]:
    """Set-ups and round(seconds / round_s) whole rounds, cycling the pool;
    the median set-up seconds, the package and the outcomes.

    A fixed number of whole rounds keeps the mix of rungs and kinds exact
    and gives a seed the same inputs on every run, whatever the speed of
    the host.  A host speed reference call between items scales each
    timing by the median of the three calls nearest it (hostspeed.py).
    The set-ups run in three batches, at the start, half way and at the
    end, so that their median does not rest on one moment of the host.
    On a host far slower than the one the round times were taken on, the
    run stops early rather than run past OVERRUN times ``seconds``.
    """
    times: list[float] = []
    hv, items = setup(workload, seed, workdir, times, SETUPS_PER_BREAK)
    rounds: dict[int, list[Item]] = {}
    for item in items:
        rounds.setdefault(item.round, []).append(item)
    pool = [rounds[r] for r in sorted(rounds)]
    count = max(1, round(seconds / workload.round_s))
    outcomes: list[Outcome] = []
    # reference[i] is the call just before outcomes[i], reference[i + 1] the one after it.
    reference = [hostspeed.call()]
    start = perf_counter()
    for done in range(count):
        if perf_counter() - start > OVERRUN * seconds:
            lines.append(f"warning: stopped after {done} of {count} rounds, past {OVERRUN} x --seconds")
            break
        for item in pool[done % len(pool)]:
            outcomes.append(run_one(hv, workload.run, item))
            reference.append(hostspeed.call())
        gc.collect()
        if done + 1 == count // 2:
            setup(workload, seed, workdir, times, SETUPS_PER_BREAK)
    for i, outcome in enumerate(outcomes):
        outcome.scale = hostspeed.scale(reference[i : i + 3])
    setup(workload, seed, workdir, times, 3 * SETUPS_PER_BREAK - len(times))
    return median(times), hv, outcomes


def gate(hv, outcomes: list[Outcome], frozen: dict | None) -> list[str]:
    """Exact output check; one line per failed outcome."""
    failures = []
    for outcome in outcomes:
        item = outcome.item
        workload = WORKLOADS[item.workload]
        expected = (frozen or {}).get(item.workload, {}).get(item.key)
        if outcome.error:
            problems = [outcome.error]
        else:
            problems = workload.check(hv, item, outcome.result)
            values = workload.values(hv, item, outcome.result) if expected is not None else None
            if values != expected:
                problems.append(f"exact values {values} differ from the frozen {expected}")
        if problems:
            failures.append(f"{item.workload} item {item.key} ({item.rung} {item.kind}): {'; '.join(problems)}")
    return failures


def load_frozen(seed: int) -> dict | None:
    """Frozen exact values per workload and item, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(FROZEN.read_text(encoding="utf-8"))["values"]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (kB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def ladder(workload: Workload, outcomes: list[Outcome]) -> dict[str, float]:
    """Median latency per step of the workload's rung ladder and kind."""
    out = {}
    for step, rung in enumerate(workload.ladder, 1):
        for kind in KINDS:
            times = [o.seconds for o in outcomes if o.item.rung == rung and o.item.kind == kind]
            out[f"ladder.{step}.{kind}.p50_ms"] = median(times) * 1000
    return out


def interpreter_timings(reps: int = 5) -> tuple[float, float]:
    """Median wall of a bare interpreter, and the extra for ``import hvlab.cli``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def wall(code: str) -> float:
        times = []
        for _ in range(reps):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(perf_counter() - start)
        return median(times)

    bare = wall("pass")
    return bare, wall("import hvlab.cli") - bare


def end_to_end(setup_s: float, outcomes: list[Outcome], lines: list[str]) -> dict:
    raw = [o.seconds for o in outcomes]
    times = [o.seconds * o.scale for o in outcomes]
    busy = sum(times)
    tail, beyond = percentile(times, TAIL)
    values = {
        "setup_s": setup_s,
        "items_per_s": len(times) / busy,
        "p50_ms": median(times) * 1000,
        "tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {3 * SETUPS_PER_BREAK} set-ups",
        "items_per_s": f"{len(times)} items in {busy:.2f} s busy; unscaled {len(raw) / sum(raw):.4f}",
        "p50_ms": f"{len(times)} samples; unscaled {median(raw) * 1000:.4f}",
        "tail_ms": f"p{TAIL * 100:g}, {beyond} samples beyond it, {len(times)} samples; "
        f"unscaled {percentile(raw, TAIL)[0] * 1000:.4f}",
        "peak_rss_mb": "this process plus its largest child",
    }
    if beyond < 10:
        lines.append(f"warning: only {beyond} samples beyond the tail percentile")
    scales = [o.scale for o in outcomes]
    lines.append(
        f"host speed factor ((nominal / reference time) ** {hostspeed.EXPONENT}) per item: median {median(scales):.4f}, "
        f"range {min(scales):.4f}..{max(scales):.4f}; times below are scaled by it"
    )
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        lines.append(f"  {name:<12} {values[name]:12.4f} {units[name]:<4} ({notes[name]})")
    return values


def per_layer(hv, workload: Workload, items: list[Item], seed: int, workdir: Path, lines: list[str]):
    """Untraced then traced passes over the first ``trace_rounds`` rounds.

    The cli figures (interpreter and import time, wall time per command)
    come from fresh processes and are measured in every traced run: on
    the cli workload's own rounds, elsewhere on one round of its inputs.
    """
    trace_items = [item for item in items if item.round < workload.trace_rounds]
    cli_items = trace_items if workload.name == "cli" else generate(hv, "cli", seed, 1, workdir)
    chain = run_pass(hv, WORKLOADS["cli"].run, cli_items)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for command in CLI_COMMANDS:
        times = [o.seconds for o in chain if o.item.data["command"] == command]
        values[f"cli.{command}.wall_ms"] = median(times) * 1000
    values["cli.interpreter_s"], values["cli.import_s"] = interpreter_timings()
    run = run_cli_inprocess if workload.name == "cli" else workload.run
    untraced = run_pass(hv, run, trace_items)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(hv, run, trace_items, tracer)
    finally:
        tracer.uninstall()
    values.update(ladder(workload, chain if workload.name == "cli" else untraced))
    values.update(tracer.summary())
    values["trace.untraced_s"] = sum(o.seconds for o in untraced)
    values["trace.traced_s"] = sum(o.seconds for o in traced)
    values["trace.overhead_share"] = values["trace.traced_s"] / values["trace.untraced_s"] - 1
    spans_file = WORK / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(spans_file, {"workload": workload.name, "seed": seed, "items": len(trace_items)})
    lines.append(
        f"traced {len(trace_items)} items ({workload.trace_rounds} rounds): untraced "
        f"{values['trace.untraced_s']:.3f} s, traced {values['trace.traced_s']:.3f} s, "
        f"overhead {values['trace.overhead_share']:.1%}; {len(tracer.spans)} spans in {spans_file.name}"
    )
    lines.append("counts and shares of a layer this workload does not reach read 0")
    return values, chain + untraced + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hvlab" / "__init__.py").is_file():
        print(f"no hvlab sources under {SRC}; run from the root of an hvlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines = [f"workload {workload.name}, seed {args.seed}, trace {args.trace}"]
    try:
        if args.trace:
            hv, items = setup(workload, args.seed, workdir, [])
            metrics, outcomes = per_layer(hv, workload, items, args.seed, workdir, lines)
        else:
            setup_s, hv, outcomes = timed_run(workload, args.seed, args.seconds, workdir, lines)
            metrics = end_to_end(setup_s, outcomes, lines)
        failures = gate(hv, outcomes, load_frozen(args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.append(f"  fail_ratio   {len(failures)}/{len(outcomes)} = {len(failures) / len(outcomes):.4f}")
    lines.append("no waiting metric: one closed-loop caller, no queue or lock")
    lines += failures[:20]
    units = dict(END_TO_END + PER_LAYER)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
