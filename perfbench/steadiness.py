#!/usr/bin/env python3
"""Steadiness report: each end-to-end metric over repeated runs.

Runs ``perfbench/run.py`` once per seed on each workload, one run at a
time, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json, with the number of
runs and the items each run measured.  Run it from the root of a
checkout:

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 --out perfbench/STEADINESS.md

With ``--runs 1`` it is the one command that prints every end-to-end
metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with its wall seconds added under ``wall_s``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="median and quartiles of each end-to-end metric")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--out", help="also write the report (markdown) to this file")
    args = parser.parse_args()
    seconds = BENCHMARK["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    lines = [
        f"{args.runs} runs per workload, seeds {seeds[0]}..{seeds[-1]}, {seconds} s each; "
        "spread = (Q3 - Q1) / median",
        "",
        "| workload | metric | unit | runs | median | Q1 | Q3 | spread | bound | values in seed order |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    failed = False
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, seconds) for seed in seeds]
        failed |= any(r["failed"] for r in results)
        for metric in BENCHMARK["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            lines.append(
                f"| {workload} | {metric['name']} | {metric['unit']} | {len(values)} | {mid:.4f} | "
                f"{q1:.4f} | {q3:.4f} | {(q3 - q1) / mid:.3f} | {metric['bound']} | "
                + " ".join(f"{v:.4g}" for v in values)
                + " |"
            )
        lines.append(
            f"| {workload} | items measured | count | {len(results)} | | | | | | "
            + " ".join(str(r["attempted"]) for r in results)
            + " |"
        )
        lines.append(
            f"| {workload} | wall per run | s | {len(results)} | {statistics.median(r['wall_s'] for r in results):.1f} "
            "| | | | | " + " ".join(f"{r['wall_s']:.1f}" for r in results) + " |"
        )
        print("\n".join(lines[-len(BENCHMARK["end_to_end"]) - 2 :]), flush=True)
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
