#!/usr/bin/env python3
"""Freeze the exact values of the default seed into perfbench/frozen.json.

Runs every item of every workload's set-up pool once, untimed, requires
the output gate to pass, and records the ``format_scalar`` values that
later runs with the default seed must reproduce exactly.  Run it from
the root of a checkout, only when the benchmark's inputs change:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from inputs import generate
from run import DEFAULT_SEED, FROZEN, SRC, WORK, gate, import_hvlab, run_pass
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    hv = import_hvlab()
    frozen = {}
    for name, workload in WORKLOADS.items():
        workdir = WORK / f"freeze-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            items = generate(hv, name, DEFAULT_SEED, workload.pool_rounds, workdir)
            outcomes = run_pass(hv, workload.run, items)
            failures = gate(hv, outcomes, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        frozen[name] = {o.item.key: workload.values(hv, o.item, o.result) for o in outcomes}
        print(f"{name}: {len(outcomes)} items frozen")
    FROZEN.write_text(json.dumps({"seed": DEFAULT_SEED, "values": frozen}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
