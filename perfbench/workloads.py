"""What one item of each workload runs, and how its output is checked.

``run`` is the timed part and calls only hvlab's public functions (or
the ``hvlab`` CLI).  ``check`` is the exact output gate, run after
timing: it returns a list of problems, empty when the output is right.
``values`` gives the exact values (``format_scalar`` strings) that are
frozen for the default seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from exact import Q2, best_response_local_bound, contraction
from inputs import RUNGS, Item

@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Any, Item], Any]
    check: Callable[[Any, Item, Any], list[str]]
    values: Callable[[Any, Item, Any], dict[str, str]]
    # Rounds generated at set-up; a run cycles through them.
    pool_rounds: int
    # Rounds in the traced run, fixed so that its counts repeat exactly.
    trace_rounds: int
    # The workload's three rungs, for the ladder.<step>.<kind>.p50_ms figures.
    ladder: tuple[str, str, str]
    # Wall seconds of one round on the machine the benchmark was written
    # on; a run of --seconds times round(seconds / round_s) rounds.
    round_s: float


# -- content -------------------------------------------------------------------


def run_content(hv, item: Item):
    box = item.data["box"]
    decomposition = hv.max_local_content(box)
    report = hv.verify_decomposition(decomposition, box)
    problem = hv.content_lp_problem(box, hv.enumerate_local_vertices(box.spaces))
    return decomposition, report.ok, hv.check_certificate(problem, decomposition.certificate)


def check_content(hv, item: Item, result) -> list[str]:
    decomposition, verified, certified = result
    problems = []
    if not verified:
        problems.append("verify_decomposition failed")
    if not certified:
        problems.append("check_certificate failed")
    if Q2.of(decomposition.local_content) != Q2.of(item.data["content"]):
        problems.append("local content differs from the content the box was built with")
    return problems


def values_content(hv, item: Item, result) -> dict[str, str]:
    return {"local_content": hv.format_scalar(result[0].local_content)}


# -- nsbound -------------------------------------------------------------------


def run_nsbound(hv, item: Item):
    expression = item.data["expression"]
    return hv.evaluate(expression, item.data["box"]), hv.ns_bound(expression)


def check_nsbound(hv, item: Item, result) -> list[str]:
    value, bound = Q2.of(result[0]), Q2.of(result[1])
    expression = item.data["expression"]
    problems = []
    if value != contraction(expression.coefficients, item.data["box"].table):
        problems.append("evaluate differs from the direct contraction")
    if bound < value:
        problems.append("a no-signalling box exceeds ns_bound")
    if bound < best_response_local_bound(expression.coefficients, RUNGS[item.rung]):
        problems.append("local_bound > ns_bound")
    return problems


def values_nsbound(hv, item: Item, result) -> dict[str, str]:
    return {"value": hv.format_scalar(result[0]), "ns_bound": hv.format_scalar(result[1])}


# -- localbound ------------------------------------------------------------------


def run_localbound(hv, item: Item):
    return hv.local_bound(item.data["expression"])


def _strategy_value(expression, strategy) -> Q2:
    sa, sb, ox, oy = expression.spaces
    nx, ny = len(ox), len(oy)
    c = expression.coefficients
    total = Q2()
    for ia, x in enumerate(strategy.outputs_a):
        for ib, y in enumerate(strategy.outputs_b):
            index = ((ia * len(sb) + ib) * nx + ox.position(x)) * ny + oy.position(y)
            total = total + Q2.of(c[index])
    return total


def check_localbound(hv, item: Item, result) -> list[str]:
    value, strategy = Q2.of(result[0]), result[1]
    expression = item.data["expression"]
    problems = []
    if value != best_response_local_bound(expression.coefficients, RUNGS[item.rung]):
        problems.append("local_bound differs from the best-response bound")
    if _strategy_value(expression, strategy) != value:
        problems.append("the witness strategy does not attain local_bound")
    return problems


def values_localbound(hv, item: Item, result) -> dict[str, str]:
    strategy = result[1]
    return {
        "local_bound": hv.format_scalar(result[0]),
        "strategy": ",".join(strategy.outputs_a) + "|" + ",".join(strategy.outputs_b),
    }


# -- cli -----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def cli_env(src: str) -> dict[str, str]:
    """The environment of a CLI process: the caller's, importing hvlab from ``src``."""
    return {**os.environ, "PYTHONPATH": src}


def run_cli_subprocess(hv, item: Item):
    """One fresh ``python -m hvlab.cli`` process, as a user runs it."""
    done = subprocess.run(
        [sys.executable, "-m", "hvlab.cli", *item.data["argv"]],
        env=cli_env(str(Path(hv.__file__).parent.parent)),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    return done.returncode, done.stdout, done.stderr


def run_cli_inprocess(hv, item: Item):
    """``hvlab.cli.main(argv)`` in this process, for the traced run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hv.cli.main(item.data["argv"])
    return code, out.getvalue(), err.getvalue()


def _expected(hv, item: Item) -> dict[str, Any]:
    """Library results the CLI reports must match, once per round."""
    objects = item.data["objects"]
    if "expected" not in objects:
        model, box, box2222 = objects["model"], objects["box"], objects["box2222"]
        objects["expected"] = {
            "catalog": [(entry.key, entry.kind) for entry in hv.catalog.entries().values()],
            "trivial": hv.check_triviality(model, against=box)[0],
            "trivial_alone": hv.check_triviality(model)[0],
            "nontrivial_weight": hv.format_scalar(hv.nontrivial_weight(model)),
            "chsh_value": contraction(hv.chsh().coefficients, box2222.table),
            "guess": {
                setting: hv.format_scalar(hv.guessing_probability(model, "alice", setting))
                for setting in model.spaces[0]
            },
        }
    return objects["expected"]


def check_cli(hv, item: Item, result) -> list[str]:
    code, stdout, stderr = result
    if code != 0:
        return [f"exit code {code}, expected 0: {stderr.strip()[:200]}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not a JSON report"]
    expected = _expected(hv, item)
    command = item.data["command"]
    ok = {
        "catalog_list": lambda: [(e["key"], e["kind"]) for e in report["entries"]] == expected["catalog"],
        "check_box": lambda: report == {"kind": "box", "valid": True, "no_signalling": True},
        "check_model_alone": lambda: report["kind"] == "model"
        and report["valid"] is True
        and report["local"] is True
        and report["trivial"] is expected["trivial_alone"]
        and report["nontrivial_weight"] == expected["nontrivial_weight"],
        "check_model": lambda: report["kind"] == "model"
        and report["valid"] is True
        and report["local"] is True
        and report["trivial"] is expected["trivial"]
        and report["nontrivial_weight"] == expected["nontrivial_weight"],
        "bell_chsh": lambda: Q2.of(hv.parse_scalar(report["value"])) == expected["chsh_value"]
        and report["local_bound"] == "2"
        and report["ns_bound"] == "4",
        "decompose": lambda: report["certificate_verified"] is True
        and "FAIL" not in report["verification"]
        and Q2.of(hv.parse_scalar(report["local_content"])) == Q2.of(item.data["objects"]["content"])
        and report["model_written"] == item.data["files"]["emitted"],
        "model_verify": lambda: report == {"matches": True},
        "model_guess": lambda: report["side"] == "alice" and report["guessing_probability"] == expected["guess"],
        "model_first_mover": lambda: report == {"independent": True},
    }[command]
    try:
        passed = ok()
    except (KeyError, TypeError, hv.HvlabError):
        passed = False
    return [] if passed else [f"{command} report differs from the expected one: {stdout[:300]}"]


def values_cli(hv, item: Item, result) -> dict[str, str]:
    code, stdout, _ = result
    values = {"exit": str(code)}
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return values
    for key in ("nontrivial_weight", "value", "local_bound", "ns_bound", "local_content"):
        if key in report:
            values[key] = report[key]
    for setting, value in report.get("guessing_probability", {}).items():
        values[f"guess.{setting}"] = value
    return values


WORKLOADS = {
    "content": Workload("content", run_content, check_content, values_content, 6, 2, ("2222", "3322", "2233"), 5.0),
    "nsbound": Workload("nsbound", run_nsbound, check_nsbound, values_nsbound, 6, 2, ("2222", "3322", "2233"), 4.8),
    "localbound": Workload(
        "localbound", run_localbound, check_localbound, values_localbound, 8, 4, ("3322", "4422", "3333"), 3.3
    ),
    "cli": Workload("cli", run_cli_subprocess, check_cli, values_cli, 3, 3, ("catalog", "2222", "3322"), 2.8),
}
