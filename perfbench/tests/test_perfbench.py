"""Tests of the benchmark itself: inputs, output gate and metric names.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from exact import best_response_local_bound  # noqa: E402
from inputs import CONTENT_ROUND, RUNGS, generate  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, run_cli_inprocess  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def hv():
    return bench.import_hvlab()


def _fingerprint(hv, items) -> list:
    rows = []
    for item in items:
        data = item.data
        row = [item.key, item.rung, item.kind]
        for key in ("box", "expression"):
            if key in data:
                table = data[key].table if key == "box" else data[key].coefficients
                row.append([hv.format_scalar(v) for v in table])
        if "files" in data:
            row.append([Path(arg).name for arg in data["argv"]])
            row += [Path(data["files"][k]).read_text() for k in ("box", "model", "box2222")]
        rows.append(row)
    return rows


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(hv, workload, tmp_path):
    runs = []
    for seed, directory in ((7, "a"), (7, "b"), (8, "c")):
        (tmp_path / directory).mkdir()
        runs.append(_fingerprint(hv, generate(hv, workload, seed, 1, tmp_path / directory)))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a").mkdir()
    return tmp_path / "a"


def test_generated_inputs_are_valid(hv, workdir):
    for workload in WORKLOADS:
        for item in generate(hv, workload, 11, 2, workdir):
            boxes = [item.data["box"]] if "box" in item.data else []
            if workload == "cli":
                objects = item.data["objects"]
                boxes = [objects["box"], objects["box2222"], hv.formats.load_box(item.data["files"]["box"])]
                model = hv.formats.load_model(item.data["files"]["model"])
                assert hv.validate_model(model).ok and hv.check_locality(model)[0]
            for box in boxes:
                assert hv.validate_behavior(box).ok
                assert hv.is_no_signalling(box)[0]
            if workload != "cli":
                na, nb, nx, ny = RUNGS[item.rung]
                table = item.data["box"].table if workload == "content" else item.data["expression"].coefficients
                assert len(table) == na * nb * nx * ny
                assert any(cell.b for cell in table) == (item.kind == "sqrt2")


def test_content_weights_step_through_every_level_in_five_rounds(hv):
    items = generate(hv, "content", 3, 5)
    for slot, (_, _, local) in enumerate(CONTENT_ROUND):
        contents = {hv.format_scalar(i.data["content"]) for i in items if i.slot == slot}
        assert len(contents) == (1 if local else 5)


def test_host_speed_reference_is_exact_and_scales_by_a_power_of_the_ratio():
    rows = hostspeed.reference_task()
    size = hostspeed.SIZE
    assert all(rows[i][j] == (i == j) for i in range(size) for j in range(size))
    assert hostspeed.scale([hostspeed.NOMINAL_S] * 3) == 1
    slow = [hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S, 9 * hostspeed.NOMINAL_S]
    assert hostspeed.scale(slow) == pytest.approx(0.5**hostspeed.EXPONENT)


def _one(hv, workload, predicate, workdir):
    item = next(i for i in generate(hv, workload, 5, 1, workdir) if predicate(i))
    return item, WORKLOADS[workload].run(hv, item)


def test_gate_passes_correct_output_and_fails_corrupted_values(hv, workdir):
    content, result = _one(hv, "content", lambda i: i.rung == "2222" and i.kind == "sqrt2", workdir)
    assert WORKLOADS["content"].check(hv, content, result) == []
    decomposition = result[0]
    wrong = dataclasses.replace(decomposition, local_content=decomposition.local_content + hv.Scalar(0, 1) / 1000)
    assert WORKLOADS["content"].check(hv, content, (wrong, True, True))
    assert WORKLOADS["content"].check(hv, content, (decomposition, True, False))

    ns_item, (value, bound) = _one(hv, "nsbound", lambda i: i.rung == "2222", workdir)
    assert WORKLOADS["nsbound"].check(hv, ns_item, (value, bound)) == []
    local = best_response_local_bound(ns_item.data["expression"].coefficients, RUNGS["2222"])
    below_local = hv.Scalar(local.a, local.b) - hv.Scalar(1) / 3
    assert WORKLOADS["nsbound"].check(hv, ns_item, (value, below_local))

    lb_item, (lb, strategy) = _one(hv, "localbound", lambda i: i.rung == "3322", workdir)
    assert WORKLOADS["localbound"].check(hv, lb_item, (lb, strategy)) == []
    assert WORKLOADS["localbound"].check(hv, lb_item, (lb + hv.Scalar(0, 1), strategy))

    cli_item = next(i for i in generate(hv, "cli", 5, 1, workdir) if i.data["command"] == "model_guess")
    code, stdout, stderr = run_cli_inprocess(hv, cli_item)
    assert WORKLOADS["cli"].check(hv, cli_item, (code, stdout, stderr)) == []
    report = json.loads(stdout)
    setting = next(iter(report["guessing_probability"]))
    report["guessing_probability"][setting] = "1/3"
    assert WORKLOADS["cli"].check(hv, cli_item, (code, json.dumps(report), stderr))
    assert WORKLOADS["cli"].check(hv, cli_item, (2, stdout, stderr))


def test_gate_fails_a_value_that_differs_from_the_frozen_one(hv, workdir):
    item, result = _one(hv, "content", lambda i: i.rung == "2222", workdir)
    outcome = bench.Outcome(item, 0.0, result)
    values = WORKLOADS["content"].values(hv, item, result)
    assert bench.gate(hv, [outcome], {"content": {item.key: values}}) == []
    corrupted = {"content": {item.key: {"local_content": values["local_content"] + "1"}}}
    assert bench.gate(hv, [outcome], corrupted)


def test_frozen_values_cover_every_workload():
    frozen = json.loads(bench.FROZEN.read_text(encoding="utf-8"))
    assert frozen["seed"] == bench.DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        assert len(frozen["values"][name]) > 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize(("workload", "trace"), [("localbound", 0), ("localbound", 1), ("cli", 1)])
def test_every_metric_name_in_the_output_matches_benchmark_json(workload, trace, monkeypatch, capsys):
    small = dataclasses.replace(WORKLOADS[workload], pool_rounds=1, trace_rounds=1)
    monkeypatch.setitem(bench.WORKLOADS, workload, small)
    code = bench.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "content", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
