"""The README's command-line blocks and library example run exactly as
written, and it states every limit a user can hit."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hvlab import bell, boxes, decompose, hvmodel
from hvlab.boxes import LabelSet, deterministic_behavior
from hvlab.catalog import table1_box
from hvlab.cli import main
from hvlab.formats import save_model
from hvlab.hvmodel import ExtendedModel, WExtension
from hvlab.scalar import HALF, ONE

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _command_lines() -> list[str]:
    section = _section("Command line")
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("hvlab ")]


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # `model marginalize` reads a w-extension model, which no README
    # command writes; the model here folds to a classical shared coin.
    spaces = table1_box().spaces
    kernels = tuple(deterministic_behavior(*spaces, (x, x), (x, x)) for x in ("+1", "-1"))
    extension = WExtension(LabelSet(("0", "1")), (HALF, HALF), kernels)
    save_model(ExtendedModel((("u", "v"),), (ONE,), (extension,)), "extended.model.json")
    lines = _command_lines()
    assert len(lines) == 14
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        target = None
        if ">" in argv:
            at = argv.index(">")
            argv, target = argv[:at], argv[at + 1]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")


def _script_lines() -> list[str]:
    section = _section("Scripts")
    block = re.findall(r"```sh\n(.*?)```", section, re.S)[0]
    return [line for line in block.splitlines() if line.startswith("python ")]


def test_readme_scripts_run_as_written(tmp_path, capsys):
    lines = _script_lines()
    assert len(lines) == 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    outputs = []
    for line in lines:
        argv = shlex.split(line, comments=True)
        # The script paths are relative to the repository; everything
        # they write lands in tmp_path.
        argv = [sys.executable, str(ROOT / argv[1]), *argv[2:]]
        result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, (line, result.stderr)
        outputs.append(result.stdout)

    fixtures = tmp_path / "fixtures"
    checked = sorted([*fixtures.glob("*.box.json"), *fixtures.glob("*.model.json")])
    assert len(checked) == 6
    for path in checked:
        code = main(["check", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True, path.name
        # The completely signalling box is valid, and its check reports
        # the property that fails.
        expected = 1 if path.name == "signalling-box.box.json" else 0
        assert code == expected, path.name

    rows = [line.split() for line in outputs[1].splitlines()[1:]]
    contents = {Fraction(row[0]): row[2] for row in rows}
    assert len(contents) == 11
    assert all(content == "1" for w, content in contents.items() if w <= Fraction(1, 2))
    assert contents[Fraction(1)] == "0"


def test_readme_library_block_prints_what_its_comments_say():
    block = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)[0]
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["1-1/2*sqrt2", "2*sqrt2", "2-1*sqrt2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_states_every_size_budget_and_exit_code():
    budgets = _section("Size budgets")
    for name, value in (
        ("boxes.STRATEGY_BUDGET", boxes.STRATEGY_BUDGET),
        ("decompose.VERTEX_CELL_BUDGET", decompose.VERTEX_CELL_BUDGET),
        ("bell.NS_CELL_BUDGET", bell.NS_CELL_BUDGET),
        ("hvmodel.FIRST_MOVER_CELL_BUDGET", hvmodel.FIRST_MOVER_CELL_BUDGET),
    ):
        assert re.search(rf"^\| `{re.escape(name)}` \| {value} \|", budgets, re.M), name
    codes = re.findall(r"^\| `(\d+)` \|", _section("Exit codes and guarantees"), re.M)
    assert codes == ["0", "1", "2", "141"]
