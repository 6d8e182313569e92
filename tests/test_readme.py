"""The README's command-line blocks run exactly as written."""

import re
import shlex
from pathlib import Path

from hvlab.boxes import LabelSet, deterministic_behavior
from hvlab.catalog import table1_box
from hvlab.cli import main
from hvlab.formats import save_model
from hvlab.hvmodel import ExtendedModel, WExtension
from hvlab.scalar import HALF, ONE

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
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
