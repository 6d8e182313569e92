"""hvlab has no runtime dependencies: numpy and hypothesis serve the tests only."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
import hvlab
names = [m.name for m in pkgutil.iter_modules(hvlab.__path__, "hvlab.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "loaded": sorted(sys.modules)}))
"""


def test_importing_every_module_loads_no_test_dependency():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert {"hvlab.bell", "hvlab.cli", "hvlab.simplex"} <= set(report["modules"])
    roots = {name.partition(".")[0] for name in report["loaded"]}
    assert "numpy" not in roots
    assert "hypothesis" not in roots
