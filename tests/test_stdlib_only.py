"""The runtime is pure standard library: ``pyproject.toml`` declares no
dependency, and importing and running the package must load none.  It
also stays off the heavy parts of it: value types are plain slotted
classes, so no ``dataclasses`` (which loads ``inspect``, ``ast`` and
``dis``) and no ``typing``."""

import json
import subprocess
import sys
from pathlib import Path

import jetva

SRC = Path(jetva.__file__).resolve().parents[1]

# Run with -I -S: no site-packages, no user site, no PYTHONPATH.
# The heavy modules are read before the walk over the package's modules,
# since pkgutil itself loads typing and inspect.
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from jetva import cli
argv = ["coinvariants", "--input", sys.argv[2], "--max-weight", "2", "--max-degree", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
heavy = [
    name for name in ("dataclasses", "inspect", "ast", "dis", "typing")
    if name in sys.modules
]
import pkgutil
import jetva
for info in pkgutil.iter_modules(jetva.__path__, "jetva."):
    __import__(info.name)
foreign = sorted(
    name for name in sys.modules
    if name.partition(".")[0] not in sys.stdlib_module_names
)
print(json.dumps({"code": code, "foreign": foreign, "heavy": heavy}))
"""


def test_the_package_imports_and_runs_on_the_standard_library_alone(tmp_path):
    path = tmp_path / "parabola.json"
    path.write_text(
        json.dumps(
            {
                "m": 2,
                "variables": ["x1", "x2"],
                "relations": ["x1^2 - x2"],
                "exponents": [1, 0],
            }
        )
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, str(SRC), str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["code"] == 0
    modules = set(got["foreign"])
    assert "jetva.cli" in modules
    assert all(
        name in ("__main__", "jetva") or name.startswith("jetva.") for name in modules
    )
    assert got["heavy"] == []
