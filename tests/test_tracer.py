"""The benchmark's tracer names jetva functions by module and attribute path
(``perfbench/tracer.py``); every name must still resolve, so that a rename in
the package cannot silently break ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [(prefix, module, path) for prefix, module, path, _ in tracer.SPANS] + [
    (prefix, module, path)
    for prefix, module, paths in tracer.COUNTS
    for path in paths
]


@pytest.mark.parametrize(
    "prefix, module, path", TARGETS, ids=[f"{p}:{a}" for p, _, a in TARGETS]
)
def test_tracer_target_resolves_to_a_callable(prefix, module, path):
    owner, value = tracer._resolve(module, path)
    assert callable(value), f"{prefix}: {module}.{path} is not callable"
