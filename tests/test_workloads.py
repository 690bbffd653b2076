"""Every benchmark workload (``perfbench/workloads.py``) runs once at seed 0
and must reproduce its recorded reference output, so that a change to the
package cannot break the benchmark unseen.  Reads ``perfbench/`` only."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    job = workloads.WORKLOADS[name]
    reference = json.loads(
        (BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8")
    )
    output = job.job(job.setup(random.Random(0), tmp_path))
    assert workloads.first_difference(output, reference) is None
