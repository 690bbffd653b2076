"""Every benchmark workload (``perfbench/workloads.py``) runs once at seed 0
and must reproduce its recorded reference output, so that a change to the
package cannot break the benchmark unseen.  Reads ``perfbench/`` only."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from conftest import empty_caches
from jetva import jetpoly, twisted

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


def test_descent_sweep_translates_each_polynomial_once(monkeypatch, tmp_path):
    # The benchmark's descent traffic, from emptied caches: the generator
    # tables and the shuffled descent checks read the translates of the
    # same relations, and T builds each translate once.
    job = workloads.WORKLOADS["descent-sweep"]
    inputs = job.setup(random.Random(0), tmp_path)
    empty_caches()
    calls = []
    real = jetpoly.derivation_T

    def counted(p):
        calls.append(p)
        return real(p)

    for module in (jetpoly, twisted):
        monkeypatch.setattr(module, "derivation_T", counted)
    job.job(inputs)
    assert calls and len(set(calls)) == len(calls)


def test_descent_sweep_expands_each_relation_once_per_case(monkeypatch, tmp_path):
    # A seed-7 descent-sweep job, from emptied caches, calls the int kernel
    # 348 times: 280 translates, 56 relation expansions at the generator
    # tables' weight 8, which the descent checks read as prefixes, and 12
    # untwisted tables.  Expanding the relations again for the checks made
    # 404 calls.
    job = workloads.WORKLOADS["descent-sweep"]
    inputs = job.setup(random.Random(7), tmp_path)
    empty_caches()
    calls = []
    real = jetpoly.substitute_coded

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (jetpoly, twisted):
        monkeypatch.setattr(module, "substitute_coded", counted)
    job.job(inputs)
    assert len(calls) == 348
