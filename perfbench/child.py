"""One job of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --t0 T
                               [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process; set-up time runs from there to "inputs ready", so it covers the
interpreter start, ``import jetva`` and making the seeded inputs; it is
also given at the reference speed, from a short burst of probe units timed
right after it.  Job time
runs from "inputs ready" to "output verified"; a speed probe runs during the
job and gives its wall and CPU times also at the reference speed (see
``speedprobe.py``).  The last line on standard
output is one JSON record; the exit status is 0 whenever that record was
written, whether or not the job passed.  With ``--setup-only`` the child
stops once its inputs are ready and records only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
# Units timed right after set-up, about 20 ms, to scale the set-up time.
SETUP_PROBE_UNITS = 40


def _import_jetva():
    """Import the package from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jetva

    where = Path(jetva.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"jetva imported from {where}, not from {src}")


def _peak_rss_kb() -> int:
    """Peak resident set of this process image, less its file-backed pages.

    ``VmHWM`` is read rather than ``ru_maxrss``, which also counts the
    parent's image copied at fork, before this interpreter was exec'd.  The
    file-backed part (interpreter, libraries, bytecode mapped from the page
    cache) depends on what other processes left in that cache, not on the
    job; what remains is the memory the job allocated.
    """
    status = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            status[key] = value.split()
    return int(status["VmHWM"][0]) - int(status["RssFile"][0])


def _cpu_s() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_jetva()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import speedprobe
    from workloads import WORKLOADS, first_difference

    workload = WORKLOADS[args.workload]
    reference = json.loads(
        (BENCH / "reference" / f"{args.workload}.json").read_text(encoding="utf-8")
    )
    workdir = OUT / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.setup(random.Random(args.seed), workdir)
        t_ready = time.monotonic()
        setup = {
            "setup_s": t_ready - args.t0,
            "setup_ref_s": (t_ready - args.t0) / speedprobe.burst(SETUP_PROBE_UNITS),
        }
        if args.setup_only:
            print(json.dumps({"ok": True, **setup}))
            return 0
        error = None
        cpu0 = _cpu_s()
        t_start = time.monotonic()
        with speedprobe.SpeedProbe() as probe:
            try:
                error = first_difference(workload.job(inputs), reference)
            except Exception:
                # A job that raises is a failed job, recorded with its traceback.
                error = traceback.format_exc(limit=-3)
        t_done = time.monotonic()
        cpu = _cpu_s() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "ok": error is None,
        "error": error,
        **setup,
        "job_s": t_done - t_start,
        "cpu_s": cpu,
        "slowdown": probe.slowdown(),
        "job_ref_s": probe.scale(t_done - t_start),
        "cpu_ref_s": probe.scale(cpu),
        "peak_rss_mb": _peak_rss_kb() / 1024,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
