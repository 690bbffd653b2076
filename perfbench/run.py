"""The jetva benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Workloads (see BENCHMARK.json for why each one is there): coinv-cusp,
coinv-zeta4, axioms-zeta4, descent-sweep.

One job runs at a time, each in a fresh interpreter (``child.py``) with
``PYTHONHASHSEED=0``, so no cache of the package survives from one job to
the next, as for a user who runs one command.  Jobs start one after another
until ``--seconds`` have passed, at least one; before each job, four more
children only set up, so that ``setup_s`` is a median over many set-ups.
Every job's output is compared with the recorded reference; a job that
raises, exits non-zero or differs from the reference counts as failed.

On a shared host the same core runs this code up to about 1.6 times slower
in episodes of a fraction of a second to minutes, as other tenants load the
machine, so a job's wall time moves by a third from run to run.  Each job therefore
carries a speed probe (``speedprobe.py``) that times a small fixed unit of
work every 20 ms of the job's CPU time, on the job's own core, and the job's
times are also given at the probe's reference speed.

With ``--trace 0`` the result gives the medians over the run's jobs of the
end-to-end metrics: ``job_ref_s`` (inputs ready to output verified, at the
reference speed), ``cpu_ref_s`` (the job's user+sys CPU, at the reference
speed), ``setup_s`` (interpreter spawn to inputs ready, at the reference
speed) and ``peak_rss_mb`` (the child's peak resident set).  The lines
before it also give the measured ``job_s``, ``cpu_s`` and ``setup_wall_s``
and the probe's ``slowdown`` during the jobs (measured over reference time).  The failure fraction is
``failed / attempted`` in the result line.

With ``--trace 1`` untraced and traced jobs alternate; the result gives the
per-layer metrics of the traced jobs (counts, which must agree between
traced jobs, and median self times, scaled like ``job_ref_s``), plus
``trace.overhead_s``, the median over (untraced, traced) job pairs of the
difference in ``job_ref_s``.  Spans of the last traced job are written to
``.perfbench/spans/``.

Human-readable lines go first, each starting with '#'; the last line is the
JSON result.  A per-job record, with the commit, Python version and CPU
count, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import BENCH, OUT, ROOT

WORKLOADS = ("coinv-cusp", "coinv-zeta4", "axioms-zeta4", "descent-sweep")
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# Set-up is short and noisy, so each job is preceded by children that only
# set up, and setup_s is the median over all of them.
SETUPS_PER_JOB = 4


class Run:
    """The children of one benchmark run, spawned one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.jobs: list[dict] = []
        self.setups: list[dict] = []  # set-up times of every child

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(BENCH / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", str(trace),
            "--t0", repr(t0),
        ]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        budget = max(1.0, HARD_LIMIT_S - (t0 - self.start))
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err = f"killed after {budget:.0f} s\n{err}"
        lines = out.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            record = None
        if record is None:
            record = {"ok": False, "error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
        if "setup_s" in record and not trace:
            self.setups.append({k: record[k] for k in ("setup_s", "setup_ref_s")})
        # A set-up child that fails counts as a failed attempt like a job.
        if not setup_only or not record["ok"]:
            record["trace"] = trace
            self.jobs.append(record)
        return record

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _median(jobs, key):
    return statistics.median(j[key] for j in jobs)


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    run = Run(workload, seed)
    while not run.jobs or run.elapsed() < seconds:
        for _ in range(SETUPS_PER_JOB):
            run.spawn(setup_only=True)
        run.spawn()
    timed = [j for j in run.jobs if "job_s" in j]
    metrics = {}
    if timed:
        metrics = {
            "job_ref_s": (_median(timed, "job_ref_s"), "s"),
            "cpu_ref_s": (_median(timed, "cpu_ref_s"), "s"),
            "setup_s": (_median(run.setups, "setup_ref_s"), "s"),
            "peak_rss_mb": (_median(timed, "peak_rss_mb"), "MB"),
            "job_s": (_median(timed, "job_s"), "s"),
            "cpu_s": (_median(timed, "cpu_s"), "s"),
            "setup_wall_s": (_median(run.setups, "setup_s"), "s"),
            "slowdown": (_median(timed, "slowdown"), "x"),
        }
    return run, metrics


def trace(workload: str, seed: int, seconds: float, declared) -> tuple[Run, dict]:
    run = Run(workload, seed)
    while len(run.jobs) < 2 or run.elapsed() < seconds:
        run.spawn(trace=len(run.jobs) % 2)
    traced = [j for j in run.jobs if j["trace"] == 1 and "layers" in j]
    # Jobs alternate, so each traced job is paired with the untraced job just
    # before it, which ran under the same machine load.
    overheads = [
        t["job_ref_s"] - u["job_ref_s"]
        for u, t in zip(run.jobs[::2], run.jobs[1::2])
        if "job_s" in u and "job_s" in t
    ]
    if not overheads or not traced:
        return run, {}
    metrics = {}
    for name, unit in declared.items():
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif unit == "s":
            # Scaled as job_ref_s is: the probe's share out, at reference speed.
            value = statistics.median(
                j["layers"][name] * j["job_ref_s"] / j["job_s"] for j in traced
            )
        else:
            values = {j["layers"][name] for j in traced}
            if len(values) > 1:
                for j in traced:
                    j["ok"] = False
                    j["error"] = f"{name} differs between traced jobs: {sorted(values)}"
            value = traced[0]["layers"][name]
        metrics[name] = (value, unit)
    return run, metrics


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(run: Run, metrics: dict, env: dict) -> None:
    failed = sum(not j["ok"] for j in run.jobs)
    print(f"# {run.workload} seed={run.seed}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {_fmt(value)} {unit}")
    print(
        f"#   fail_frac = {_fmt(failed / len(run.jobs))} "
        f"({failed} of {len(run.jobs)} jobs failed)"
    )
    for j in run.jobs:
        if not j["ok"]:
            print(f"#   failed job: {j['error'].strip().splitlines()[-1]}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{run.workload}-seed{run.seed}-{int(time.time())}.json"
    path.write_text(
        json.dumps({"env": env, "workload": run.workload, "seed": run.seed,
                    "metrics": metrics, "setups": run.setups, "jobs": run.jobs},
                   indent=1),
        encoding="utf-8",
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jetva" / "__init__.py").is_file():
        print(f"error: no jetva package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    # Compile the package and the benchmark once, outside any timed region,
    # as an install would.
    import compileall

    for directory in (ROOT / "src" / "jetva", BENCH):
        compileall.compile_dir(str(directory), quiet=1)
    env = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result: dict = {}
    for name in names:
        if args.trace:
            run, metrics = trace(name, args.seed, args.seconds, declared)
        else:
            run, metrics = measure(name, args.seed, args.seconds)
        report(run, metrics, env)
        attempted += len(run.jobs)
        failed += sum(not j["ok"] for j in run.jobs)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, unit in declared.items():
            value = metrics.get(metric, (0.0, unit))[0]
            result[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
