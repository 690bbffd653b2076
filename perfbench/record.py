"""Record the reference output of each workload from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Each workload runs at two seeds, which must give the same output, and the
output is written to ``perfbench/reference/<workload>.json``.  The
benchmark compares every job against these files, so re-record only for a
change that is meant to alter an output, and review the difference.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from child import BENCH, _import_jetva


def main(argv) -> int:
    _import_jetva()
    from workloads import WORKLOADS, first_difference

    names = argv or list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        outputs = []
        for seed in (0, 1):
            with tempfile.TemporaryDirectory() as tmp:
                inputs = workload.setup(random.Random(seed), Path(tmp))
                outputs.append(workload.job(inputs))
        diff = first_difference(outputs[1], outputs[0])
        if diff:
            print(f"{name}: seeds 0 and 1 disagree at {diff}", file=sys.stderr)
            return 1
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(outputs[0], indent=1) + "\n", encoding="utf-8")
        print(f"{name}: wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
