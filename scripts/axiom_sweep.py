#!/usr/bin/env python3
"""Sweep the vertex-operator axioms and both Borcherds identities over the
coordinates and random sources of an affine space with a diagonal symmetry.

The script writes the affine scheme its flags describe and runs
``jetva check-va`` and then ``jetva check-twisted`` on it, printing one count
line per command and every failing check.

Usage:
    python scripts/axiom_sweep.py --order 2 --window 6 --index-bound 2 --seed 0

Exit code: the worst of the two commands' (0 when every check passes, 1 on
a failure, 2 on invalid input, 3 with "window too small: ..." on stderr when
a check needs a coefficient beyond the window).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
from jetva import cli  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=2)
    ap.add_argument(
        "--exponents",
        type=int,
        nargs="*",
        default=None,
        help="diagonal exponents (default: [1, 0, .., 0] truncated mod order)",
    )
    ap.add_argument("--coords", type=int, default=2)
    ap.add_argument("--window", type=int, default=6)
    ap.add_argument("--index-bound", type=int, default=2)
    ap.add_argument("--samples", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.exponents is None:
        exps = [(1 if i == 0 else 0) % args.order for i in range(args.coords)]
    else:
        exps = list(args.exponents)
    scheme = {
        "m": args.order,
        "variables": [f"x{i}" for i in range(1, len(exps) + 1)],
        "relations": [],
        "exponents": exps,
    }

    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scheme, fh)
        for command in ("check-va", "check-twisted"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main([
                    command, "--input", path, "--format", "json",
                    "--window", str(args.window),
                    "--index-bound", str(args.index_bound),
                    "--random-samples", str(args.samples),
                    "--seed", str(args.seed),
                ])
            worst = max(worst, status)
            if status > 1:  # invalid input or too small a window, on stderr
                return worst
            report = json.loads(buf.getvalue())
            counts = report["results"]["counts"]
            print(f"{command}: {counts['total']} checks, {counts['failed']} failed")
            for c in report["checks"]:
                if not c["pass"]:
                    print(f"FAIL {c['name']} :: {c.get('witness')}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
