#!/usr/bin/env python3
"""Tabulate orbifold coinvariant dimensions for a family of curves and
symmetries, and compare each table against its fixed-subscheme ring.

Each case runs ``jetva coinvariants --format json`` on its scheme file.

Usage:
    python scripts/coinvariant_tables.py --max-weight 3 --max-degree 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
from jetva import cli  # noqa: E402


def _scheme(m, relations, exponents) -> dict:
    names = [f"x{i}" for i in range(1, len(exponents) + 1)]
    return {"m": m, "variables": names, "relations": relations, "exponents": exponents}


CASES = [
    ("line, order 2, sign flip", _scheme(2, [], [1])),
    ("plane, order 2, flip first", _scheme(2, [], [1, 0])),
    ("parabola x1^2 = x2, order 2", _scheme(2, ["x1^2 - x2"], [1, 0])),
    ("axes x1 x2 = 0, order 2", _scheme(2, ["x1*x2"], [1, 1])),
    ("cusp x1^3 = x2^2, order 3", _scheme(3, ["x1^3 - x2^2"], [2, 0])),
    ("line, order 3", _scheme(3, [], [1])),
    ("line, order 4", _scheme(4, [], [1])),
    ("double point x1^2 = 0, order 1", _scheme(1, ["x1^2"], [0])),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", default="3")
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args(argv)

    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        for label, scheme in CASES:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scheme, fh)
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                status = cli.main([
                    "coinvariants", "--input", path, "--format", "json",
                    "--max-weight", args.max_weight,
                    "--max-degree", str(args.max_degree),
                ])
            dt = time.perf_counter() - t0
            worst = max(worst, status)
            if status > 1:  # invalid input or too small a window, on stderr
                return status
            report = json.loads(buf.getvalue())
            dims = {
                (Fraction(r["weight"]), r["degree"]): r["dim"]
                for r in report["results"]["dimensions"]
            }
            row = [dims.get((0, d), 0) for d in range(args.max_degree + 1)]
            stray = sum(v for (w, _), v in dims.items() if w > 0)
            print(
                f"{label:38} weight-0 dims {row}  positive-weight total {stray}"
                f"  [{'ok' if status == 0 else 'MISMATCH'}] ({dt:.1f}s)"
            )
            for c in report["checks"]:
                if not c["pass"]:
                    print(f"    FAIL {c['name']}: {c.get('witness')}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
