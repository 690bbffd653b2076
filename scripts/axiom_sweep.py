#!/usr/bin/env python3
"""Sweep the vertex-operator axioms and both Borcherds identities over
random sources and full index boxes, reporting pass counts and timing.

Usage:
    python scripts/axiom_sweep.py --order 2 --window 6 --index-bound 2 --seed 0

Exit code 0 when every check passes, 1 on a failure, 3 (with "window too
small: ..." on stderr) when a check needs a coefficient beyond the window.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import random
import sys
import time

from jetva import (
    DiagAutomorphism,
    JetPoly,
    TruncationError,
    check_borcherds,
    check_twisted_axioms,
    check_twisted_borcherds,
    check_va_axioms,
    eigen_index,
)
from jetva.cli import coset_indices, random_sources


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    order: int
    exponents: tuple[int, ...]
    window: int
    index_bound: int
    samples: int
    seed: int


def run(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    k = len(cfg.exponents)
    g = DiagAutomorphism(cfg.order, cfg.exponents)
    alpha = list(cfg.exponents)
    sources = [JetPoly.var(cfg.order, i) for i in range(1, k + 1)]
    sources += random_sources(rng, cfg.order, k, cfg.samples)

    failures = 0
    t0 = time.time()
    n_axiom = 0
    for a in sources:
        for c in check_va_axioms(a, cfg.window, alpha=alpha, samples=sources[:2]):
            n_axiom += 1
            if not c.passed:
                failures += 1
                print(f"FAIL axiom [{a}]: {c.name} :: {c.witness}")
    print(f"plain axioms: {n_axiom} checks ({time.time() - t0:.1f}s)")

    t0 = time.time()
    n_plain = 0
    box = range(-cfg.index_bound, cfg.index_bound + 1)
    for a, b in itertools.product(sources, repeat=2):
        for mi, ni, ki in itertools.product(box, repeat=3):
            n_plain += 1
            c = check_borcherds(a, b, mi, ni, ki, cfg.window)
            if not c.passed:
                failures += 1
                print(f"FAIL [{a} | {b}] {c.name} :: {c.witness}")
    print(f"plain Borcherds: {n_plain} identities ({time.time() - t0:.1f}s)")

    t0 = time.time()
    n_tax = 0
    for a, b in zip(sources, sources[1:] + sources[:1]):
        for c in check_twisted_axioms(a, b, g, cfg.window):
            n_tax += 1
            if not c.passed:
                failures += 1
                print(f"FAIL twisted axiom [{a}]: {c.name} :: {c.witness}")
    print(f"twisted axioms: {n_tax} checks ({time.time() - t0:.1f}s)")

    t0 = time.time()
    n_tw = 0
    for a, b in itertools.product(sources, repeat=2):
        ra = eigen_index(a, alpha)
        rb = eigen_index(b, alpha)
        for li in box:
            for mi in coset_indices(ra, cfg.order, cfg.index_bound):
                for ni in coset_indices(rb, cfg.order, cfg.index_bound):
                    n_tw += 1
                    c = check_twisted_borcherds(a, b, g, li, mi, ni, cfg.window)
                    if not c.passed:
                        failures += 1
                        print(f"FAIL [{a} | {b}] {c.name} :: {c.witness}")
    print(f"twisted Borcherds: {n_tw} identities ({time.time() - t0:.1f}s)")

    print(f"total failures: {failures}")
    return 0 if failures == 0 else 1


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
        exps = tuple(
            (1 if i == 0 else 0) % args.order for i in range(args.coords)
        )
    else:
        exps = tuple(args.exponents)
    cfg = SweepConfig(
        args.order, exps, args.window, args.index_bound, args.samples, args.seed
    )
    try:
        return run(cfg)
    except TruncationError as e:
        print(f"window too small: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
