"""The benchmark's four workloads.

Each workload makes its inputs from a seed (``setup``), runs one job on
them (``job``) and returns the job's exact output in a seed-independent,
JSON-ready form, which the child compares with the recorded reference in
``reference/<workload>.json``.  The seed changes the inputs a user would
type, never the size of the problem:

- ``coinv-cusp``, ``coinv-zeta4``: the coordinate names in the scheme file;
- ``axioms-zeta4``: which coordinate fills each slot of the fixed
  degree/level profile of the sampled sources;
- ``descent-sweep``: the coordinate names and the order of the sweep.

Library functions are looked up on their modules at call time, so wrappers
installed by the tracer after import see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import string
from fractions import Fraction

from jetva import cli, jetpoly, jetscheme, parse, quasiconf, twisted, va


def seeded_names(rng: random.Random, k: int) -> list[str]:
    """k distinct coordinate names; a trailing digit keeps them off 'zeta'."""
    names: list[str] = []
    while len(names) < k:
        name = rng.choice(string.ascii_lowercase) + str(rng.randrange(100))
        if name not in names:
            names.append(name)
    return names


def _table(pres) -> list[list[str]]:
    return [[str(g.relation), str(g.weight), str(g.poly)] for g in pres.generators]


def _tally(results: list) -> dict:
    return {"total": len(results), "failed": sum(not r.passed for r in results)}


def _coset(r: int, m: int, bound: int) -> list[Fraction]:
    """Mode indices in r/m + Z with absolute value at most the bound."""
    base = Fraction(r, m)
    return [base + t for t in range(-bound - 1, bound + 2) if abs(base + t) <= bound]


class Coinvariants:
    """``jetva coinvariants`` through ``cli.main`` on one scheme file."""

    def __init__(self, m, relation, exponents, max_weight, max_degree):
        self.m = m
        self.relation = relation  # format string over the coordinate names
        self.exponents = exponents
        self.max_weight = max_weight
        self.max_degree = max_degree

    def setup(self, rng: random.Random, workdir):
        names = seeded_names(rng, len(self.exponents))
        path = workdir / "scheme.json"
        path.write_text(
            json.dumps(
                {
                    "m": self.m,
                    "variables": names,
                    "relations": [self.relation.format(*names)],
                    "exponents": list(self.exponents),
                }
            ),
            encoding="utf-8",
        )
        cli.load_spec(str(path))
        return [
            "coinvariants",
            "--input", str(path),
            "--format", "json",
            "--max-weight", str(self.max_weight),
            "--max-degree", str(self.max_degree),
        ]

    def job(self, argv) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        report = json.loads(buf.getvalue())
        return {
            "exit_status": status,
            "dimensions": report["results"]["dimensions"],
            "checks": report["checks"],
        }


class Axioms:
    """Vertex-algebra, twisted-module and commutator sweeps on one scheme.

    Sources are the coordinates, the relation and one monomial per entry of
    ``profile``.  A profile entry lists (slot, level) factors; the seed maps
    the slots to distinct coordinates, so every seed gives monomials of the
    same degrees, levels and coordinate pattern.
    """

    def __init__(self, m, relation, exponents, profile, window, index_bound):
        self.m = m
        self.relation = relation
        self.exponents = exponents
        self.profile = profile
        self.window = window
        self.index_bound = index_bound

    def setup(self, rng: random.Random, workdir):
        m, k = self.m, len(self.exponents)
        names = seeded_names(rng, k)
        rel = parse.parse_expression(self.relation.format(*names), m, names)
        spec = jetscheme.SchemeSpec.of(m, k, [rel])
        g = jetscheme.DiagAutomorphism(m, self.exponents)
        sources = [jetpoly.JetPoly.var(m, i) for i in range(1, k + 1)] + [rel]
        for factors in self.profile:
            coords = rng.sample(range(1, k + 1), k)
            mono = jetpoly.JetPoly.one(m)
            for slot, level in factors:
                mono = mono * jetpoly.JetPoly.var(m, coords[slot], level)
            sources.append(mono)
        return spec, g, sources

    def job(self, inputs) -> dict:
        spec, g, sources = inputs
        W, B = self.window, self.index_bound
        alpha = g.alpha_by_index(spec)
        box = range(-B, B + 1)
        va_axioms = [
            c
            for a in sources
            for c in va.check_va_axioms(a, W, alpha=alpha, samples=sources)
        ]
        borcherds = [
            va.check_borcherds(a, b, mi, ni, ki, W)
            for a, b in itertools.product(sources, repeat=2)
            for mi, ni, ki in itertools.product(box, repeat=3)
        ]
        twisted_axioms = [
            c
            for a, b in zip(sources, sources[1:] + sources[:1])
            for c in twisted.check_twisted_axioms(a, b, g, W, spec)
        ]
        twisted_borcherds = [
            twisted.check_twisted_borcherds(a, b, g, li, mi, ni, W, spec)
            for a, b in itertools.product(sources, repeat=2)
            for li in box
            for mi in _coset(jetpoly.eigen_index(a, alpha), g.order, B)
            for ni in _coset(jetpoly.eigen_index(b, alpha), g.order, B)
        ]
        commutators = quasiconf.check_commutators(g, B, W)
        return {
            "va_axioms": _tally(va_axioms),
            "borcherds": _tally(borcherds),
            "twisted_axioms": _tally(twisted_axioms),
            "twisted_borcherds": _tally(twisted_borcherds),
            "commutators": _tally(commutators),
        }


class Descent:
    """Descent checks and generator tables over the acceptance fixtures."""

    def __init__(self, curves, orders, max_translate, window, gen_weight):
        self.curves = curves  # (label, coordinate count, relation format)
        self.orders = orders
        self.max_translate = max_translate
        self.window = window
        self.gen_weight = gen_weight

    def setup(self, rng: random.Random, workdir):
        names = seeded_names(rng, max(k for _, k, _ in self.curves))
        schemes, cases = [], []
        for m in self.orders:
            for label, k, rel_text in self.curves:
                rel = parse.parse_expression(rel_text.format(*names), m, names[:k])
                spec = jetscheme.SchemeSpec.of(m, k, [rel])
                schemes.append((f"{m}/{label}", spec))
                for alpha in itertools.product(range(m), repeat=k):
                    if jetpoly.eigen_index(rel, alpha) is not None:
                        key = f"{m}/{label}/{''.join(map(str, alpha))}"
                        cases.append((key, spec, jetscheme.DiagAutomorphism(m, alpha)))
        sweep = [
            (case, n) for case in cases for n in range(self.max_translate + 1)
        ]
        rng.shuffle(sweep)
        return schemes, cases, sweep

    def job(self, inputs) -> dict:
        schemes, cases, sweep = inputs
        Wg = self.gen_weight
        jet = {
            key: {
                method: _table(jetscheme.jet_generators(spec, Wg, method))
                for method in ("T_recursion", "substitution")
            }
            for key, spec in schemes
        }
        twisted_jet = {
            key: _table(jetscheme.twisted_jet_generators(spec, g, Wg))
            for key, spec, g in cases
        }
        descent = {}
        for (key, spec, g), n in sweep:
            results = twisted.check_descent(spec, g, 1, n, self.window - n)
            descent[f"{key}/{n}"] = [[r.name, r.passed] for r in results]
        flat = [ok for rows in descent.values() for _, ok in rows]
        return {
            "counts": {"total": len(flat), "failed": flat.count(False)},
            "descent": dict(sorted(descent.items())),
            "jet_generators": jet,
            "twisted_jet_generators": twisted_jet,
        }


WORKLOADS = {
    "coinv-cusp": Coinvariants(3, "{0}^3 - {1}^2", (2, 0), 6, 5),
    "coinv-zeta4": Coinvariants(4, "{0}^2 - zeta*{1}^2", (1, 1), 5, 6),
    "axioms-zeta4": Axioms(
        4, "{0}^2 - zeta*{1}^2", (1, 1), (((0, -1),), ((0, 0), (1, -2))), 6, 2
    ),
    "descent-sweep": Descent(
        (
            ("double-point", 1, "{0}^2"),
            ("parabola", 2, "{0}^2 - {1}"),
            ("axes", 2, "{0}*{1}"),
            ("cusp", 2, "{0}^3 - {1}^2"),
        ),
        (2, 3, 4),
        4,
        6,
        8,
    ),
}


def first_difference(got, want, path="output") -> str | None:
    """Where ``got`` first differs from ``want``, or None if equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                return f"{path}.{key}: present in only one of output and reference"
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)}, reference {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if got != want:
        return f"{path}: {got!r}, reference {want!r}"
    return None
