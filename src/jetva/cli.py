"""Command-line interface.

Every subcommand reads a scheme-with-symmetry description from a JSON file

    {"m": 2, "variables": ["x1", "x2"], "relations": ["x1^2 - x2"],
     "exponents": [1, 0]}

and emits a report, as JSON or as text rendering the same content:

    {"command": ..., "inputs": ..., "results": ...,
     "checks": [{"name": ..., "pass": ..., "witness"?: ...}]}

Scalars are serialized as exact strings.  Exit status: 0 when every check
passed, 1 when some check failed, 2 on invalid input, 3 when a check needs
a field coefficient beyond the truncation window (rerun with a larger
window).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from fractions import Fraction

from .coinv import OrbiSetup, verify_fixed_ring
from .jetpoly import JetPoly, TruncationError, eigen_index
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    fixed_point_ring,
    jet_generators,
    require_preserved,
    twisted_jet_generators,
)
from .parse import ParseError, format_poly, parse_expression
from .quasiconf import check_commutators
from .reports import CheckResult
from .twisted import check_twisted_axioms, check_twisted_borcherds
from .va import check_borcherds, check_va_axioms

# The identifier of the ``parse`` grammar: a letter, then letters, digits, _.
_IDENT = re.compile(r"^[A-Za-z][A-Za-z_0-9]*$")


class InputError(ValueError):
    """Invalid input file or flag combination (exit status 2)."""


def load_spec(path: str):
    """Read and validate a scheme description, returning
    (spec, automorphism, variable names)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise InputError("the description must be a JSON object")
    missing = {"m", "variables", "relations", "exponents"} - set(data)
    if missing:
        raise InputError(f"missing keys: {', '.join(sorted(missing))}")

    m = data["m"]
    # A JSON true or false loads as a bool, which isinstance counts as an int.
    if type(m) is not int or m < 1:
        raise InputError("m must be an integer >= 1")

    names = data["variables"]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise InputError("variables must be a list of strings")
    for s in names:
        if not _IDENT.match(s):
            raise InputError(f"invalid variable name {s!r}")
        if s == "zeta":
            raise InputError('"zeta" is reserved for the root of unity')
    if len(set(names)) != len(names):
        raise InputError("variable names must be distinct")

    rel_texts = data["relations"]
    if not isinstance(rel_texts, list) or not all(
        isinstance(s, str) for s in rel_texts
    ):
        raise InputError("relations must be a list of strings")
    relations = []
    for text in rel_texts:
        try:
            relations.append(parse_expression(text, m, names))
        except ParseError as e:
            raise InputError(f"cannot parse relation {text!r}: {e}") from e

    exps = data["exponents"]
    if (
        not isinstance(exps, list)
        or len(exps) != len(names)
        or not all(type(a) is int for a in exps)
    ):
        raise InputError("exponents must be a list of integers, one per variable")
    if any(not 0 <= a < m for a in exps):
        raise InputError(f"exponents must lie in 0..{m - 1}")

    spec = SchemeSpec(m, tuple(range(1, len(names) + 1)), tuple(relations))
    g = DiagAutomorphism(m, tuple(exps))
    return spec, g, names


def _bound(value, flag: str) -> Fraction:
    """The value of a size flag (a weight or degree bound, a window, an index
    bound or a sample count), which must be nonnegative."""
    try:
        bound = Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"invalid {flag} {value!r}: {e}") from e
    if bound < 0:
        raise InputError(f"{flag} must be nonnegative, got {value}")
    return bound


def _base_inputs(args, spec, g, names) -> dict:
    return {
        "input": args.input,
        "m": g.order,
        "variables": list(names),
        "relations": [format_poly(p, names) for p in spec.relations],
        "exponents": list(g.exponents),
        "seed": args.seed,
    }


def _gen_records(pres) -> list[dict]:
    return [
        {"relation": gen.relation, "weight": str(gen.weight), "poly": str(gen.poly)}
        for gen in pres.generators
    ]


def _counts(checks) -> dict:
    return {"total": len(checks), "failed": sum(1 for c in checks if not c.passed)}


def _random_sources(rng: random.Random, order: int, k: int, count: int) -> list[JetPoly]:
    """``count`` random monomials of one to three factors x[i,-d], i in 1..k,
    d in 0..2.  Without coordinates each is the unit 1, and the rng is not
    drawn from."""
    out = []
    for _ in range(count):
        p = JetPoly.one(order)
        for _f in range(rng.randint(1, 3) if k else 0):
            p = p * JetPoly.var(order, rng.randint(1, k), -rng.randint(0, 2))
        out.append(p)
    return out


def _coset_indices(r: int, m: int, bound: int) -> list[Fraction]:
    """Mode indices in r/m + Z of absolute value at most the bound, rising."""
    base = Fraction(r, m)
    return [base + t for t in range(-bound - 1, bound + 2) if abs(base + t) <= bound]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_jet(args):
    spec, g, names = load_spec(args.input)
    W = _bound(args.max_weight, "--max-weight")
    if W.denominator != 1:
        raise InputError("--max-weight must be an integer here")
    pres_t = jet_generators(spec, int(W), "T_recursion")
    pres_s = jet_generators(spec, int(W), "substitution")
    seen_t = {(g_.relation, g_.weight): g_.poly for g_ in pres_t.generators}
    seen_s = {(g_.relation, g_.weight): g_.poly for g_ in pres_s.generators}
    ok = seen_t == seen_s
    witness = None
    if not ok:
        key = sorted(set(seen_t) ^ set(seen_s) | {
            k for k in set(seen_t) & set(seen_s) if seen_t[k] != seen_s[k]
        })[0]
        witness = f"relation {key[0]}, weight {key[1]}"
    checks = [CheckResult("translation and substitution generators agree", ok, witness)]
    inputs = _base_inputs(args, spec, g, names)
    inputs["max_weight"] = str(W)
    results = {
        "variables": [str(v) for v in pres_t.variables],
        "generators": _gen_records(pres_t),
    }
    return {"command": "jet", "inputs": inputs, "results": results}, checks


def cmd_twisted_jet(args):
    spec, g, names = load_spec(args.input)
    W = _bound(args.max_weight, "--max-weight")
    pres = twisted_jet_generators(spec, g, W)
    checks = [CheckResult("relation span preserved by the action", True)]
    inputs = _base_inputs(args, spec, g, names)
    inputs["max_weight"] = str(W)
    results = {
        "variables": [str(v) for v in pres.variables],
        "generators": _gen_records(pres),
    }
    return {"command": "twisted-jet", "inputs": inputs, "results": results}, checks


def cmd_fixed_points(args):
    spec, g, names = load_spec(args.input)
    fixed = fixed_point_ring(spec, g)
    inputs = _base_inputs(args, spec, g, names)
    results = {
        "variables": [names[idx - 1] for idx in fixed.variables],
        "relations": [format_poly(p, names) for p in fixed.relations],
    }
    return {"command": "fixed-points", "inputs": inputs, "results": results}, []


def _sources(seed, count, spec, g, names, require_eigen: bool):
    rng = random.Random(seed)
    sources: list[tuple[str, JetPoly]] = []
    for i, name in enumerate(names, start=1):
        sources.append((name, JetPoly.var(g.order, i)))
    skipped = []
    for text, p in zip(
        [format_poly(p, names) for p in spec.relations], spec.relations
    ):
        if p.is_zero:
            continue
        if require_eigen and eigen_index(p, g.exponents) is None:
            skipped.append(text)
            continue
        sources.append((text, p))
    for p in _random_sources(rng, g.order, len(names), count):
        sources.append((str(p), p))
    return sources, skipped


def _sweep(args, command: str, twisted: bool, labelled_checks):
    """The frame check-va and check-twisted share: load the scheme, draw the
    sources, run ``labelled_checks(spec, g, W, B, sources)`` (it yields
    (source label, check) pairs; B is the index bound) and report the
    labelled checks.  A ``twisted`` sweep refuses a symmetry that does not
    preserve the relation span, and draws only eigen relations as sources."""
    spec, g, names = load_spec(args.input)
    if twisted:
        require_preserved(spec, g)
    W = _bound(args.window, "--window")
    B = int(_bound(args.index_bound, "--index-bound"))
    count = int(_bound(args.random_samples, "--random-samples"))
    sources, skipped = _sources(args.seed, count, spec, g, names, twisted)
    checks = [
        CheckResult(f"{label} {c.name}", c.passed, c.witness)
        for label, c in labelled_checks(spec, g, W, B, sources)
    ]
    inputs = _base_inputs(args, spec, g, names)
    inputs["window"] = str(W)
    inputs["index_bound"] = args.index_bound
    inputs["random_samples"] = args.random_samples
    results = {"sources": [label for label, _ in sources]}
    if twisted:
        results["skipped_sources"] = skipped
    results["counts"] = _counts(checks)
    return {"command": command, "inputs": inputs, "results": results}, checks


def cmd_check_va(args):
    def labelled_checks(spec, g, W, B, sources):
        box = range(-B, B + 1)
        samples = [p for _, p in sources]
        for la, a in sources:
            for c in check_va_axioms(a, W, alpha=g.exponents, samples=samples):
                yield f"[a = {la}]", c
        for (la, a), (lb, b) in itertools.product(sources, repeat=2):
            for mi, ni, ki in itertools.product(box, repeat=3):
                yield f"[a = {la}, b = {lb}]", check_borcherds(a, b, mi, ni, ki, W)

    return _sweep(args, "check-va", False, labelled_checks)


def cmd_check_twisted(args):
    def labelled_checks(spec, g, W, B, sources):
        for (la, a), (lb, b) in zip(sources, sources[1:] + sources[:1]):
            for c in check_twisted_axioms(a, b, g, W, spec):
                yield f"[a = {la}, b = {lb}]", c
        for (la, a), (lb, b) in itertools.product(sources, repeat=2):
            ra, rb = eigen_index(a, g.exponents), eigen_index(b, g.exponents)
            for li in range(-B, B + 1):
                for mi in _coset_indices(ra, g.order, B):
                    for ni in _coset_indices(rb, g.order, B):
                        c = check_twisted_borcherds(a, b, g, li, mi, ni, W, spec)
                        yield f"[a = {la}, b = {lb}]", c

    return _sweep(args, "check-twisted", True, labelled_checks)


def cmd_check_quasiconf(args):
    spec, g, names = load_spec(args.input)
    W = _bound(args.max_weight, "--max-weight")
    B = int(_bound(args.index_bound, "--index-bound"))
    checks = check_commutators(g, B, W)
    inputs = _base_inputs(args, spec, g, names)
    inputs["max_weight"] = str(W)
    inputs["index_bound"] = args.index_bound
    results = {"counts": _counts(checks)}
    return {"command": "check-quasiconf", "inputs": inputs, "results": results}, checks


def cmd_coinvariants(args):
    spec, g, names = load_spec(args.input)
    W = _bound(args.max_weight, "--max-weight")
    D = int(_bound(args.max_degree, "--max-degree"))
    dims, checks = verify_fixed_ring(OrbiSetup(spec, g, W, D))
    inputs = _base_inputs(args, spec, g, names)
    inputs["max_weight"] = str(W)
    inputs["max_degree"] = D
    results = {
        "dimensions": [
            {"weight": str(w), "degree": d, "dim": v}
            for (w, d), v in sorted(dims.items())
        ]
    }
    return {"command": "coinvariants", "inputs": inputs, "results": results}, checks


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    lines.append("inputs:")
    _render_obj(report["inputs"], lines, 2)
    lines.append("results:")
    _render_obj(report["results"], lines, 2)
    lines.append("checks:")
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if c.get("witness"):
            line += f" :: {c['witness']}"
        lines.append(line)
    return "\n".join(lines)


def _render_obj(obj, lines: list[str], indent: int) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_obj(v, lines, indent + 2)
            else:
                lines.append(f"{pad}{k}: {v}")
        return
    for v in obj:
        if isinstance(v, dict) and all(
            not isinstance(x, (dict, list)) for x in v.values()
        ):
            body = "  ".join(f"{k}={x}" for k, x in v.items())
            lines.append(f"{pad}- {body}")
        elif isinstance(v, (dict, list)):
            lines.append(f"{pad}-")
            _render_obj(v, lines, indent + 2)
        else:
            lines.append(f"{pad}- {v}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_SWEEP_FLAGS = (
    ("--window", {"type": int, "default": 6}),
    ("--index-bound", {"type": int, "default": 1}),
    ("--random-samples", {"type": int, "default": 1}),
)

# Each subcommand: its help, its runner, and its flags beyond --input,
# --format and --seed, as (flag, ``add_argument`` keywords).
_SUBCOMMANDS = {
    "jet": (
        "jet-equation generators, two ways",
        cmd_jet,
        (("--max-weight", {"default": "4"}),),
    ),
    "twisted-jet": (
        "twisted jet-equation generators",
        cmd_twisted_jet,
        (("--max-weight", {"default": "4"}),),
    ),
    "fixed-points": ("fixed subscheme presentation", cmd_fixed_points, ()),
    "check-va": ("vertex-algebra axioms at a window", cmd_check_va, _SWEEP_FLAGS),
    "check-twisted": (
        "twisted-module axioms at a window",
        cmd_check_twisted,
        _SWEEP_FLAGS,
    ),
    "check-quasiconf": (
        "weight-shift commutators",
        cmd_check_quasiconf,
        (
            ("--max-weight", {"default": "4"}),
            ("--index-bound", {"type": int, "default": 3}),
        ),
    ),
    "coinvariants": (
        "orbifold coinvariant dimensions",
        cmd_coinvariants,
        (
            ("--max-weight", {"default": "3"}),
            ("--max-degree", {"type": int, "default": 3}),
        ),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand's parser, or with only
    the parser of ``command`` when that names one.

    The top parser's usage lists every subcommand either way, so a usage
    error after a known subcommand reads the same; ``main`` builds one
    subcommand's parser only when its arguments start with that name.
    """
    top = argparse.ArgumentParser(
        prog="jetva",
        description="Exact jet-scheme fields, their axioms, and orbifold "
        "coinvariants.",
    )
    if command in _SUBCOMMANDS:
        # the usage text argparse makes from every name
        sub = top.add_subparsers(
            dest="command", required=True, metavar="{%s}" % ",".join(_SUBCOMMANDS)
        )
        names = (command,)
    else:
        sub = top.add_subparsers(dest="command", required=True)
        names = tuple(_SUBCOMMANDS)
    for name in names:
        help_text, run, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="scheme description JSON")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="report format"
        )
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        report, checks = args.run(args)
    except TruncationError as e:
        print(f"window too small: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report["checks"] = [c.to_dict() for c in checks]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
