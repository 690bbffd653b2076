"""Acceptance suite: eight end-to-end guarantees, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
arithmetic is exact; a criterion only passes when every instance inside its
stated bounds holds with zero tolerance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from conftest import relation_entries
from jetva import jetpoly, jetscheme
from jetva.coinv import OrbiSetup, coinvariant_dims, verify_fixed_ring
from jetva.jetpoly import (
    JetPoly,
    eigen_index,
    floor_units,
    substitute_coded,
    translation_series,
)
from jetva.jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    jet_generators,
    twisted_jet_generators,
)
from jetva.quasiconf import L_op, Ltilde_op, check_commutators
from jetva.twisted import (
    check_descent,
    check_twisted_axioms,
    check_twisted_borcherds,
    twisted_field,
)
from jetva.va import check_borcherds, check_va_axioms


# ---------------------------------------------------------------------------
# fixture schemes
# ---------------------------------------------------------------------------


def fixtures(order: int):
    """The four sample curves, built over the given scalar order."""
    x1 = JetPoly.var(order, 1)
    x2 = JetPoly.var(order, 2)
    return [
        ("double-point", SchemeSpec.of(order, 1, [x1 ** 2])),
        ("parabola", SchemeSpec.of(order, 2, [x1 ** 2 - x2])),
        ("axes", SchemeSpec.of(order, 2, [x1 * x2])),
        ("cusp", SchemeSpec.of(order, 2, [x1 ** 3 - x2 ** 2])),
    ]


def admissible_alphas(spec: SchemeSpec):
    """Exponent vectors for which every relation is a character eigenvector;
    only those produce a well-defined twisted quotient."""
    m = spec.order
    out = []
    for alpha in itertools.product(range(m), repeat=spec.k):
        if all(eigen_index(r, alpha) is not None for r in spec.relations):
            out.append(alpha)
    return out


def _report(num: int, text: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, detail or text


def _gen_table(pres):
    return {(g.relation, g.weight): g.poly for g in pres.generators}


# ---------------------------------------------------------------------------
# 1. generator cross-oracle
# ---------------------------------------------------------------------------


def test_criterion_1_generator_methods_agree():
    bad = []
    for label, spec in fixtures(1):
        a = jet_generators(spec, 8, method="T_recursion")
        b = jet_generators(spec, 8, method="substitution")
        if _gen_table(a) != _gen_table(b):
            bad.append(label)
    _report(
        1,
        "jet-equation generators via translation recursion and via "
        "substitution agree on all fixtures to weight 8",
        not bad,
        f"disagree: {bad}",
    )


# ---------------------------------------------------------------------------
# 2. untwisted axioms and quadratic identity
# ---------------------------------------------------------------------------


def test_criterion_2_untwisted_axioms_and_borcherds():
    failures = []
    box = range(-3, 4)
    seen_state_sets = set()
    for label, spec in fixtures(1):
        states = [JetPoly.var(1, i) for i in spec.variables]
        key = len(states)
        if key in seen_state_sets:
            continue  # identities live in the ambient jet ring
        seen_state_sets.add(key)
        for a in states:
            results = check_va_axioms(a, 8, samples=states)
            failures.extend(
                (label, a, r.name) for r in results if not r.passed
            )
        for a in states:
            for b in states:
                for mi in box:
                    for ni in box:
                        for ki in box:
                            res = check_borcherds(a, b, mi, ni, ki, 8)
                            if not res.passed:
                                failures.append((label, mi, ni, ki))
    _report(
        2,
        "vertex-algebra axioms and the quadratic mode identity hold for all "
        "generator pairs, all index triples up to 3, window 8",
        not failures,
        f"first failures: {failures[:3]}",
    )


# ---------------------------------------------------------------------------
# 3. twisted axioms and twisted quadratic identity
# ---------------------------------------------------------------------------


def _coset_values(r: int, m: int, bound: Fraction) -> list[Fraction]:
    base = Fraction(r % m, m)
    vals = []
    t = int(-bound - base) - 1
    while base + t <= bound:
        if -bound <= base + t:
            vals.append(base + t)
        t += 1
    return vals


def test_criterion_3_twisted_axioms_and_borcherds():
    failures = []
    done = set()
    bound = Fraction(5, 2)
    for order in (2, 3, 4):
        for label, spec in fixtures(order):
            for alpha in admissible_alphas(spec):
                g = DiagAutomorphism(order, alpha)
                key = (order, alpha)
                if key in done:
                    continue  # the identities only see (order, exponents)
                done.add(key)
                states = [JetPoly.var(order, i) for i in spec.variables]
                prod = states[0] if len(states) == 1 else states[0] * states[1]
                pairs = [(a, b) for a in states for b in states]
                pairs.append((states[0], prod))
                for a, b in pairs:
                    results = check_twisted_axioms(a, b, g, 4, spec)
                    failures.extend(
                        (label, order, alpha, r.name)
                        for r in results
                        if not r.passed
                    )
                    # mode indices of a character-r state live in r/m + Z
                    ra = eigen_index(a, g.alpha_by_index(spec))
                    rb = eigen_index(b, g.alpha_by_index(spec))
                    for l in range(-2, 3):
                        for mi in _coset_values(ra, order, bound):
                            for ni in _coset_values(rb, order, bound):
                                res = check_twisted_borcherds(
                                    a, b, g, l, mi, ni, 6, spec
                                )
                                if not res.passed:
                                    failures.append(
                                        (label, order, alpha, l, mi, ni)
                                    )
    _report(
        3,
        "twisted-module axioms and the twisted quadratic identity hold for "
        "orders 2,3,4 and every admissible exponent vector "
        "(|l| <= 2, |m|,|n| <= 5/2, window 6)",
        not failures,
        f"first failures: {failures[:3]}",
    )


# ---------------------------------------------------------------------------
# 4. descent of jet equations into twisted fields
# ---------------------------------------------------------------------------


def test_criterion_4_descent():
    failures = []
    for order in (2, 3, 4):
        for label, spec in fixtures(order):
            for alpha in admissible_alphas(spec):
                g = DiagAutomorphism(order, alpha)
                for rel_index in range(1, len(spec.relations) + 1):
                    for n in range(0, 5):
                        results = check_descent(spec, g, rel_index, n, 6 - n)
                        failures.extend(
                            (label, order, alpha, n, r.name)
                            for r in results
                            if not r.passed
                        )
    _report(
        4,
        "every defining equation descends: twisted field coefficients of "
        "divided translates are binomial multiples of the twisted "
        "generators (n <= 4, windows 6 - n)",
        not failures,
        f"first failures: {failures[:3]}",
    )


def _descent_sweep(orders, seed):
    """Every (scheme, symmetry, translate n <= 4) case of the fixtures at
    the given orders, shuffled."""
    sweep = [
        (spec, DiagAutomorphism(order, alpha), n)
        for order in orders
        for _, spec in fixtures(order)
        for alpha in admissible_alphas(spec)
        for n in range(0, 5)
    ]
    random.Random(seed).shuffle(sweep)
    return sweep


def _materialised(expansions):
    """The (units, relation, generator) triples of a tuple of relation
    expansions, one per relation, sorted."""
    return sorted(
        (u, i, p)
        for i, series in enumerate(expansions, start=1)
        for u, p in series.materialise().terms.items()
    )


def test_descent_on_a_warm_basis_cache_matches_a_cold_one():
    # Each (scheme, symmetry) expands its relations once, at the widest
    # window read; a warm cache must give the checks a cold one gives, and
    # each entry, materialised, must hold the generators as a fresh
    # presentation lists them.  A read at a narrower window, a prefix of
    # the entry, must materialise to a fresh expansion at that window.
    sweep = _descent_sweep((2, 3), 4)

    def run():
        return [check_descent(spec, g, 1, n, 6 - n) for spec, g, n in sweep]

    jetpoly._expansion_memo.cache_clear()
    cold = run()
    before = jetpoly._expansion_memo.cache_info()
    warm = run()
    after = jetpoly._expansion_memo.cache_info()
    reads = sum(len(spec.relations) for spec, _, _ in sweep)
    assert (after.hits, after.misses) == (before.hits + reads, before.misses)
    assert warm == cold
    for spec, g, _ in sweep:
        cached = _materialised(jetscheme.coded_relations(spec, g, 6 * g.order))
        fresh = twisted_jet_generators(spec, g, 6).generators
        assert cached == [(gen.units, gen.relation, gen.poly) for gen in fresh]
        for W in (0, Fraction(3, 2), 4):
            top = floor_units(W, g.order)
            prefix = jetscheme.coded_relations(spec, g, top)
            assert _materialised(prefix) == _materialised(
                substitute_coded(p, g.exponents, top) for p in spec.relations
            )
        assert [s.top for entry in relation_entries(spec, g) for s in entry] == [
            6 * g.order
        ]


def test_descent_is_unchanged_by_a_wider_generator_table(monkeypatch):
    # A generator table at weight 8 widens each case's entry in place; the
    # descent checks then read their window W + n = 6 as a prefix of it,
    # expand no relation again, and give what they gave before.
    sweep = _descent_sweep((2, 3, 4), 5)

    def run():
        return [check_descent(spec, g, 1, n, 6 - n) for spec, g, n in sweep]

    jetpoly._expansion_memo.cache_clear()
    before = run()
    narrow = {(spec, g): jetscheme.coded_relations(spec, g, 6 * g.order) for spec, g, _ in sweep}
    for spec, g in narrow:
        twisted_jet_generators(spec, g, 8)
        assert [s.top for entry in relation_entries(spec, g) for s in entry] == [
            8 * g.order
        ]
    expanded = []
    real = jetpoly.substitute_coded

    def counted(*args):
        expanded.append(args)
        return real(*args)

    monkeypatch.setattr(jetpoly, "substitute_coded", counted)
    assert run() == before
    assert expanded == []
    for (spec, g), expansions in narrow.items():
        prefix = jetscheme.coded_relations(spec, g, 6 * g.order)
        assert _materialised(prefix) == _materialised(expansions)
        assert [s.top for s in prefix] == [6 * g.order]


# ---------------------------------------------------------------------------
# 5. weight-shift commutation relations
# ---------------------------------------------------------------------------


def test_criterion_5_commutators():
    failures = []
    for g in [
        DiagAutomorphism(1, (0,)),
        DiagAutomorphism(2, (1, 0)),
        DiagAutomorphism(3, (1, 2)),
        DiagAutomorphism(4, (3, 1)),
    ]:
        results = check_commutators(g, 4, 6)
        failures.extend((g.order, r.name) for r in results if not r.passed)
    _report(
        5,
        "[L_a, L_b] = (b-a) L_{a+b} and the twisted bracket with factor m "
        "hold on all variables of weight <= 6 for 0 <= a,b <= 4; the "
        "twisted weight operator scales by m",
        not failures,
        f"first failures: {failures[:3]}",
    )


# ---------------------------------------------------------------------------
# 6. coinvariants = fixed ring, with stability
# ---------------------------------------------------------------------------

COINV_FIXTURES = [
    ("line-m2", 1, lambda x1, x2: [], (1,), [1, 0, 0, 0]),
    ("plane-m2", 2, lambda x1, x2: [], (1, 0), [1, 1, 1, 1]),
    ("parabola-m2", 2, lambda x1, x2: [x1 ** 2 - x2], (1, 0), [1, 0, 0, 0]),
    ("axes-m2", 2, lambda x1, x2: [x1 * x2], (1, 1), [1, 0, 0, 0]),
]


def _coinv_setup(k, rels, exps, W, D):
    x1 = JetPoly.var(2, 1)
    x2 = JetPoly.var(2, 2)
    spec = SchemeSpec.of(2, k, rels(x1, x2))
    return OrbiSetup(spec, DiagAutomorphism(2, exps), W, D)


def test_criterion_6_coinvariants_match_fixed_ring():
    failures = []
    for label, k, rels, exps, row in COINV_FIXTURES:
        setup = _coinv_setup(k, rels, exps, 3, 3)
        dims, checks = verify_fixed_ring(setup)
        got = [dims.get((Fraction(0), d), 0) for d in range(4)]
        if got != row:
            failures.append((label, "weight-0 row", got))
        failures.extend((label, r.name) for r in checks if not r.passed)

        # stability: each enlargement agrees with the base on the shared box
        bigger_w = coinvariant_dims(_coinv_setup(k, rels, exps, 5, 3))
        bigger_d = coinvariant_dims(_coinv_setup(k, rels, exps, 3, 5))
        for (w, d), v in dims.items():
            if bigger_w.get((w, d), 0) != v:
                failures.append((label, "unstable in weight window", (w, d)))
            if bigger_d.get((w, d), 0) != v:
                failures.append((label, "unstable in degree bound", (w, d)))
    _report(
        6,
        "orbifold coinvariants at W=3, D=3 equal the fixed-subscheme "
        "coordinate ring, stably under enlarging the weight window and the "
        "degree bound",
        not failures,
        f"first failures: {failures[:3]}",
    )


# ---------------------------------------------------------------------------
# 7. order-one degeneration of coinvariants
# ---------------------------------------------------------------------------


def test_criterion_7_trivial_symmetry_coinvariants():
    failures = []
    x1 = JetPoly.var(1, 1)
    cases = [
        ("line", [], [1, 1, 1, 1]),
        ("double-point", [x1 ** 2], [1, 1, 0, 0]),
    ]
    for label, rels, row in cases:
        spec = SchemeSpec.of(1, 1, rels)
        setup = OrbiSetup(spec, DiagAutomorphism(1, (0,)), 3, 3)
        dims, checks = verify_fixed_ring(setup)
        got = [dims.get((Fraction(0), d), 0) for d in range(4)]
        if got != row:
            failures.append((label, got))
        failures.extend((label, r.name) for r in checks if not r.passed)
    _report(
        7,
        "with trivial symmetry the coinvariants reproduce the coordinate "
        "ring of the scheme itself, degree by degree",
        not failures,
        f"failures: {failures}",
    )


# ---------------------------------------------------------------------------
# 8. order-one twisted operations = untwisted operations
# ---------------------------------------------------------------------------


def test_criterion_8_order_one_consistency():
    rng = random.Random(20260815)
    failures = []
    g1 = DiagAutomorphism(1, (0, 0))
    for trial in range(50):
        p = JetPoly.one(1)
        for _ in range(rng.randint(1, 3)):
            p = p * JetPoly.var(1, rng.randint(1, 2), -rng.randint(0, 2))
        W = rng.randint(3, 5)

        tw = twisted_field(p, g1, W)
        pl = translation_series(p, W)
        if tw.terms != pl.terms:
            failures.append((trial, "field"))

        n = Fraction(rng.randint(-W, 1))
        if twisted_field(p, g1, W + 1).mode(n) != translation_series(p, W + 1).mode(n):
            failures.append((trial, "mode", n))

        b = rng.randint(0, 3)
        if Ltilde_op(b, p, g1) != L_op(b, p):
            failures.append((trial, "weight shift", b))

        c = rng.randint(1, 3)
        e = rng.randint(1, 3)
        spec = SchemeSpec.of(
            1, 2, [JetPoly.var(1, 1) ** e - JetPoly.var(1, 2).scale(c)]
        )
        tw_gens = twisted_jet_generators(spec, g1, 3)
        pl_gens = jet_generators(spec, 3)
        if _gen_table(tw_gens) != _gen_table(pl_gens):
            failures.append((trial, "generators"))
    _report(
        8,
        "with order 1 every twisted operation (fields, modes, weight "
        "shifts, jet generators) equals its untwisted counterpart on 50 "
        "seeded random inputs",
        not failures,
        f"first failures: {failures[:3]}",
    )
