"""Coinvariants of the twisted-module pair on the quotient line.  Expected
dimension rows were computed by hand: weight zero must reproduce the
coordinate ring of the fixed subscheme degree by degree, and every
positive-weight entry must vanish.
"""

from fractions import Fraction
from unittest import mock

import pytest

from jetva.coinv import (
    OrbiSetup,
    coinvariant_dims,
    enumerate_sections,
    residue_relation,
    verify_fixed_ring,
)
from jetva import coinv, jetscheme
from jetva.cyclo import CycScalar
from jetva.jetpoly import JetPoly, retag_point
from jetva.jetscheme import DiagAutomorphism, SchemeSpec
from jetva.reports import all_passed
from jetva.twisted import twisted_field


def x(i, m):
    return JetPoly.var(m, i)


def setup_of(order, k, relations, exponents, W=3, D=3):
    spec = SchemeSpec.of(order, k, relations)
    return OrbiSetup(spec, DiagAutomorphism(order, exponents), W, D)


def weight0_row(dims, D):
    return [dims.get((Fraction(0), d), 0) for d in range(D + 1)]


def positive_weight_total(dims):
    return sum(v for (w, _), v in dims.items() if w > 0)


# ---------------------------------------------------------------------------
# section enumeration and residue relations
# ---------------------------------------------------------------------------


def all_relations(setup):
    """{(monomial, j): relation} over every monomial of the setup."""
    return {
        (mon, j): rel
        for mon in enumerate_sections(setup.spec, setup.max_degree)
        for j, rel in residue_relation(mon, setup).items()
    }


def test_sections_respect_character_congruence():
    setup = setup_of(3, 2, [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), W=2, D=3)
    alpha = setup.auto.alpha_by_index(setup.spec)
    rels = all_relations(setup)
    assert rels
    for mon, j in rels:
        assert (j + 1 - mon.character(alpha)) % 3 == 0
        assert abs(j + 1) <= 3 * 2


def test_residue_relations_frozen_line():
    setup = setup_of(2, 1, [], (1,), W=2, D=2)
    rels = {(str(mon), j): str(rel) for (mon, j), rel in all_relations(setup).items()}
    # x has character 1 -> j even; x^2 has character 0 -> j odd
    assert rels == {
        ("x1[0]", -4): "x1[-3/2]",
        ("x1[0]", -2): "x1[-1/2]",
        ("x1[0]", 0): "-xinf1[-1/2]",
        ("x1[0]", 2): "-xinf1[-3/2]",
        ("x1[0]^2", -5): "2*x1[-1/2]*x1[-3/2]",
        ("x1[0]^2", -3): "x1[-1/2]^2",
        ("x1[0]^2", 1): "-xinf1[-1/2]^2",
        ("x1[0]^2", 3): "-2*xinf1[-1/2]*xinf1[-3/2]",
    }


def test_gluing_section_on_fixed_coordinate():
    # j = -1 glues the two alphabets along monomials in fixed coordinates:
    # x2 is fixed by alpha=(1,0), so x2 u^-1 du forces x2[0] = xinf2[0]
    setup = setup_of(2, 2, [], (1, 0), W=2, D=2)
    rels = {
        str(mon): str(rel) for (mon, j), rel in all_relations(setup).items() if j == -1
    }
    # an invariant monomial built from moved coordinates, like x1^2, has no
    # level-0 twisted variables, so it has no gluing relation
    assert rels == {"x2[0]": "x2[0] - xinf2[0]", "x2[0]^2": "x2[0]^2 - xinf2[0]^2"}


# ---------------------------------------------------------------------------
# dimension tables: weight zero = fixed ring, positive weights vanish
# ---------------------------------------------------------------------------

FIXTURES = [
    # (label, order, k, relation builder, exponents, expected weight-0 row)
    ("line-m2", 2, 1, lambda: [], (1,), [1, 0, 0, 0]),
    ("plane-m2", 2, 2, lambda: [], (1, 0), [1, 1, 1, 1]),
    ("parabola-m2", 2, 2, lambda: [x(1, 2) ** 2 - x(2, 2)], (1, 0), [1, 0, 0, 0]),
    ("axes-m2", 2, 2, lambda: [x(1, 2) * x(2, 2)], (1, 1), [1, 0, 0, 0]),
    ("line-m1", 1, 1, lambda: [], (0,), [1, 1, 1, 1]),
    ("dblpoint-m1", 1, 1, lambda: [x(1, 1) ** 2], (0,), [1, 1, 0, 0]),
]


@pytest.mark.parametrize(
    "label,order,k,rels,exps,row", FIXTURES, ids=[f[0] for f in FIXTURES]
)
def test_fixture_tables(label, order, k, rels, exps, row):
    setup = setup_of(order, k, rels(), exps)
    dims, checks = verify_fixed_ring(setup)
    assert weight0_row(dims, 3) == row
    assert positive_weight_total(dims) == 0
    assert all_passed(checks), [c for c in checks if not c.passed]


def test_empty_fixed_locus_certifies_every_slice(monkeypatch, unpruned):
    # x1*x2 = 1 has no point fixed by (x1, x2) -> (-x1, -x2), so the weight-0
    # slices fill too, of the coinvariants and of the fixed ring (the unit
    # relation -1): on the unpruned route each passes the F_p certificate
    monkeypatch.setattr(coinv, "graded_quotient_dims", unpruned)
    setup = setup_of(2, 2, [x(1, 2) * x(2, 2) - JetPoly.one(2)], (1, 1), W=2, D=3)
    verdicts = []
    real = jetscheme.spans_mod_p

    def spy(rows, ncols, p):
        verdicts.append(real(rows, ncols, p))
        return verdicts[-1]

    with mock.patch.object(jetscheme, "spans_mod_p", spy):
        dims, checks = verify_fixed_ring(setup)
    assert all_passed(checks)
    assert not any(dims.values())
    assert verdicts == [True] * (len({w for w, _ in dims}) + 1)
    with mock.patch.object(jetscheme, "spans_mod_p", lambda rows, ncols, p: False):
        assert coinvariant_dims(setup) == dims


# ---------------------------------------------------------------------------
# the linear pre-pass against the unpruned route
# ---------------------------------------------------------------------------

PRUNING_CASES = [
    (label, order, k, rels, exps, 3) for label, order, k, rels, exps, _ in FIXTURES
] + [("cusp-m3", 3, 2, lambda: [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), 2)]


@pytest.mark.parametrize(
    "label,order,k,rels,exps,W", PRUNING_CASES, ids=[c[0] for c in PRUNING_CASES]
)
def test_pruned_coinvariant_tables_equal_the_unpruned_route(
    monkeypatch, unpruned, label, order, k, rels, exps, W
):
    setup = setup_of(order, k, rels(), exps, W=W, D=3)
    pruned = coinvariant_dims(setup)
    monkeypatch.setattr(coinv, "graded_quotient_dims", unpruned)
    assert list(pruned.items()) == list(coinvariant_dims(setup).items())


def test_pruned_cusp_box_needs_no_certificate(monkeypatch):
    # On the cusp at W=2, D=3 the degree-1 sections kill every
    # positive-weight variable and glue x2[0] to xinf2[0]: one weight-0
    # slice is left, it does not fill, and no F_p pass runs.  The table
    # still has an entry for each (w, d) of the unpruned box.
    setup = setup_of(3, 2, [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), W=2, D=3)
    slices = []
    real = jetscheme._box_dims

    def counted(*args):
        dims = real(*args)
        slices.append(len({w for w, _ in dims}))
        return dims

    monkeypatch.setattr(jetscheme, "_box_dims", counted)
    with mock.patch.object(jetscheme, "spans_mod_p") as spy:
        dims = coinvariant_dims(setup)
    assert spy.call_count == 0
    assert slices == [1]
    assert list(dims) == [
        (Fraction(k, 3), d) for k in range(3 * 2 + 1) for d in range(3 + 1)
    ]


# Tables of larger boxes, recorded with the exact elimination of every
# slice: weight 0 reads the fixed ring and every positive weight vanishes.
LARGE_BOXES = [
    ("cusp-m3", 3, lambda: [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), 8, 6, [1, 1]),
    (
        "zeta4-m4",
        4,
        lambda: [x(1, 4) ** 2 - JetPoly.const(4, CycScalar.zeta(4)) * x(2, 4) ** 2],
        (1, 1),
        6,
        7,
        [1],
    ),
]


@pytest.mark.parametrize(
    "label,order,rels,exps,W,D,row", LARGE_BOXES, ids=[b[0] for b in LARGE_BOXES]
)
def test_large_box_tables_frozen(label, order, rels, exps, W, D, row):
    dims = coinvariant_dims(setup_of(order, 2, rels(), exps, W=W, D=D))
    row = row + [0] * (D + 1 - len(row))
    assert dims == {
        (Fraction(k, order), d): row[d] if k == 0 else 0
        for k in range(order * W + 1)
        for d in range(D + 1)
    }


def test_stability_in_window_size():
    # enlarging the truncation box must not change the shared entries
    base = setup_of(2, 2, [x(1, 2) ** 2 - x(2, 2)], (1, 0), W=1, D=2)
    big = setup_of(2, 2, [x(1, 2) ** 2 - x(2, 2)], (1, 0), W=3, D=3)
    small_dims = coinvariant_dims(base)
    big_dims = coinvariant_dims(big)
    for key, val in small_dims.items():
        assert big_dims.get(key, 0) == val


def relations_section_by_section(setup):
    """The relations read one section at a time, over the section box
    j in [-(mW + 1), mW] widened by 4 on each side: the coefficient of
    z^(-(j+1)/m) in Y_g(p) minus the retagged coefficient of w^((j+1)/m) in
    Y_g^-1(p), kept when nonzero and of weight at most W."""
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    m = g.order
    alpha = g.alpha_by_index(spec)
    span = int(m * W) + 5
    window = Fraction(span, m)  # the largest |j + 1| / m in the widened box
    out = {}
    for mon in enumerate_sections(spec, setup.max_degree):
        p = JetPoly(m, ((mon, CycScalar.one(m)),))
        at0 = twisted_field(p, g, window, spec)
        atinf = twisted_field(p, g.inverse(), window, spec)
        for j in range(-span, span):
            if (j + 1 - mon.character(alpha)) % m:
                continue
            e = Fraction(j + 1, m)
            rel = at0.coefficient(-e) - retag_point(atinf.coefficient(e), 1)
            if not rel.is_zero and rel.homogeneous_weight() <= W:
                out[(mon, j)] = rel
    return out


SECTION_CASES = [
    (label, order, k, rels, exps, 3, 3) for label, order, k, rels, exps, _ in FIXTURES
] + [
    ("cusp-m3", 3, 2, lambda: [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), 2, 3),
    ("line-m4-W5/2", 4, 1, lambda: [], (1,), Fraction(5, 2), 2),
    ("line-m3-W7/3", 3, 1, lambda: [], (2,), Fraction(7, 3), 3),
]


@pytest.mark.parametrize(
    "label,order,k,rels,exps,W,D", SECTION_CASES, ids=[c[0] for c in SECTION_CASES]
)
def test_relations_match_section_by_section(label, order, k, rels, exps, W, D):
    setup = setup_of(order, k, rels(), exps, W=W, D=D)
    assert all_relations(setup) == relations_section_by_section(setup)


def test_setup_validation():
    spec = SchemeSpec.of(2, 2, [])
    with pytest.raises(ValueError):
        OrbiSetup(spec, DiagAutomorphism(2, (1,)), 2, 2)  # wrong arity
    with pytest.raises(ValueError):
        OrbiSetup(spec, DiagAutomorphism(3, (1, 0)), 2, 2)  # wrong order
