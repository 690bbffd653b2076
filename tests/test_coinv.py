"""Coinvariants of the twisted-module pair on the quotient line.  Expected
dimension rows were computed by hand: weight zero must reproduce the
coordinate ring of the fixed subscheme degree by degree, and every
positive-weight entry must vanish.
"""

import itertools
import json
from fractions import Fraction

import pytest

from jetva.coinv import (
    OrbiSetup,
    coinvariant_dims,
    enumerate_sections,
    residue_relation,
    verify_fixed_ring,
)
from jetva import cli, coinv, jetscheme
from jetva.cyclo import CycScalar
from jetva.jetpoly import JetPoly, retag_point
from jetva.jetscheme import DiagAutomorphism, SchemeSpec
from jetva.twisted import twisted_field


def x(i, m):
    return JetPoly.var(m, i)


def cusp():
    return [x(1, 3) ** 3 - x(2, 3) ** 2]


def zeta4():
    return [x(1, 4) ** 2 - JetPoly.const(4, CycScalar.zeta(4)) * x(2, 4) ** 2]


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
    assert all(r.passed for r in checks), [c for c in checks if not c.passed]


WEIGHT0 = "weight 0: coinvariant dimensions equal the fixed-ring table"
POSITIVE = "positive weight: every coinvariant dimension vanishes"


@pytest.mark.parametrize(
    "key, checks",
    [
        (
            (Fraction(0), 2),
            [
                (WEIGHT0, False, "degree 2: coinvariants 1, fixed ring 0"),
                (POSITIVE, True, None),
            ],
        ),
        (
            (Fraction(1), 2),
            [
                (WEIGHT0, True, None),
                (POSITIVE, False, "weight 1, degree 2: dimension 1"),
            ],
        ),
    ],
    ids=["weight-0", "positive-weight"],
)
def test_a_perturbed_table_fails_with_its_entry_as_witness(
    monkeypatch, tmp_path, capsys, key, checks
):
    # The parabola's table is [1, 0, 0, 0] in weight 0 and 0 elsewhere; one
    # entry raised by 1 is the witness, in the API and in the CLI report.
    real = coinv.coinvariant_dims

    def perturbed(setup):
        dims = dict(real(setup))
        dims[key] += 1
        return dims

    monkeypatch.setattr(coinv, "coinvariant_dims", perturbed)
    setup = setup_of(2, 2, [x(1, 2) ** 2 - x(2, 2)], (1, 0), W=2, D=3)
    _, got = verify_fixed_ring(setup)
    assert [(c.name, c.passed, c.witness) for c in got] == checks

    path = tmp_path / "parabola.json"
    scheme = {"m": 2, "variables": ["x1", "x2"], "relations": ["x1^2 - x2"]}
    path.write_text(json.dumps({**scheme, "exponents": [1, 0]}))
    argv = ["coinvariants", "--input", str(path), "--max-weight", "2"]
    assert cli.main([*argv, "--max-degree", "3", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["pass"], c.get("witness")) for c in report] == checks


def test_empty_fixed_locus_certifies_every_slice(
    monkeypatch, counted_reducers, unpruned_coinvariants
):
    # x1*x2 = 1 has no point fixed by (x1, x2) -> (-x1, -x2), so the weight-0
    # slices fill too, of the coinvariants and of the fixed ring (the unit
    # relation -1).  The pivots kill every variable, so each box is one
    # weight-0 slice; RowReducer reaches full rank on it and takes no row
    # after that.
    setup = setup_of(2, 2, [x(1, 2) * x(2, 2) - JetPoly.one(2)], (1, 1), W=2, D=3)
    boxes = []  # (reducer, column count) of every slice, box by box
    real = jetscheme._box_dims

    def box_dims(order, ambient, gens, W, D):
        first = len(counted_reducers)
        dims = real(order, ambient, gens, W, D)
        slices = jetscheme.enumerate_monomials(ambient, W, D)
        assert list(slices) == [0]
        boxes.extend(zip(counted_reducers[first:], [len(slices[0])], strict=True))
        return dims

    with monkeypatch.context() as patch:
        patch.setattr(jetscheme, "_box_dims", box_dims)
        dims, checks = verify_fixed_ring(setup)
    assert all(r.passed for r in checks)
    assert not any(dims.values())
    assert len(boxes) == 2
    assert all(red.rank == n for red, n in boxes)
    assert all(rank < n for red, n in boxes for rank in red.ranks_before)
    assert list(dims.items()) == list(unpruned_coinvariants(setup).items())


# ---------------------------------------------------------------------------
# the linear pre-pass against the unpruned route
# ---------------------------------------------------------------------------

PRUNING_CASES = [
    (label, order, k, rels, exps, 3) for label, order, k, rels, exps, _ in FIXTURES
] + [("cusp-m3", 3, 2, cusp, (2, 0), 2)]


@pytest.mark.parametrize(
    "label,order,k,rels,exps,W", PRUNING_CASES, ids=[c[0] for c in PRUNING_CASES]
)
def test_pruned_coinvariant_tables_equal_the_unpruned_route(
    unpruned_coinvariants, label, order, k, rels, exps, W
):
    setup = setup_of(order, k, rels(), exps, W=W, D=3)
    pruned = coinvariant_dims(setup)
    assert list(pruned.items()) == list(unpruned_coinvariants(setup).items())


RELATION_BOXES = [
    (label, order, k, rels, exps, W, 3)
    for label, order, k, rels, exps, W in PRUNING_CASES
] + [("zeta4-m4", 4, 2, zeta4, (1, 1), 6, 7)]


@pytest.mark.parametrize(
    "label,order,k,rels,exps,W,D", RELATION_BOXES, ids=[c[0] for c in RELATION_BOXES]
)
def test_higher_section_relations_vanish_under_the_linear_pivots(
    label, order, k, rels, exps, W, D
):
    # The lemma of the coinv docstring: the pivots of the linear generators
    # glue x_i[0] to xinf_i[0] and kill every variable of positive weight,
    # so they send the relation of every section of degree >= 2 to zero.
    setup = setup_of(order, k, rels(), exps, W=W, D=D)
    ambient, gens = coinv._base_generators(setup)
    images, _ = jetscheme.eliminate_linear(order, ambient, gens)
    higher = [
        rel
        for mon in enumerate_sections(setup.spec, D)
        if mon.degree >= 2
        for rel in residue_relation(mon, setup).values()
    ]
    assert images
    assert higher
    assert all(jetscheme._substitute(rel, images).is_zero for rel in higher)


def test_cusp_elimination_holds_cycscalars_only(monkeypatch):
    # Every coefficient of the linear images, and every pivot and residue
    # entry of each reducer a coinvariant table builds, is a CycScalar of
    # the scheme's order.
    setup = setup_of(3, 2, cusp(), (2, 0), W=6, D=5)
    ambient, gens = coinv._base_generators(setup)
    images, _ = jetscheme.eliminate_linear(3, ambient, gens)
    assert images
    coeffs = [c for image in images.values() for _, c in image]
    assert coeffs
    assert all(type(c) is CycScalar and c.order == 3 for c in coeffs)

    reducers, residues = [], []

    class Checked(jetscheme.RowReducer):
        def __init__(self, order):
            super().__init__(order)
            reducers.append(self)

        def reduce(self, row):
            res = super().reduce(row)
            residues.extend(res.values())
            return res

    monkeypatch.setattr(jetscheme, "RowReducer", Checked)
    coinvariant_dims(setup)
    entries = [v for red in reducers for piv in red.pivots.values() for v in piv.values()]
    assert reducers and entries and residues
    assert all(type(v) is CycScalar and v.order == 3 for v in entries + residues)


def _sweep_slice():
    """x1^a - x2^b and x1^a*x2^b for a, b <= 3 and m <= 4, with every
    exponent vector that preserves the relation.  The cases of one symmetry
    come together, so they share its cached twisted fields."""
    for m in range(1, 5):
        for exps in itertools.product(range(m), repeat=2):
            g = DiagAutomorphism(m, exps)
            for a, b in itertools.product(range(1, 4), repeat=2):
                for rel in (x(1, m) ** a - x(2, m) ** b, x(1, m) ** a * x(2, m) ** b):
                    spec = SchemeSpec.of(m, 2, [rel])
                    if jetscheme.preserves_ideal(spec, g):
                        yield OrbiSetup(spec, g, 2, 3)


def test_sweep_slice_pruned_tables_equal_the_unpruned_route(unpruned_coinvariants):
    cases = list(_sweep_slice())
    assert len(cases) == 372
    mismatched = [
        (str(setup.spec.relations[0]), setup.auto.order, setup.auto.exponents)
        for setup in cases
        if list(coinvariant_dims(setup).items())
        != list(unpruned_coinvariants(setup).items())
    ]
    assert mismatched == []


def test_pruned_cusp_box_needs_no_certificate(monkeypatch):
    # On the cusp at W=2, D=3 the degree-1 sections kill every
    # positive-weight variable and glue x2[0] to xinf2[0]: one weight-0
    # slice is left to eliminate.  The table still has an entry for each
    # (w, d) of the unpruned box.
    setup = setup_of(3, 2, [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), W=2, D=3)
    slices = []
    real = jetscheme._box_dims

    def counted(*args):
        dims = real(*args)
        slices.append(len({w for w, _ in dims}))
        return dims

    monkeypatch.setattr(jetscheme, "_box_dims", counted)
    dims = coinvariant_dims(setup)
    assert slices == [1]
    assert list(dims) == [
        (Fraction(k, 3), d) for k in range(3 * 2 + 1) for d in range(3 + 1)
    ]


def test_coinvariant_job_solves_the_linear_generators_once(monkeypatch):
    # the linear generators are solved once, inside graded_quotient_dims
    setup = setup_of(3, 2, [x(1, 3) ** 3 - x(2, 3) ** 2], (2, 0), W=2, D=3)
    solves = []
    real = jetscheme._solve_linear

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(jetscheme, "_solve_linear", counted)
    coinvariant_dims(setup)
    assert len(solves) == 1


# Tables of larger boxes, as the theorem gives them: weight 0 reads the
# fixed ring and every positive weight vanishes.  The cusp's fixed ring is
# C[x2]/(x2^2), since x1 is moved; zeta4 moves both coordinates, so its
# fixed ring is C.
LARGE_BOXES = [
    ("cusp-m3", 3, cusp, (2, 0), 8, 6, [1, 1]),
    ("cusp-m3-W12", 3, cusp, (2, 0), 12, 8, [1, 1]),
    ("zeta4-m4", 4, zeta4, (1, 1), 6, 7, [1]),
    ("zeta4-m4-W8", 4, zeta4, (1, 1), 8, 8, [1]),
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
    ("cusp-m3", 3, 2, cusp, (2, 0), 2, 3),
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
