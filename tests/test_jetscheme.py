"""Jet-equation generators, twisted variants, fixed subschemes, and the
bounded bigraded dimension tables.  Frozen generator polynomials were
derived by hand by iterating T P / n! and, independently, by expanding the
relations along the generic (twisted) jet.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import empty_caches
from jetva import jetpoly
from jetva.coinv import OrbiSetup
from jetva.cyclo import CycScalar
from jetva.jetpoly import JetPoly, Monomial, derivation_T, jet_var
from jetva.jetscheme import (
    DiagAutomorphism,
    IdealNotPreservedError,
    SchemeSpec,
    enumerate_monomials,
    fixed_point_ring,
    graded_quotient_dims,
    jet_generators,
    preserves_ideal,
    twisted_jet_generators,
)
from jetva.linalg import RowReducer
from jetva.twisted import check_descent


def x(i, level=0, m=1):
    return JetPoly.var(m, i, level)


def _by_weight(pres):
    return {(g.relation, g.weight): str(g.poly) for g in pres.generators}


# ---------------------------------------------------------------------------
# scheme validation
# ---------------------------------------------------------------------------


def test_spec_rejects_higher_level_relations():
    with pytest.raises(ValueError):
        SchemeSpec.of(1, 1, [x(1, -1)])


def test_spec_rejects_unknown_variables():
    with pytest.raises(ValueError):
        SchemeSpec(1, (1,), (x(2),))


# ---------------------------------------------------------------------------
# untwisted generators
# ---------------------------------------------------------------------------


def test_double_point_generators_frozen():
    spec = SchemeSpec.of(1, 1, [x(1) ** 2])
    pres = jet_generators(spec, 3)
    assert _by_weight(pres) == {
        (1, Fraction(0)): "x1[0]^2",
        (1, Fraction(1)): "2*x1[0]*x1[-1]",
        (1, Fraction(2)): "2*x1[0]*x1[-2] + x1[-1]^2",
        (1, Fraction(3)): "2*x1[0]*x1[-3] + 2*x1[-1]*x1[-2]",
    }


def test_methods_agree_on_sample_curves():
    curves = [
        SchemeSpec.of(1, 1, [x(1) ** 2]),
        SchemeSpec.of(1, 2, [x(1) ** 2 - x(2)]),
        SchemeSpec.of(1, 2, [x(1) * x(2)]),
        SchemeSpec.of(1, 2, [x(1) ** 3 - x(2) ** 2]),
    ]
    for spec in curves:
        a = jet_generators(spec, 5, "T_recursion")
        b = jet_generators(spec, 5, "substitution")
        assert _by_weight(a) == _by_weight(b)


def test_T_recursion_translates_max_weight_times_per_relation(monkeypatch):
    # P[i,0..W] are read off one translation series per relation, which
    # applies T exactly W times
    spec = SchemeSpec.of(1, 2, [x(1) ** 2 - x(2), x(1) * x(2)])
    jetpoly._translate_chain.cache_clear()
    calls = []
    real = jetpoly.derivation_T

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(jetpoly, "derivation_T", counted)
    pres = jet_generators(spec, 5, "T_recursion")
    assert len(calls) == 5 * len(spec.relations)
    assert pres == jet_generators(spec, 5, "substitution")


def test_generator_recursion_weightwise():
    # P[i,n+1] = T(P[i,n]) / (n+1) as polynomials
    spec = SchemeSpec.of(1, 2, [x(1) ** 3 - x(2) ** 2])
    pres = jet_generators(spec, 4)
    polys = {g.weight: g.poly for g in pres.generators}
    for n in range(0, 4):
        assert polys[n + 1] == derivation_T(polys[n]).scale(Fraction(1, n + 1))


# ---------------------------------------------------------------------------
# diagonal symmetries
# ---------------------------------------------------------------------------


def test_preserves_ideal():
    spec = SchemeSpec.of(2, 2, [x(1, m=2) ** 2 - x(2, m=2)])
    assert preserves_ideal(spec, DiagAutomorphism(2, (1, 0)))
    # x1 -> -x1, x2 -> -x2 sends x1^2 - x2 to x1^2 + x2: not in the span
    assert not preserves_ideal(spec, DiagAutomorphism(2, (1, 1)))
    with pytest.raises(IdealNotPreservedError):
        twisted_jet_generators(spec, DiagAutomorphism(2, (1, 1)), 2)


def test_generators_and_descent_eliminate_the_relation_span_once(counted_reducers):
    # The table and the check of one (scheme, symmetry) both require the
    # preservation test, whose span of two relations is the only one
    # eliminated: a passing descent check certifies its own span.
    spec = SchemeSpec.of(2, 2, [x(1, m=2) ** 2 - x(2, m=2), x(1, m=2) * x(2, m=2)])
    g = DiagAutomorphism(2, (1, 0))
    empty_caches()
    assert twisted_jet_generators(spec, g, 3).generators
    assert all(r.passed for r in check_descent(spec, g, 1, 1, 2))
    assert [red.ranks_before for red in counted_reducers] == [[0, 1]]


@pytest.mark.parametrize(
    "spec, g, message",
    [
        (
            SchemeSpec.of(3, 1, [x(1, m=3) ** 2]),
            DiagAutomorphism(3, (1, 0)),
            "exponent count does not match the scheme",
        ),
        # x1 -> zeta_4 x1 on a scheme over Q(zeta_3) used to give x1[-3/4]^2.
        (
            SchemeSpec.of(3, 1, [x(1, m=3) ** 2]),
            DiagAutomorphism(4, (1,)),
            "scheme and symmetry orders differ",
        ),
        # The one exponent acts on x1, which this scheme lacks.
        (
            SchemeSpec(3, (2,), (x(2, m=3) ** 2,)),
            DiagAutomorphism(3, (1,)),
            "a symmetry needs scheme coordinates 1..k",
        ),
    ],
    ids=["exponent-count", "order", "coordinates"],
)
@pytest.mark.parametrize(
    "entry",
    [
        preserves_ideal,
        lambda spec, g: twisted_jet_generators(spec, g, 2),
        fixed_point_ring,
        lambda spec, g: OrbiSetup(spec, g, 2, 2),
        lambda spec, g: check_descent(spec, g, 1, 0, 2),
        lambda spec, g: g.alpha_by_index(spec),
    ],
    ids=[
        "preserves_ideal",
        "twisted_jet_generators",
        "fixed_point_ring",
        "OrbiSetup",
        "check_descent",
        "alpha_by_index",
    ],
)
def test_a_symmetry_that_does_not_fit_the_scheme_is_refused(entry, spec, g, message):
    with pytest.raises(ValueError, match=message):
        entry(spec, g)


def test_offsets_are_positional():
    g = DiagAutomorphism(4, (1, 0, 3))
    assert g.alpha_by_index(SchemeSpec.of(4, 3, [])) == (1, 0, 3)


def test_twisted_jet_generators_build_no_fraction_per_variable_or_generator(
    fraction_calls,
):
    # Measured at 4 Fraction.__new__ calls (Python 3.11) at every weight:
    # the window, read twice, its copy in the substitution and the top
    # weight there; jet variables and generator weights are ints.  At weight 8 the cusp
    # has 17 variables and 9 generators, at weight 4 9 and 5, so a Fraction
    # per variable or per generator breaks the equality.
    spec = SchemeSpec.of(3, 2, [x(1, m=3) ** 3 - x(2, m=3) ** 2])
    g = DiagAutomorphism(3, (2, 0))
    calls, pres = fraction_calls(twisted_jet_generators, spec, g, 8)
    assert (len(pres.variables), len(pres.generators)) == (17, 9)
    assert [str(gen.weight) for gen in pres.generators] == [str(k) for k in range(9)]
    assert calls <= 6
    assert fraction_calls(twisted_jet_generators, spec, g, 4)[0] == calls


def test_twisted_generators_parabola_frozen():
    spec = SchemeSpec.of(2, 2, [x(1, m=2) ** 2 - x(2, m=2)])
    g = DiagAutomorphism(2, (1, 0))
    pres = twisted_jet_generators(spec, g, 2)
    assert _by_weight(pres) == {
        (1, Fraction(0)): "-x2[0]",
        (1, Fraction(1)): "-x2[-1] + x1[-1/2]^2",
        (1, Fraction(2)): "-x2[-2] + 2*x1[-1/2]*x1[-3/2]",
    }
    assert [str(v) for v in pres.variables] == [
        "x1[-1/2]",
        "x1[-3/2]",
        "x2[0]",
        "x2[-1]",
        "x2[-2]",
    ]


def test_twisted_generators_order_one_match_untwisted():
    spec = SchemeSpec.of(1, 2, [x(1) * x(2)])
    g = DiagAutomorphism(1, (0, 0))
    assert _by_weight(twisted_jet_generators(spec, g, 4)) == _by_weight(
        jet_generators(spec, 4)
    )


def test_fixed_point_ring():
    spec = SchemeSpec.of(2, 2, [x(1, m=2) ** 2 - x(2, m=2)])
    fixed = fixed_point_ring(spec, DiagAutomorphism(2, (1, 0)))
    assert fixed.variables == (2,)
    assert [str(p) for p in fixed.relations] == ["-x2[0]"]

    axes = SchemeSpec.of(2, 2, [x(1, m=2) * x(2, m=2)])
    fixed = fixed_point_ring(axes, DiagAutomorphism(2, (1, 1)))
    assert fixed.variables == ()
    assert fixed.relations == ()

    everything = fixed_point_ring(axes, DiagAutomorphism(2, (0, 0)))
    assert everything.variables == (1, 2)
    assert len(everything.relations) == 1


# ---------------------------------------------------------------------------
# bounded dimension tables
# ---------------------------------------------------------------------------


def test_dims_double_point_weight0():
    # C[x]/(x^2): dimensions 1, 1, 0, 0 per degree
    ambient = (jet_var(1, 0),)
    dims = graded_quotient_dims(1, ambient, [x(1) ** 2], 0, 3)
    assert [dims.get((Fraction(0), d), 0) for d in range(4)] == [1, 1, 0, 0]


def test_dims_polynomial_line():
    ambient = (jet_var(1, 0),)
    dims = graded_quotient_dims(1, ambient, [], 0, 2)
    assert [dims.get((Fraction(0), d), 0) for d in range(3)] == [1, 1, 1]


def test_dims_jet_double_point_weight1():
    # weight-1 slice of C[x_0, x_1]/(x^2, 2 x_0 x_1): monomials x_1, x_0 x_1,
    # x_0^2 x_1; rows kill x_0 x_1 (gen) and x_0^2 x_1 (multiple) -> dim 1
    spec = SchemeSpec.of(1, 1, [x(1) ** 2])
    pres = jet_generators(spec, 1)
    ambient = pres.variables
    dims = graded_quotient_dims(1, ambient, [g.poly for g in pres.generators], 1, 3)
    assert dims[(Fraction(1), 1)] == 1
    assert dims.get((Fraction(1), 2), 0) == 0


def test_dims_reject_inhomogeneous_generator():
    with pytest.raises(ValueError):
        graded_quotient_dims(
            1, (jet_var(1, 0), jet_var(1, -1)), [x(1) + x(1, -1)], 1, 2
        )


def test_enumerate_monomials_sorted_by_degree_within_slice():
    ambient = (jet_var(1, 0), jet_var(1, -1))
    slices = enumerate_monomials(ambient, 2, 3)
    for mons in slices.values():
        degs = [mon.degree for mon in mons]
        assert degs == sorted(degs)
    # weight-2 slice: x[-1]^2, and x[0]^d * x[-1]^2 for d = 1
    assert [str(mon) for mon in slices[Fraction(2)]] == [
        "x1[-1]^2",
        "x1[0]*x1[-1]^2",
    ]


# Twisted levels at m = 3 on both alphabets, so weights run over (1/3)Z.
_POOL = (
    jet_var(1, 0),
    jet_var(1, -1),
    jet_var(2, Fraction(-1, 3)),
    jet_var(2, Fraction(-4, 3)),
    jet_var(3, Fraction(-2, 3)),
    jet_var(1, Fraction(-2, 3), point=1),
)


def _box_counts(ambient, gen_exps, W, D):
    """(weight, degree) -> number of box monomials no generator divides,
    by brute force over every exponent vector."""
    counts = Counter()
    weights = set()
    for exps in itertools.product(range(D + 1), repeat=len(ambient)):
        d = sum(exps)
        w = sum((v.weight * e for v, e in zip(ambient, exps)), Fraction(0))
        if d > D or w > W:
            continue
        weights.add(w)
        if not any(all(a <= b for a, b in zip(g, exps)) for g in gen_exps):
            counts[(w, d)] += 1
    return {(w, d): counts[(w, d)] for w in sorted(weights) for d in range(D + 1)}


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.sampled_from(range(len(_POOL))), unique=True, max_size=4),
    data=st.data(),
    W=st.fractions(min_value=0, max_value=Fraction(5, 2), max_denominator=7),
    D=st.integers(min_value=0, max_value=3),
)
@example(picks=[], data=None, W=Fraction(1), D=2)
@example(picks=[0, 2], data=None, W=Fraction(5, 4), D=0)
def test_dims_of_monomial_ideal_count_undivided_monomials(picks, data, W, D):
    ambient = tuple(_POOL[i] for i in sorted(picks))
    gen_exps = []
    if data is not None and ambient:
        gen_exps = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=2),
                    min_size=len(ambient),
                    max_size=len(ambient),
                ).filter(any),
                max_size=3,
            )
        )
    z = CycScalar.zeta(3)
    coeffs = itertools.cycle([CycScalar.one(3), z, CycScalar.from_rational(3, -2)])
    gens = [
        JetPoly(3, ((Monomial.of(*zip(ambient, exps)), next(coeffs)),))
        for exps in gen_exps
    ]
    assert graded_quotient_dims(3, ambient, gens, W, D) == _box_counts(
        ambient, gen_exps, W, D
    )


# Weight-0 tables of a plane curve read the Hilbert function of the ideal of
# leading (top-degree) forms: x1^2, x1^3 and x1*x2 here.
@pytest.mark.parametrize(
    "relation, D, table",
    [
        (x(1) ** 2 - x(2), 3, [1, 2, 2, 2]),
        (x(1) ** 3 - x(2) ** 2, 4, [1, 2, 3, 3, 3]),
        (x(1) * x(2) - JetPoly.one(1), 3, [1, 2, 2, 2]),
    ],
    ids=["parabola", "cusp", "hyperbola"],
)
def test_dims_of_mixed_degree_curves_frozen(relation, D, table):
    dims = graded_quotient_dims(1, (jet_var(1, 0), jet_var(2, 0)), [relation], 0, D)
    assert dims == {(Fraction(0), d): table[d] for d in range(D + 1)}


def _probe_dims(order, ambient, gens, W, D):
    """Reference tables by two eliminations per weight slice: insert every
    in-box generator multiple, then a unit row for each monomial in degree
    order, and count the degree-d unit rows that enlarge the row space."""
    slices = enumerate_monomials(ambient, W, D)
    one = CycScalar.one(order)
    dims = {}
    for w, mons in slices.items():
        columns = {mon: j for j, mon in enumerate(mons)}
        red = RowReducer(order)
        for g in gens:
            for mon in slices.get(w - g.homogeneous_weight(), ()):
                if mon.degree + g.max_degree() <= D:
                    red.add({columns[mon * t]: c for t, c in g.terms})
        gained = Counter(mon.degree for mon in mons if red.add({columns[mon]: one}))
        dims.update({(w, d): gained[d] for d in range(D + 1)})
    return dims


# Weights 0, 1, 1/3 and 2/3 at m = 3, so one weight holds monomials of
# several degrees (x1[-1], x2[-1/3]^3 and x1[0]*x3[-2/3]*x2[-1/3]).
_MIXED = (jet_var(1, 0), jet_var(1, -1), jet_var(2, Fraction(-1, 3)),
          jet_var(3, Fraction(-2, 3)))


def _low_degree_by_weight():
    """Monomials of degree at most 3, so that generators fit in the box,
    grouped by weight; a generator draws up to three terms from one group."""
    groups = {}
    for exps in itertools.product(range(4), repeat=len(_MIXED)):
        if sum(exps) <= 3:
            mon = Monomial.of(*zip(_MIXED, exps))
            groups.setdefault(mon.weight, []).append(mon)
    return groups


_BY_WEIGHT = _low_degree_by_weight()


def _mixed_gens(term_lists):
    """One generator per list of monomials, coefficients cycling through 1,
    zeta and -2."""
    z = CycScalar.zeta(3)
    coeffs = itertools.cycle([CycScalar.one(3), z, CycScalar.from_rational(3, -2)])
    return [
        sum((JetPoly(3, ((mon, next(coeffs)),)) for mon in terms), JetPoly.zero(3))
        for terms in term_lists
    ]


def _generator_terms():
    return st.sampled_from(sorted(_BY_WEIGHT)).flatmap(
        lambda w: st.lists(
            st.sampled_from(_BY_WEIGHT[w]), min_size=1, max_size=3, unique=True
        )
    )


def _mons(*exponent_vectors):
    return [Monomial.of(*zip(_MIXED, exps)) for exps in exponent_vectors]


@settings(max_examples=40, deadline=None)
@given(
    term_lists=st.lists(_generator_terms(), min_size=1, max_size=3),
    W=st.fractions(min_value=0, max_value=2, max_denominator=3),
    D=st.integers(min_value=0, max_value=4),
)
# 1 + zeta*x1[0]^2: no slice fills up
@example(term_lists=[_mons((0, 0, 0, 0), (2, 0, 0, 0))], W=Fraction(1), D=3)
# x1[-1] + zeta*x2[-1/3]^3 and -2*x3[-2/3] + x1[0]*x2[-1/3]^2: none fills up
@example(
    term_lists=[_mons((0, 1, 0, 0), (0, 0, 3, 0)), _mons((0, 0, 0, 1), (1, 0, 2, 0))],
    W=Fraction(5, 3),
    D=4,
)
def test_dims_match_the_two_pass_probe(term_lists, W, D):
    gens = _mixed_gens(term_lists)
    assert graded_quotient_dims(3, _MIXED, gens, W, D) == _probe_dims(
        3, _MIXED, gens, W, D
    )


def test_dims_insert_only_generator_multiples(monkeypatch):
    spec = SchemeSpec.of(3, 2, [x(1, m=3) ** 3 - x(2, m=3) ** 2])
    pres = twisted_jet_generators(spec, DiagAutomorphism(3, (2, 0)), 3)
    gens = [g.poly for g in pres.generators]
    W, D = 3, 4
    slices = enumerate_monomials(pres.variables, W, D)
    multiples = sum(
        mon.degree + g.max_degree() <= D
        for w in slices
        for g in gens
        for mon in slices.get(w - g.homogeneous_weight(), ())
    )
    calls = []
    real = RowReducer.add

    def counted(self, row):
        calls.append(row)
        return real(self, row)

    monkeypatch.setattr(RowReducer, "add", counted)
    graded_quotient_dims(3, pres.variables, gens, W, D)
    assert multiples > 0
    assert len(calls) == multiples


@settings(max_examples=20, deadline=None)
@given(
    c=st.integers(min_value=-2, max_value=2).filter(bool),
    e=st.integers(min_value=1, max_value=3),
    w=st.integers(min_value=0, max_value=3),
)
def test_method_agreement_random_plane_curves(c, e, w):
    spec = SchemeSpec.of(1, 2, [c * x(1) ** e - x(2)])
    assert _by_weight(jet_generators(spec, w, "T_recursion")) == _by_weight(
        jet_generators(spec, w, "substitution")
    )


# ---------------------------------------------------------------------------
# the linear pre-pass
# ---------------------------------------------------------------------------


def _pruning_pool(m):
    """Jet variables of weights 0, 1/m and 1 on both alphabets."""
    q = Fraction(-1, m)
    return (
        jet_var(1, 0),
        jet_var(2, 0),
        jet_var(1, q),
        jet_var(2, q),
        jet_var(3, -1),
        jet_var(1, 0, point=1),
        jet_var(2, q, point=1),
    )


def _group_by_weight(mons):
    groups = {}
    for mon in mons:
        groups.setdefault(mon.weight, []).append(mon)
    return {w: groups[w] for w in sorted(groups)}


# order -> (weight -> degree-1 monomials, weight -> monomials of degree <= 3)
_PRUNING_MONS = {
    m: tuple(
        _group_by_weight(
            Monomial.of(*zip(_pruning_pool(m), exps))
            for exps in itertools.product(range(top + 1), repeat=7)
            if low <= sum(exps) <= top
        )
        for low, top in ((1, 1), (0, 3))
    )
    for m in (1, 2, 3, 4)
}


@st.composite
def _pruning_systems(draw):
    """(m, ambient, generators, W, D): linear forms with zeta^k
    coefficients, generators of degree up to 3, and products of a variable
    with a drawn linear form, which the pre-pass sends to zero, at times
    plus terms of lower degree."""
    m = draw(st.sampled_from(sorted(_PRUNING_MONS)))
    linear_mons, all_mons = _PRUNING_MONS[m]

    def coeff():
        k = draw(st.integers(min_value=0, max_value=m - 1))
        scale = draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
        return CycScalar.zeta(m, k) * scale

    def form(groups, max_terms):
        mons = draw(
            st.sampled_from(sorted(groups)).flatmap(
                lambda w: st.lists(
                    st.sampled_from(groups[w]), min_size=1, max_size=max_terms,
                    unique=True,
                )
            )
        )
        return JetPoly._from_dict(m, {mon: coeff() for mon in mons})

    linear = [form(linear_mons, 3) for _ in range(draw(st.integers(0, 4)))]
    others = [form(all_mons, 3) for _ in range(draw(st.integers(0, 3)))]
    if linear:
        for _ in range(draw(st.integers(0, 2))):
            v = draw(st.sampled_from(_pruning_pool(m)))
            ell = draw(st.sampled_from(linear))
            killed = JetPoly.var(m, v.index, -v.weight, v.point) * ell
            # plus, at times, terms of lower degree, which are all that
            # substitution leaves: the generator keeps its old room
            low = [mon for mon in all_mons.get(killed.homogeneous_weight(), ())
                   if mon.degree < 2]
            if low and draw(st.booleans()):
                mons = draw(st.lists(st.sampled_from(low), min_size=1, unique=True))
                killed += JetPoly._from_dict(m, {mon: coeff() for mon in mons})
            others.append(killed)
    gens = draw(st.permutations(linear + others))
    W = Fraction(draw(st.integers(min_value=0, max_value=2 * m)), m)
    D = draw(st.integers(min_value=0, max_value=3))
    return m, _pruning_pool(m), gens, W, D


@settings(max_examples=100, deadline=None)
@given(system=_pruning_systems())
# x1[0] and x1[0]^2 + x2[0]: the top term cancels, and x2[0] keeps room D - 2
@example(system=(1, _pruning_pool(1), [x(1), x(1) ** 2 + x(2)], Fraction(0), 2))
def test_pruned_tables_equal_the_unpruned_route(unpruned, system):
    m, ambient, gens, W, D = system
    linear = [g for g in gens if all(mon.degree == 1 for mon, _ in g.terms)]
    event(f"m = {m}, {len(linear)} linear generators")
    pruned = graded_quotient_dims(m, ambient, gens, W, D)
    assert list(pruned.items()) == list(unpruned(m, ambient, gens, W, D).items())


# ---------------------------------------------------------------------------
# full slices and the early exit
# ---------------------------------------------------------------------------


_COEFFS = (
    CycScalar.one(3),
    CycScalar.zeta(3),
    CycScalar.from_rational(3, -2),
    CycScalar.zeta(3) * Fraction(1, 2) + 3,
    CycScalar.zeta(3, 2) * Fraction(-5, 3),
)


def _filling_terms():
    """Generator terms of degree at most 1 half of the time, so that many
    drawn ideals fill some of their slices."""
    low = {}
    for w, mons in _BY_WEIGHT.items():
        if low_mons := [mon for mon in mons if mon.degree <= 1]:
            low[w] = low_mons
    low_terms = st.sampled_from(sorted(low)).flatmap(
        lambda w: st.lists(st.sampled_from(low[w]), min_size=1, max_size=2, unique=True)
    )
    return st.one_of(low_terms, _generator_terms())


@settings(max_examples=40, deadline=None)
@given(
    term_lists=st.lists(_filling_terms(), min_size=1, max_size=5),
    picks=st.lists(st.sampled_from(range(len(_COEFFS))), min_size=1, max_size=6),
    W=st.fractions(min_value=0, max_value=2, max_denominator=3),
    D=st.integers(min_value=0, max_value=4),
)
# the constant 1 and x1[0] - 1: every slice fills
@example(
    term_lists=[_mons((0, 0, 0, 0)), _mons((1, 0, 0, 0), (0, 0, 0, 0))],
    picks=[0],
    W=Fraction(5, 3),
    D=3,
)
# 1 + zeta*x1[0]^2: no slice fills up
@example(
    term_lists=[_mons((0, 0, 0, 0), (2, 0, 0, 0))], picks=[0, 1], W=Fraction(1), D=3
)
# x1[-1] - 2*x2[-1/3]^3 and x1[0]: some slices fill, others do not
@example(
    term_lists=[_mons((0, 1, 0, 0), (0, 0, 3, 0)), _mons((1, 0, 0, 0))],
    picks=[3, 2, 4],
    W=Fraction(5, 3),
    D=4,
)
def test_filling_tables_equal_the_unpruned_route(unpruned, term_lists, picks, W, D):
    coeffs = itertools.cycle(picks)
    gens = [
        sum(
            (JetPoly(3, ((mon, _COEFFS[next(coeffs)]),)) for mon in terms),
            JetPoly.zero(3),
        )
        for terms in term_lists
    ]
    dims = graded_quotient_dims(3, _MIXED, gens, W, D)
    assert list(dims.items()) == list(unpruned(3, _MIXED, gens, W, D).items())
    # the probe eliminates every row, with no early exit at full rank
    assert dims == _probe_dims(3, _MIXED, gens, W, D)
    zero_slices = {w for w, _ in dims} - {w for (w, _), v in dims.items() if v}
    event(f"{len(zero_slices)} of {len({w for w, _ in dims})} slices zero")


def test_jet_ring_table_has_no_zero_slice():
    # the jet ring of the cusp keeps every slice nonzero, so no slice fills
    spec = SchemeSpec.of(3, 2, [x(1, m=3) ** 3 - x(2, m=3) ** 2])
    pres = twisted_jet_generators(spec, DiagAutomorphism(3, (2, 0)), 3)
    dims = graded_quotient_dims(
        3, pres.variables, [g.poly for g in pres.generators], 3, 4
    )
    assert all(any(dims[(w, d)] for d in range(5)) for w, _ in dims)


def test_full_slice_takes_no_further_rows(
    counted_reducers, unpruned, unpruned_coinvariant_args
):
    # On the unpruned route, on the cusp's coinvariant box every slice of
    # positive weight fills, and no RowReducer.add reaches a full one.
    from jetva import coinv

    setup = coinv.OrbiSetup(
        SchemeSpec.of(3, 2, [x(1, m=3) ** 3 - x(2, m=3) ** 2]),
        DiagAutomorphism(3, (2, 0)),
        2,
        3,
    )
    args = unpruned_coinvariant_args(setup)
    _, ambient, _, W, D = args
    sizes = [len(mons) for mons in enumerate_monomials(ambient, W, D).values()]

    made = counted_reducers
    made.clear()  # the span checks of the set-up made some
    unpruned(*args)
    assert len(made) == len(sizes)
    assert sum(red.rank == n for red, n in zip(made, sizes)) == len(sizes) - 1
    assert all(rank < n for red, n in zip(made, sizes) for rank in red.ranks_before)
