"""Jet-equation generators, twisted variants, fixed subschemes, and the
bounded bigraded dimension tables.  Frozen generator polynomials were
derived by hand by iterating T P / n! and, independently, by expanding the
relations along the generic (twisted) jet.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetva.cyclo import CycScalar
from jetva.jetpoly import JetPoly, Monomial, derivation_T, jet_var
from jetva.jetscheme import (
    DiagAutomorphism,
    IdealNotPreservedError,
    SchemeSpec,
    checked_automorphism,
    enumerate_monomials,
    fixed_point_ring,
    graded_quotient_dims,
    jet_generators,
    preserves_ideal,
    twisted_jet_generators,
)


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
        checked_automorphism(spec, 2, (1, 1))


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
