"""Jet variables, polynomials, the translation derivation, and truncated
series.  Frozen values were derived by hand from the defining rules:
T x[i,n] = (1-n) x[i,n-1], weight(x[i,n]) = -n, divided powers
x[i,-n] = T^n x[i,0] / n!.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva.jetpoly import (
    JetPoly,
    JetVar,
    Monomial,
    PuiseuxSeries,
    TruncationError,
    admissible_levels,
    apply_automorphism,
    binom,
    derivation_T,
    divided_t_power,
    eigen_index,
    jet_var,
    retag_point,
    substitute_jets,
)
from jetva.cyclo import zeta_pow
from jetva.va import vertex_op


def x(i, level=0, m=1, point=0):
    return JetPoly.var(m, i, level, point)


# ---------------------------------------------------------------------------
# variables and monomials
# ---------------------------------------------------------------------------


def test_jet_var_strings_and_weight():
    v = jet_var(1, Fraction(-3, 2))
    assert str(v) == "x1[-3/2]"
    assert v.weight == Fraction(3, 2)
    assert str(jet_var(2, -1, point=1)) == "xinf2[-1]"


def test_variables_sort_by_index_then_weight():
    vs = sorted([jet_var(2, 0), jet_var(1, -1), jet_var(1, 0), jet_var(1, Fraction(-1, 2))])
    assert [str(v) for v in vs] == ["x1[0]", "x1[-1/2]", "x1[-1]", "x2[0]"]


def test_monomial_weight_degree_character():
    mon = Monomial.of((jet_var(1, -2), 2), (jet_var(2, 0), 1))
    assert mon.weight == 4
    assert mon.degree == 3
    assert mon.character([1, 1]) == 3
    assert mon.character([1, 0]) == 2


def test_poly_canonical_string_order():
    p = x(1, -1) ** 2 + 2 * x(1) * x(1, -2)
    # mixed monomial sorts first: its first factor x1[0] is smallest
    assert str(p) == "2*x1[0]*x1[-2] + x1[-1]^2"


def test_level_must_be_nonpositive():
    with pytest.raises(ValueError):
        jet_var(1, 1)
    with pytest.raises(ValueError):
        jet_var(0, 0)


# ---------------------------------------------------------------------------
# translation derivation
# ---------------------------------------------------------------------------


def test_translation_on_variables():
    assert str(derivation_T(x(1))) == "x1[-1]"
    assert str(derivation_T(x(1, -1))) == "2*x1[-2]"
    assert str(derivation_T(x(1, Fraction(-1, 2), m=2))) == "3/2*x1[-3/2]"
    assert derivation_T(JetPoly.one(1)).is_zero


def test_divided_powers_of_coordinate_are_variables():
    for n in range(0, 6):
        assert divided_t_power(x(1), n) == x(1, -n)


def test_divided_power_frozen_square():
    # T^2(x^2)/2 = x[-1]^2 + 2 x[0] x[-2]
    p = divided_t_power(x(1) ** 2, 2)
    assert str(p) == "2*x1[0]*x1[-2] + x1[-1]^2"


@settings(max_examples=50, deadline=None)
@given(
    e1=st.integers(min_value=0, max_value=3),
    e2=st.integers(min_value=0, max_value=3),
    l1=st.integers(min_value=-2, max_value=0),
    l2=st.integers(min_value=-2, max_value=0),
)
def test_translation_leibniz(e1, e2, l1, l2):
    a = x(1, l1) ** e1
    b = x(2, l2) ** e2
    assert derivation_T(a * b) == derivation_T(a) * b + a * derivation_T(b)


@settings(max_examples=30, deadline=None)
@given(l=st.integers(min_value=-3, max_value=0), n=st.integers(min_value=0, max_value=4))
def test_translation_raises_weight_by_one(l, n):
    p = divided_t_power(x(1, l), n)
    assert p.homogeneous_weight() == -l + n


# ---------------------------------------------------------------------------
# diagonal action
# ---------------------------------------------------------------------------


def test_apply_automorphism_scales_by_character():
    p = x(1, -1, m=4) * x(2, 0, m=4)
    q = apply_automorphism([1, 2], p)
    from jetva.cyclo import zeta_pow

    assert q == p * JetPoly.const(4, zeta_pow(4, 3))


def test_automorphism_commutes_with_translation():
    p = x(1, -1, m=3) ** 2 + x(2, 0, m=3)
    for alpha in ([0, 0], [1, 2], [2, 1]):
        assert derivation_T(apply_automorphism(alpha, p)) == apply_automorphism(
            alpha, derivation_T(p)
        )


def test_eigen_index_of_mixed_and_pure_characters():
    even = x(2, 0, m=2) + x(1, 0, m=2) * x(1, -1, m=2)
    odd = x(1, 0, m=2)
    assert eigen_index(even + odd, [1, 0]) is None
    assert eigen_index(even, [1, 0]) == 0
    assert eigen_index(odd, [1, 0]) == 1
    assert eigen_index(JetPoly.zero(2), [1, 0]) == 0


def test_retag_point_moves_alphabet():
    p = x(1, -1) * x(2)
    q = retag_point(p, 1)
    assert str(q) == "xinf1[-1]*xinf2[0]"
    assert retag_point(q, 0) == p


# ---------------------------------------------------------------------------
# generalized binomial
# ---------------------------------------------------------------------------


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(-2, 3) == -4
    assert binom(Fraction(5, 2), 2) == Fraction(15, 8)
    assert binom(Fraction(1, 2), 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


def test_series_coefficient_window_guard():
    s = PuiseuxSeries.from_dict(1, {0: x(1), 2: x(1, -2)}, 2)
    assert s.coefficient(1).is_zero
    assert s.coefficient(2) == x(1, -2)
    with pytest.raises(TruncationError):
        s.coefficient(Fraction(5, 2))


def test_product_window_shrinks_with_min_support():
    a = PuiseuxSeries.from_dict(1, {-1: JetPoly.one(1)}, 3)
    b = PuiseuxSeries.from_dict(1, {0: JetPoly.one(1)}, 3)
    prod = a * b
    # min(3 + 0, 3 + (-1)) = 2
    assert prod.trunc == 2
    assert prod.coefficient(-1) == JetPoly.one(1)


def test_series_multiplies_only_series():
    s = PuiseuxSeries.from_dict(1, {0: x(1)}, 2)
    for other in (2, Fraction(1, 2), x(1)):
        with pytest.raises(TypeError):
            s * other
        with pytest.raises(TypeError):
            other * s


def test_differentiate_shrinks_window():
    s = PuiseuxSeries.from_dict(1, {1: x(1), 3: x(1, -1)}, 3)
    d = s.differentiate()
    assert d.trunc == 2
    assert d.coefficient(0) == x(1)
    with pytest.raises(TruncationError):
        d.coefficient(3)


def test_admissible_levels():
    assert admissible_levels(Fraction(0), 2) == [0, -1, -2]
    assert admissible_levels(Fraction(1, 2), 2) == [
        Fraction(-1, 2),
        Fraction(-3, 2),
    ]
    assert admissible_levels(Fraction(1, 3), Fraction(5, 3)) == [
        Fraction(-2, 3),
        Fraction(-5, 3),
    ]


def test_generator_series_support():
    # the bare coordinate at offset 1/2: one variable per exponent of its coset
    s = substitute_jets(x(1, m=2), {1: Fraction(1, 2)}, 3)
    assert s.support() == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
    assert s.coefficient(Fraction(1, 2)) == x(1, Fraction(-1, 2), m=2)


def test_substitution_matches_divided_powers():
    # The t^n coefficient of P(x(t)) equals T^n(P)/n! for untwisted jets.
    P = x(1) ** 2 * x(2) - 3 * x(2) ** 2
    s = substitute_jets(P, {}, 5)
    for n in range(0, 6):
        assert s.coefficient(n) == divided_t_power(P, n)


@settings(max_examples=25, deadline=None)
@given(
    e=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=-3, max_value=3).filter(bool),
    n=st.integers(min_value=0, max_value=4),
)
def test_substitution_cross_oracle_random(e, c, n):
    P = c * x(1) ** e + x(2)
    s = substitute_jets(P, {}, 4)
    assert s.coefficient(n) == divided_t_power(P, n)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    window=st.integers(min_value=0, max_value=5),
    terms=st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=3),
                    st.integers(min_value=0, max_value=3),
                ),
                max_size=3,
            ),
        ),
        max_size=3,
    ),
)
def test_substitution_matches_vertex_operator(m, window, terms):
    # integer-level sources: (c zeta^k) * prod x[i,-d] summed over terms,
    # against Y(a,z) = sum T^n(a)/n! z^n from the translation derivation
    a = JetPoly.zero(m)
    for c, k, factors in terms:
        mono = JetPoly.const(m, zeta_pow(m, k)).scale(c)
        for i, d in factors:
            mono = mono * x(i, -d, m=m)
        a = a + mono
    assert substitute_jets(a, {}, window) == vertex_op(a, window)


def test_substitution_twisted_coefficients_frozen():
    # x1^2 with half-integer levels: t^1 -> x[-1/2]^2, t^2 -> 2 x[-1/2]x[-3/2]
    P = x(1, m=2) ** 2
    s = substitute_jets(P, {1: Fraction(1, 2)}, 3)
    assert s.coefficient(0).is_zero
    assert str(s.coefficient(1)) == "x1[-1/2]^2"
    assert str(s.coefficient(2)) == "2*x1[-1/2]*x1[-3/2]"
    assert str(s.coefficient(3)) == "2*x1[-1/2]*x1[-5/2] + x1[-3/2]^2"
    # a level -1 factor is the divided z-derivative of its coordinate's jet:
    # x1[-1] -> sum C(c,1) x1[-c] z^(c-1), x2 -> sum x2[-c] z^c, c in 1/2 + N
    s = substitute_jets(x(1, -1, m=2) * x(2, m=2), {1: Fraction(1, 2), 2: Fraction(1, 2)}, 2)
    assert s.support() == (0, 1, 2)
    assert str(s.coefficient(0)) == "1/2*x1[-1/2]*x2[-1/2]"
    assert str(s.coefficient(1)) == "1/2*x1[-1/2]*x2[-3/2] + 3/2*x1[-3/2]*x2[-1/2]"
    assert str(s.coefficient(2)) == (
        "1/2*x1[-1/2]*x2[-5/2] + 3/2*x1[-3/2]*x2[-3/2] + 5/2*x1[-5/2]*x2[-1/2]"
    )
    with pytest.raises(TruncationError):
        s.coefficient(3)
