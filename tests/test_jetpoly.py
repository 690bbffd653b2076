"""Jet variables, polynomials, the translation derivation, and truncated
series.  Frozen values were derived by hand from the defining rules:
T x[i,n] = (1-n) x[i,n-1], weight(x[i,n]) = -n, divided powers
x[i,-n] = T^n x[i,0] / n!.
"""

import re
from fractions import Fraction
from itertools import groupby
from math import factorial, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_caches
from jetva import jetpoly
from jetva.jetpoly import (
    JetPoly,
    JetVar,
    Monomial,
    PuiseuxSeries,
    TruncationError,
    _jet_expansion,
    _mono_key,
    _term_str,
    admissible_levels,
    apply_automorphism,
    binom,
    coded_polynomial,
    derivation_T,
    divided_t_power,
    eigen_index,
    jet_var,
    retag_point,
    shift_derivation,
    substitute_coded,
    substitute_jets,
    translation_series,
)
from jetva.cyclo import CycScalar, _canon, euler_phi, zeta_pow
from jetva.jetscheme import DiagAutomorphism
from jetva.quasiconf import L_op, Ltilde_op


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


def _fraction_term_str(mon: Monomial, c: CycScalar) -> str:
    """One printed term, with a rational coefficient read as a Fraction."""
    if mon.factors == ():
        return str(c)
    if c.is_rational():
        q = c.as_rational()
        if q == 1:
            return str(mon)
        if q == -1:
            return f"-{mon}"
        return f"{q}*{mon}"
    return f"({c})*{mon}"


_term_coeffs = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8]).flatmap(
        lambda m: st.one_of(
            st.sampled_from([1, -1]),
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
        ).map(lambda q: CycScalar.from_rational(m, q))
    ),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8]).flatmap(
        lambda m: st.integers(min_value=0, max_value=m - 1).map(
            lambda k: zeta_pow(m, k) * CycScalar.from_rational(m, Fraction(-3, 2))
        )
    ),
)


@settings(max_examples=200, deadline=None)
@given(c=_term_coeffs)
def test_term_strings_match_the_fraction_coefficient(c):
    for mon in (Monomial.unit(), Monomial.of((jet_var(1, Fraction(-1, 2)), 2))):
        assert _term_str(mon, c) == _fraction_term_str(mon, c)


_jet_vars = st.builds(
    jet_var,
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=-3, max_value=0, max_denominator=4),
    st.integers(min_value=0, max_value=1),
)
_monomials = st.lists(
    st.tuples(_jet_vars, st.integers(min_value=1, max_value=3)), max_size=3
).map(lambda pairs: Monomial.of(*pairs))


def _rebuilt(mon: Monomial) -> Monomial:
    """An equal monomial made from fresh objects, nothing cached yet."""
    return Monomial(
        tuple((JetVar(v.point, v.index, v.num, v.den), e) for v, e in mon.factors)
    )


def _fraction_tuple(v: JetVar) -> tuple:
    """What a variable stands for: (point, index, weight), the weight a
    Fraction."""
    return (v.point, v.index, v.weight)


@settings(max_examples=100, deadline=None)
@given(
    mons=st.lists(_monomials, min_size=1, max_size=6),
    coeffs=st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
    m=st.integers(min_value=1, max_value=4),
)
def test_cached_hashes_and_keys_match_the_fields(mons, coeffs, m):
    # Variables compare as their Fraction tuples do and hash alike when
    # equal, and a monomial's cached key is the one worked out from the
    # factors' Fraction weights, so dict and set contents and every sort
    # are what the Fraction tuples give.
    variables = [v for mon in mons for v, _ in mon.factors]
    for u in variables:
        for v in variables:
            assert (u == v) == (_fraction_tuple(u) == _fraction_tuple(v))
            assert (u < v) == (_fraction_tuple(u) < _fraction_tuple(v))
            if u == v:
                assert hash(u) == hash(v)
    for mon in mons:
        assert hash(mon) == hash((mon.factors,))
        twin = _rebuilt(mon)
        assert twin == mon and hash(twin) == hash(mon)
        assert _mono_key(twin) == _mono_key(mon)
    acc = {}
    for mon, c in zip(mons, coeffs):
        acc[mon] = zeta_pow(m, c) * c
    p = JetPoly._from_dict(m, acc)
    assert hash(p) == hash((p.order, p.terms))
    twin = JetPoly(m, tuple((_rebuilt(mon), c) for mon, c in p.terms))
    assert twin == p and hash(twin) == hash(p)

    def uncached(mon):
        weight = sum((v.weight * e for v, e in mon.factors), Fraction(0))
        return (weight, sum(e for _, e in mon.factors), mon.factors)

    assert sorted(mons, key=_mono_key) == sorted(mons, key=uncached)
    assert [_mono_key(mon) for mon in mons] == [uncached(mon) for mon in mons]


@settings(max_examples=300, deadline=None)
@given(m1=_monomials, m2=_monomials)
def test_monomial_product_is_the_merged_factor_tuple(m1, m2):
    # The merge gives what ``Monomial.of`` gives on the two factor lists:
    # the variables sorted, a shared one once with the summed exponent,
    # whether the two factors hold it as one object or as two equal ones.
    for left, right in ((m1, m2), (m2, m1), (m1, _rebuilt(m2)), (m1, m1)):
        want = Monomial.of(*left.factors, *right.factors)
        got = left * right
        assert got == want and got.factors == want.factors
        assert _mono_key(got) == _mono_key(want)


@settings(max_examples=100, deadline=None)
@given(mon=_monomials)
def test_monomial_key_weight_is_an_int_when_integral(mon):
    weight = sum((v.weight * e for v, e in mon.factors), Fraction(0))
    key_weight = mon.sort_key[0]
    assert key_weight == weight
    assert type(key_weight) is (int if weight.denominator == 1 else Fraction)


def test_known_zero_reads_are_the_zero_of_their_order():
    s = PuiseuxSeries.from_dict(3, {2: JetPoly.var(3, 1)}, Fraction(5, 2))
    t = PuiseuxSeries.from_dict(3, {}, 4)
    zero = JetPoly.zero(3)
    # z^(7/3), z^(5/3), z^0 of another series, and z^(1/2), off the lattice
    assert s.at(7) == zero and s.at(5) == zero and t.at(0) == zero
    assert s.coefficient(Fraction(1, 2)) == zero
    assert PuiseuxSeries.from_dict(2, {}, 1).at(0) == JetPoly.zero(2)


_levels = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=0),
    st.sampled_from((1, 2, 3, 4, 6)),
)


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 3), _levels, st.integers(2, 5)),
        min_size=1,
        max_size=6,
    )
)
def test_jet_var_equality_hash_and_order_match_the_field_tuple(specs):
    # A variable stands for the Fraction tuple (point, index, weight) it is
    # made from, and compares, hashes, prints and keys as that tuple says.
    # Each comes twice, the second from a level Fraction built from a
    # non-reduced numerator and denominator, so equal variables are
    # distinct objects.
    made = []
    for point, index, level, k in specs:
        ref = (point, index, -level)
        twin = Fraction(level.numerator * k, level.denominator * k)
        made += [(jet_var(index, lv, point), ref) for lv in (level, twin)]
    for u, tu in made:
        assert (u.point, u.index, u.weight, u.level) == (*tu, -tu[2])
        assert str(u) == f"{('x', 'xinf')[tu[0]]}{tu[1]}[{-tu[2]}]"
        assert Monomial.of((u, 2)).sort_key == (2 * tu[2], 2, ((u, 2),))
        for v, tv in made:
            assert (u == v) == (tu == tv)
            assert (u != v) == (tu != tv)
            assert (u < v) == (tu < tv)
            assert (u <= v) == (tu <= tv)
            assert (u > v) == (tu > tv)
            assert (u >= v) == (tu >= tv)
            if u == v:
                assert hash(u) == hash(v)
        assert u != tu


@pytest.mark.parametrize(
    "num, den",
    [(2, 4), (0, 2), (3, 0), (1, -2), (-1, 1)],
    ids=["not-lowest", "zero-not-lowest", "den-zero", "den-negative", "num-negative"],
)
def test_jet_var_refuses_a_weight_off_its_lowest_terms(num, den):
    message = "level must be <= 0" if num < 0 else "is not in lowest terms"
    with pytest.raises(ValueError, match=message):
        JetVar(0, 1, num, den)


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


def test_long_windows_are_not_capped_by_the_recursion_limit():
    # The memo chain grows in a loop, so no call recurses deeply.
    for window in (1200, 1500):
        jetpoly._translate_chain.cache_clear()
        s = translation_series(x(1), window)
        assert s.coefficient(window) == x(1, -window)
    jetpoly._translate_chain.cache_clear()
    assert divided_t_power(x(2), 1500) == x(2, -1500)


def test_a_translation_that_raises_leaves_the_chain_a_correct_prefix(monkeypatch):
    # Each link is appended once it is built: a T that raises on its third
    # call leaves T^0..T^2, and a retry builds T^3.. from them.
    p = x(1) ** 2 * x(2, -1)
    want = [p]
    for n in range(1, 6):
        want.append(derivation_T(want[-1]).scale(Fraction(1, n)))
    jetpoly._translate_chain.cache_clear()
    real = jetpoly.derivation_T
    calls = []

    def failing(q):
        calls.append(q)
        if len(calls) == 3:
            raise RuntimeError("T fails")
        return real(q)

    with monkeypatch.context() as patch:
        patch.setattr(jetpoly, "derivation_T", failing)
        with pytest.raises(RuntimeError, match="T fails"):
            divided_t_power(p, 5)
    assert jetpoly._translate_chain(p) == want[:3]
    assert [divided_t_power(p, n) for n in range(6)] == want
    assert translation_series(p, 5).terms == dict(enumerate(want))


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


_poly_terms = st.lists(
    st.tuples(
        _monomials,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=3),  # power of zeta
    ),
    max_size=3,
)


def _poly(m, terms):
    acc = {}
    for mon, c, r in terms:
        acc[mon] = acc.get(mon, CycScalar.zero(m)) + zeta_pow(m, r) * c
    return JetPoly._from_dict(m, acc)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    p_terms=_poly_terms,
    q_terms=_poly_terms,
    b=st.integers(min_value=-1, max_value=3),
    factor=st.integers(min_value=-2, max_value=3),
)
def test_shift_derivation_leibniz(m, p_terms, q_terms, b, factor):
    # Fractional levels, both alphabets, zeta coefficients; b = -1 is T.
    p, q = _poly(m, p_terms), _poly(m, q_terms)

    def d(f):
        return shift_derivation(f, b, factor)

    assert d(p * q) == d(p) * q + p * d(q)


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


def _retag_by_rebuilding(p: JetPoly, point: int) -> JetPoly:
    """The former ``retag_point``: every monomial rebuilt through
    ``Monomial.of``, like terms merged, the terms sorted again."""
    acc = {}
    for mon, c in p.terms:
        mon2 = Monomial.of(
            *((JetVar(point, v.index, v.num, v.den), e) for v, e in mon.factors)
        )
        acc[mon2] = acc.get(mon2, CycScalar.zero(p.order)) + c
    return JetPoly._from_dict(p.order, acc)


@settings(max_examples=100, deadline=None)
@given(
    source=st.integers(min_value=0, max_value=1),
    target=st.integers(min_value=0, max_value=1),
    factors=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.fractions(min_value=-3, max_value=0, max_denominator=4),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    ),
    coeffs=st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
    m=st.integers(min_value=1, max_value=4),
)
def test_retag_point_matches_rebuilding(source, target, factors, coeffs, m):
    acc = {}
    for pairs, c in zip(factors, coeffs):
        mon = Monomial.of(*((jet_var(i, lv, source), e) for i, lv, e in pairs))
        acc[mon] = zeta_pow(m, c) * c
    p = JetPoly._from_dict(m, acc)
    # equality compares the term tuples, so the term and factor orders too
    assert retag_point(p, target) == _retag_by_rebuilding(p, target)


def test_retag_point_rejects_two_alphabets():
    with pytest.raises(ValueError, match="one alphabet"):
        retag_point(x(1) + x(1, point=1), 0)


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


def test_a_series_window_is_an_int_in_units_of_the_order():
    # The constructor takes the window as the last known k; a rational
    # window goes through from_dict, which floors it.
    with pytest.raises(TypeError, match=r"^window Fraction\(1, 2\) must be an int"):
        PuiseuxSeries(2, {}, Fraction(1, 2))
    assert PuiseuxSeries.from_dict(2, {}, Fraction(1, 2)) == PuiseuxSeries(2, {}, 1)


def test_product_window_shrinks_with_min_support():
    a = PuiseuxSeries.from_dict(1, {-1: JetPoly.one(1)}, 3)
    b = PuiseuxSeries.from_dict(1, {0: JetPoly.one(1)}, 3)
    prod = a * b
    # min(3 + 0, 3 + (-1)) = 2
    assert prod.trunc == 2
    assert prod.coefficient(-1) == JetPoly.one(1)


def _truncated(s: PuiseuxSeries, top: int) -> PuiseuxSeries:
    """s known only up to the window top, in units of 1/order."""
    return PuiseuxSeries(s.order, {k: p for k, p in s.terms.items() if k <= top}, top)


def test_product_of_truncations_without_visible_terms():
    # z^(-1/2) truncated at -1 shows no term; its square is z^(-1), which
    # the product of the truncations must not claim to know.  Each factor's
    # lowest coefficient that may be nonzero is at -1/2, one step above its
    # window, so the product knows up to -1 - 1/2.
    a = PuiseuxSeries.from_dict(2, {Fraction(-1, 2): JetPoly.one(2)}, None)
    at = _truncated(a, -2)
    assert at.terms == {}
    assert (a * a).coefficient(-1) == JetPoly.one(2)
    prod = at * at
    assert prod.trunc == Fraction(-3, 2)
    with pytest.raises(TruncationError):
        prod.coefficient(-1)
    # an exactly zero factor leaves the product exact
    zero = PuiseuxSeries.from_dict(2, {}, None)
    assert (zero * at).trunc is None


def test_a_product_keeps_an_off_lattice_window():
    # The window 1/3 lies off (1/2)Z and acts as its floor 0.  The square of
    # a series with no visible term knows up to one window plus the other
    # factor's lowest coefficient that may be nonzero, at 1/2: z^(1/2) is a
    # known zero there, and z^1 lies beyond.
    s = PuiseuxSeries.from_dict(2, {}, Fraction(1, 3))
    sq = s * s
    assert sq.trunc == Fraction(1, 2)
    assert sq.coefficient(Fraction(1, 2)).is_zero
    assert sq.at(1).is_zero and sq.at(2) is None
    with pytest.raises(
        TruncationError, match=r"^coefficient of z\^1 is beyond the window \(trunc 1/2\)$"
    ):
        sq.coefficient(1)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: PuiseuxSeries.from_dict(2, {Fraction(1, 3): x(1, m=2)}, None),
            "exponent 1/3 is not a multiple of 1/2",
        ),
        (
            lambda: substitute_jets(x(1, m=2), (Fraction(1, 2),), 2),
            "exponent 1/2 of x1 is not an int",
        ),
        (
            lambda: substitute_jets(x(1, m=2), (True,), 2),
            "exponent True of x1 is not an int",
        ),
    ],
    ids=["series-exponent", "substitution-offset", "substitution-bool"],
)
def test_exponents_off_the_lattice_are_refused(call, message):
    # Exponents are ints in units of 1/order.  A substitution takes each
    # coordinate's coset as an int exponent, x_i's being exponents[i-1]/m + Z,
    # so a Fraction or a bool there is refused.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_exact_series = st.dictionaries(
    st.integers(min_value=-6, max_value=6),  # exponent times m
    st.tuples(
        st.integers(min_value=-2, max_value=2).filter(bool),
        st.integers(min_value=1, max_value=2),
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    a_terms=_exact_series,
    b_terms=_exact_series,
    ta=st.integers(min_value=-8, max_value=8),
    tb=st.integers(min_value=-8, max_value=8),
)
def test_product_of_truncations_claims_only_true_coefficients(
    m, a_terms, b_terms, ta, tb
):
    def series(terms):
        return PuiseuxSeries.from_dict(
            m, {Fraction(k, m): x(i, m=m).scale(c) for k, (c, i) in terms.items()}, None
        )

    a, b = series(a_terms), series(b_terms)
    exact = a * b
    prod = _truncated(a, ta) * _truncated(b, tb)
    assert exact.trunc is None and prod.trunc is not None
    # every exponent of (1/m)Z from below both supports up to the window
    for k in range(-13 * m, int(prod.trunc * m) + 1):
        w = Fraction(k, m)
        assert prod.coefficient(w) == exact.coefficient(w), w


def _rational_product_window(a, ta, b, tb):
    """The window of a*b by the rule on rational windows ta and tb, as
    given, on the lattice or not: a factor's window plus the other's lowest
    visible exponent or, with none visible, its window; the smaller of the
    two sides, None (exact everywhere) being the widest."""

    def side(t, other, t_other):
        if t is None:
            return None
        low = min(other.support(), default=t_other)
        return None if low is None else t + low

    sides = [w for w in (side(ta, b, tb), side(tb, a, ta)) if w is not None]
    return min(sides, default=None)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    a_terms=_exact_series,
    b_terms=_exact_series,
    ta=st.none() | st.fractions(min_value=-3, max_value=3, max_denominator=6),
    tb=st.none() | st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_product_window_is_never_below_the_rational_rule(m, a_terms, b_terms, ta, tb):
    # Oracle: floor((trunc_a + low_b) * m) on the windows as given.  The int
    # window takes a factor with no visible term to be possibly nonzero one
    # step above its window, not at it, so it may know more, never less.
    def series(terms, t):
        kept = {
            Fraction(k, m): x(i, m=m).scale(c)
            for k, (c, i) in terms.items()
            if t is None or Fraction(k, m) <= t
        }
        return PuiseuxSeries.from_dict(m, kept, t)

    a, b = series(a_terms, ta), series(b_terms, tb)
    rule = _rational_product_window(a, ta, b, tb)
    prod = a * b
    if rule is None:
        assert prod.top is None
    else:
        assert prod.top is not None and prod.top >= floor(rule * m), (rule, prod.top)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    terms=_exact_series,
    t=st.none() | st.integers(min_value=-8, max_value=8),
)
def test_one_window_rule_for_coefficients_and_modes(m, terms, t):
    exact = PuiseuxSeries.from_dict(
        m, {Fraction(k, m): x(i, m=m).scale(c) for k, (c, i) in terms.items()}, None
    )
    s = exact if t is None else _truncated(exact, t)
    for k in range(-10 * m, 10 * m + 1):
        n = Fraction(k, m)
        w = -n - 1  # the mode a_(n) is the coefficient of z^(-n-1)
        beyond = t is not None and w > Fraction(t, m)
        # the windowed read of z^(-n-1), in units of 1/m
        if beyond:
            assert s.at(-k - m) is None, k
        else:
            assert s.at(-k - m) == exact.coefficient(w), k
        for idx in (n, int(n)) if n.denominator == 1 else (n,):
            if beyond:
                with pytest.raises(TruncationError, match=r"is beyond the window"):
                    s.mode(idx)
            else:
                assert s.mode(idx) == exact.coefficient(w), idx
        if beyond:
            with pytest.raises(TruncationError, match=r"is beyond the window"):
                s.coefficient(w)
        else:
            assert s.coefficient(w) == exact.coefficient(w), w


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
    assert admissible_levels(0, 1, 2) == [0, -1, -2]
    assert admissible_levels(1, 2, 2) == [
        Fraction(-1, 2),
        Fraction(-3, 2),
    ]
    assert admissible_levels(1, 3, Fraction(5, 3)) == [
        Fraction(-2, 3),
        Fraction(-5, 3),
    ]


def test_generator_series_support():
    # the bare coordinate at offset 1/2: one variable per exponent of its coset
    s = substitute_jets(x(1, m=2), (1,), 3)
    assert s.support() == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
    assert s.coefficient(Fraction(1, 2)) == x(1, Fraction(-1, 2), m=2)


def test_substitution_matches_divided_powers():
    # The t^n coefficient of P(x(t)) equals T^n(P)/n! for untwisted jets.
    P = x(1) ** 2 * x(2) - 3 * x(2) ** 2
    s = substitute_jets(P, (), 5)
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
    s = substitute_jets(P, (), 4)
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
    assert substitute_jets(a, (), window) == translation_series(a, window)


def test_a_negative_window_holds_no_translate():
    # Below z^0 both routes give the empty series; T is never applied.
    a = x(1) ** 2 * x(2, -1)
    for window in (-1, Fraction(-1, 2)):
        s = translation_series(a, window)
        assert s == substitute_jets(a, (), window) and not s.terms


_fraction_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(min_value=0, max_value=5),  # power of zeta
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=3,
        ),
    ),
    max_size=3,
)


def _integer_level_poly(m, terms, swap=False):
    """sum of c zeta^k prod x[i,-d] over the terms; with ``swap``,
    coordinates 1 and 2 trade places."""
    out = JetPoly.zero(m)
    for c, k, factors in terms:
        mono = JetPoly.const(m, zeta_pow(m, k) * c)
        for i, d in factors:
            mono = mono * x({1: 2, 2: 1}.get(i, i) if swap else i, -d, m=m)
        out = out + mono
    return out


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from((3, 4, 6)),
    window=st.integers(min_value=0, max_value=4),
    terms=_fraction_terms,
    antisymmetric=_fraction_terms,
)
def test_integer_coefficient_sums_match_the_translation_series(
    m, window, terms, antisymmetric
):
    # Zeta and fractional coefficients summed on ints over one denominator.
    # s - swap(s) sends x1[-a]*x2[-b] terms of both signs to every output
    # monomial with a = b, where they cancel exactly.
    s = _integer_level_poly(m, antisymmetric)
    p = _integer_level_poly(m, terms) + s - _integer_level_poly(m, antisymmetric, True)
    assert substitute_jets(p, (), window) == translation_series(p, window)


def _jet_factor(m, i, d, exponent, top):
    # x[i,-d] -> sum_n C(-n,d) x[i,n] z^(-n-d), levels up to weight top
    return PuiseuxSeries.from_dict(
        m,
        {
            -n - d: x(i, n, m=m).scale(binom(-n, d))
            for n in admissible_levels(exponent, m, top)
        },
        top,
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_substitution_matches_product_of_factor_series(data):
    # Twisted sources against the product of hand-built factor series.  A
    # factor series padded by the source weight s is exact up to W + s, and
    # no factor's exponent falls below -d, so the product is exact to W.
    m = data.draw(st.integers(min_value=1, max_value=4))
    exponents = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for _ in "123")
    W = Fraction(data.draw(st.integers(min_value=0, max_value=4 * m)), m)
    terms = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3).filter(bool),
                st.integers(min_value=0, max_value=m - 1),
                st.lists(
                    st.tuples(
                        st.integers(min_value=1, max_value=3),
                        st.integers(min_value=0, max_value=3),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    src = JetPoly.zero(m)
    for c, k, factors in terms:
        mono = JetPoly.const(m, zeta_pow(m, k)).scale(c)
        for i, d in factors:
            mono = mono * x(i, -d, m=m)
        src = src + mono
    expected: dict[Fraction, JetPoly] = {}
    for mon, c in src.terms:
        product = PuiseuxSeries.from_dict(m, {0: JetPoly.const(m, c)}, None)
        for v, e in mon.factors:
            d = int(v.weight)
            factor = _jet_factor(m, v.index, d, exponents[v.index - 1], W + mon.weight)
            for _ in range(e):
                product = product * factor
        product = _truncated(product, floor(W * m))
        for w in product.support():
            expected[w] = expected.get(w, JetPoly.zero(m)) + product.coefficient(w)
    got = substitute_jets(src, exponents, W)
    assert got == PuiseuxSeries.from_dict(m, expected, W)
    # equality is structural, so the terms must also be in canonical order
    for p in got.terms.values():
        assert p.terms == JetPoly._from_dict(m, dict(p.terms)).terms
    # Neither the shared variables and monomials nor their absence changes
    # the output: the same string and term order from empty tables.
    empty_caches()
    again = substitute_jets(src, exponents, W)
    assert str(again) == str(got)
    assert [[str(mon) for mon, _ in p.terms] for p in again.terms.values()] == [
        [str(mon) for mon, _ in p.terms] for p in got.terms.values()
    ]


def _assert_shared(first: JetPoly, second: JetPoly) -> None:
    """Each monomial of ``first`` is a term of ``second`` too, in the same
    order, as the same object with the same variable objects."""
    shared = {str(mon): mon for mon, _ in first.terms}
    common = [mon for mon, _ in second.terms if str(mon) in shared]
    assert [str(mon) for mon in common] == [str(mon) for mon, _ in first.terms]
    for mon in common:
        assert mon is shared[str(mon)]
        for (v, _), (u, _) in zip(mon.factors, shared[str(mon)].factors):
            assert v is u


def _substitute_by_enumeration(p: JetPoly, exponents, window) -> PuiseuxSeries:
    """The former ``substitute_jets``: every ordered assignment of levels to
    the factor slots enumerated by recursion, keyed by its sorted tuple of
    per-call variable codes, with no table shared across calls."""
    m = p.order
    W = Fraction(window)
    top = W + max((mon.weight for mon, _ in p.terms), default=0)
    top_w = floor(W * m)
    expansions, kept = {}, []
    for mon, c in p.terms:
        slots, lowest, den, src_weight = [], 0, 1, 0
        for v, e in mon.factors:
            i, d = v.index, v.num
            src_weight += d * e
            if (i, d) not in expansions:
                a = exponents[i - 1] if i <= len(exponents) else 0
                g = gcd(a, m)
                q = m // g
                first, b_den, exp = _jet_expansion(a // g % q, q, d, floor(top * q))
                # code of x[i,n]: (i, -n), ordered as the variables are
                codes = [(b, (i, Fraction(num, dn))) for b, num, dn in exp]
                expansions[i, d] = (first * g, b_den, codes)
            first, b_den, terms = expansions[i, d]
            lowest += first * e
            den *= b_den**e
            slots.extend([terms] * e)
        if all(slots) and lowest <= top_w:
            kept.append((c, den, src_weight, lowest, slots))

    def assign(k, room, q, chosen, found):
        if k == len(slots):
            key = (room, tuple(sorted(chosen)))
            found[key] = found.get(key, 0) + q
            return
        for extra, (b, code) in enumerate(slots[k][: room + 1]):
            assign(k + 1, room - extra, q * b, [*chosen, code], found)

    L = lcm(*(c.den * den for c, den, _, _, _ in kept))
    by_exp = {}
    for c, den, src_weight, lowest, slots in kept:
        room = (top_w - lowest) // m
        found = {}
        assign(0, room, 1, [], found)
        nums = [a * (L // (c.den * den)) for a in c.nums]
        for (left, codes), q in found.items():
            bucket = by_exp.setdefault(lowest + (room - left) * m, {})
            acc = bucket.setdefault(codes, [src_weight, [0] * len(nums)])[1]
            for j, a in enumerate(nums):
                acc[j] += q * a
    coeffs = {}
    for w in sorted(by_exp):
        rows = []
        for codes, (src_weight, acc) in by_exp[w].items():
            if any(acc):
                runs = tuple((code, len(list(run))) for code, run in groupby(codes))
                mon = Monomial(
                    tuple(
                        (JetVar(0, i, w.numerator, w.denominator), e)
                        for (i, w), e in runs
                    )
                )
                scalar = CycScalar(m, tuple(Fraction(a, L) for a in acc))
                rows.append(((src_weight, len(codes), runs), mon, scalar))
        if rows:
            rows.sort(key=lambda row: row[0])
            coeffs[w] = JetPoly(m, tuple((mon, c) for _, mon, c in rows))
    return PuiseuxSeries(m, coeffs, top_w)


def _assert_matches_enumeration(p: JetPoly, exponents, window) -> None:
    got = substitute_jets(p, exponents, window)
    want = _substitute_by_enumeration(p, exponents, window)
    assert got == want
    # the same exponents in the same order, and in each coefficient the
    # same terms in the same order
    assert list(got.terms) == list(want.terms)
    for k, coeff in got.terms.items():
        assert coeff.terms == want.terms[k].terms


@st.composite
def _degree_sources(draw, m):
    """Sums of up to three terms, each of a degree in {1, 3, 4, 7, 8}, over
    x1..x3 at levels 0 to -2 (at most two factors off level 0, so that the
    recursion stays small), with zeta and fractional coefficients."""
    out = JetPoly.zero(m)
    # one coordinate a third of the time, so that whole fields fill
    index = st.integers(min_value=1, max_value=draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        degree = draw(st.sampled_from((1, 3, 4, 7, 8)))
        pairs = [(draw(index), 0) for _ in range(degree)]
        for slot in draw(st.lists(st.integers(0, degree - 1), max_size=2)):
            pairs[slot] = (pairs[slot][0], draw(st.integers(min_value=1, max_value=2)))
        mon = Monomial.of(*((jet_var(i, -d), 1) for i, d in pairs))
        c = zeta_pow(m, draw(st.integers(0, m - 1))) * Fraction(
            draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 6))
        )
        out = out + JetPoly(m, ((mon, c),))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitution_matches_the_recursive_enumeration(data):
    m = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    exponents = tuple(data.draw(st.integers(0, m - 1)) for _ in range(3))
    window = Fraction(data.draw(st.integers(min_value=0, max_value=2 * m)), m)
    _assert_matches_enumeration(data.draw(_degree_sources(m)), exponents, window)


@pytest.mark.parametrize("m, exponents", [(1, ()), (2, (1, 0)), (3, (1, 2)), (6, (5, 3))])
@pytest.mark.parametrize("degree", [3, 4, 7, 8])
def test_exponent_fields_full_and_one_past_full(m, exponents, degree):
    # Degrees 3 and 7 fill a bit field exactly (2^B - 1, B = 2 and 3), 4
    # and 8 are one past it: x1^d reaches x1[n]^d, and the two other terms
    # reach x1[n]^(d-1) and x2[n]^(d-1) beside a second field.
    x1, x2 = x(1, m=m), x(2, m=m)
    p = x1**degree + 3 * x1 ** (degree - 1) * x(2, -1, m=m) - x1 * x2 ** (degree - 1)
    _assert_matches_enumeration(p, exponents, Fraction(5, 2))


def _directions_source(m: int) -> JetPoly:
    """x1^2 - zeta*x2^2 + x1*x2[-1], a term along 1 - zeta and a constant:
    coefficients along several primitive directions over several
    denominators (at m = 4: (1, 0), (0, 1), (1, -1), and (1, 0) again for
    the constant -7/2 zeta^2 = 7/2)."""
    zeta = zeta_pow(m, 1)
    x1, x2 = x(1, m=m), x(2, m=m)
    return (
        x1**2
        - x2**2 * zeta
        + x1 * x(2, -1, m=m)
        + x(1, -1, m=m) * x2 * ((1 - zeta) * Fraction(1, 3))
        + JetPoly.const(m, zeta_pow(m, 2) * Fraction(-7, 2))
    )


@pytest.mark.parametrize("exponents", [(), (1, 1), (1, 3), (2, 0), (3, 2)])
@pytest.mark.parametrize("window", [0, Fraction(5, 4), 3])
def test_kernel_sums_coefficients_along_several_directions(exponents, window):
    # The kernel keeps one int multiplicity per primitive direction of a
    # source coefficient and builds each code's coordinates from them once.
    # In a caller's layout, wider than the source's own, the series
    # materialises to the same terms; the constant is the code 0 at z^0.
    m = 4
    p = _directions_source(m)
    _assert_matches_enumeration(p, exponents, window)
    want = _substitute_by_enumeration(p, exponents, window)
    top = floor(window * m)
    for layout in ((2, 2, 4), (3, 5, 8)):
        got = substitute_coded(p, exponents, top, layout)
        assert got.layout == layout
        assert got.materialise() == want
        unit, zeta_part = got.terms[0][0]
        assert (Fraction(unit, got.den), zeta_part) == (Fraction(7, 2), 0)


def test_kernel_drops_a_code_whose_directions_cancel():
    # At m = 3 the coefficients 1, zeta and zeta^2 = -1 - zeta lie along
    # three directions and sum to zero: each of the three sources gives
    # x1[-1]*x2[-1]*x3[-1] at z^2 with multiplicity 1, so that term is
    # dropped, while each source's other terms at z^2 stay.
    m = 3
    x1, x2, x3 = x(1, m=m), x(2, m=m), x(3, m=m)
    p = (
        x(1, -1, m=m) * x2 * x3
        + x1 * x(2, -1, m=m) * x3 * zeta_pow(m, 1)
        + x1 * x2 * x(3, -1, m=m) * zeta_pow(m, 2)
    )
    _assert_matches_enumeration(p, (), 2)
    at_two = substitute_jets(p, (), 2).coefficient(2)
    cancelled = Monomial.of((jet_var(1, -1), 1), (jet_var(2, -1), 1), (jet_var(3, -1), 1))
    assert cancelled not in {mon for mon, _ in at_two.terms}
    assert len(at_two.terms) == 9


def test_substitutions_share_their_output_monomials():
    # Each term of x1*x2 at z^2 is also one of x1*x2 + x1^2 there: each
    # monomial, and each of its variables, is one object, made once.
    empty_caches()
    first = substitute_jets(x(1) * x(2), (), 3).coefficient(2)
    second = substitute_jets(x(1) * x(2) + x(1) ** 2, (), 3).coefficient(2)
    _assert_shared(first, second)
    # One twisted source at two windows: the codes of a monomial do not
    # depend on the window, so the wider one reads the same objects.
    src = x(1, -1, m=3) * x(2, m=3) ** 2
    narrow = substitute_jets(src, (1, 2), 2)
    wide = substitute_jets(src, (1, 2), Fraction(17, 3))
    assert list(narrow.terms) == list(wide.terms)[: len(narrow.terms)]
    for k, p in narrow.terms.items():
        assert p == wide.terms[k]
        _assert_shared(p, wide.terms[k])


def test_substitution_twisted_coefficients_frozen():
    # x1^2 with half-integer levels: t^1 -> x[-1/2]^2, t^2 -> 2 x[-1/2]x[-3/2]
    P = x(1, m=2) ** 2
    s = substitute_jets(P, (1,), 3)
    assert s.coefficient(0).is_zero
    assert str(s.coefficient(1)) == "x1[-1/2]^2"
    assert str(s.coefficient(2)) == "2*x1[-1/2]*x1[-3/2]"
    assert str(s.coefficient(3)) == "2*x1[-1/2]*x1[-5/2] + x1[-3/2]^2"
    # a level -1 factor is the divided z-derivative of its coordinate's jet:
    # x1[-1] -> sum C(c,1) x1[-c] z^(c-1), x2 -> sum x2[-c] z^c, c in 1/2 + N
    s = substitute_jets(x(1, -1, m=2) * x(2, m=2), (1, 1), 2)
    assert s.support() == (0, 1, 2)
    assert str(s.coefficient(0)) == "1/2*x1[-1/2]*x2[-1/2]"
    assert str(s.coefficient(1)) == "1/2*x1[-1/2]*x2[-3/2] + 3/2*x1[-3/2]*x2[-1/2]"
    assert str(s.coefficient(2)) == (
        "1/2*x1[-1/2]*x2[-5/2] + 3/2*x1[-3/2]*x2[-3/2] + 5/2*x1[-5/2]*x2[-1/2]"
    )
    with pytest.raises(TruncationError):
        s.coefficient(3)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_one_decoder_sorts_codes_as_jetpoly_sorts_monomials(data):
    # Random rows {code: coordinates} in random layouts (bits, k, unit),
    # twisted units and codes many 30-bit digits wide among them: read by
    # coded_polynomial, on the int key of _coded_monomial, a row is the
    # JetPoly that sorting its decoded monomials on Monomial.sort_key gives.
    bits = data.draw(st.sampled_from((1, 3, 8, 13)), label="bits")
    k = data.draw(st.integers(1, 3), label="k")
    unit = data.draw(st.sampled_from((1, 2, 3, 4, 6)), label="unit")
    m = data.draw(st.sampled_from((1, 3, 4)), label="m")
    fields = st.dictionaries(
        st.integers(0, 6 * k - 1), st.integers(1, (1 << bits) - 1), max_size=4
    )
    codes = fields.map(lambda fs: sum(e << bits * f for f, e in fs.items()))
    coords = st.lists(
        st.integers(-40, 40), min_size=euler_phi(m), max_size=euler_phi(m)
    ).filter(any).map(tuple)
    row = data.draw(st.dictionaries(codes, coords, min_size=1, max_size=8), label="row")
    den = data.draw(st.integers(1, 12), label="den")
    decoded = {
        jetpoly._coded_monomial(code, bits, k, unit)[0]: _canon(m, xs, den)
        for code, xs in row.items()
    }
    assert coded_polynomial(m, row, den, (bits, k, unit)) == JetPoly._from_dict(
        m, decoded
    )


# ---------------------------------------------------------------------------
# integer-coded levels, weights and binomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "layout, needs",
    [
        ((1, 2, 2), "bits >= 2"),  # degree 3 needs two bits per exponent
        ((2, 1, 2), "k >= 2"),  # x2 has no field with one coordinate
        ((2, 2, 3), "unit a multiple of 2"),  # the coset 1/2 + Z of x1
    ],
)
def test_a_layout_that_does_not_cover_its_source_is_refused(layout, needs):
    src = x(1, 0, m=2) ** 2 * x(2, -1, m=2)
    assert substitute_coded(src, (1, 0), 4, (2, 2, 2)).layout == (2, 2, 2)
    assert substitute_coded(src, (1, 0), 4, (3, 5, 4)).materialise() == (
        substitute_jets(src, (1, 0), 2)
    )
    message = "^" + re.escape(f"layout {layout} does not cover the source, which needs")
    with pytest.raises(ValueError, match=message) as err:
        substitute_coded(src, (1, 0), 4, layout)
    assert needs in str(err.value)


def test_negative_translate_raises():
    for n in (-1, -3):
        with pytest.raises(ValueError, match="negative translate"):
            divided_t_power(x(1) ** 2, n)


def _shift_reference(p, b, factor):
    """x[i,l] -> -factor*(l+b) x[i,l+b], cut when l+b >= 0, extended by the
    Leibniz rule; the levels are Fractions throughout."""
    m = p.order
    out = JetPoly.zero(m)
    for mon, c in p.terms:
        for slot, (v, e) in enumerate(mon.factors):
            new_level = v.level + b
            if new_level >= 0:
                continue
            term = JetPoly.const(m, c).scale(-factor * e * new_level)
            for j, (u, f) in enumerate(mon.factors):
                term = term * x(u.index, u.level, m, u.point) ** (f - 1 if j == slot else f)
            out = out + term * x(v.index, new_level, m, v.point)
    return out


def _coset_polys(m, integral=False):
    """Polynomials over Q(zeta_m) in both alphabets, with levels in (1/m)Z
    (in Z when ``integral``)."""
    step = m if integral else 1
    var = st.builds(
        lambda i, k, point: jet_var(i, Fraction(-k * step, m), point),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3 * m // step),
        st.integers(min_value=0, max_value=1),
    )
    mon = st.lists(
        st.tuples(var, st.integers(min_value=1, max_value=3)), max_size=3
    ).map(lambda pairs: Monomial.of(*pairs))
    term = st.tuples(
        mon,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=m - 1),
    )
    return st.lists(term, max_size=3).map(lambda terms: _poly(m, terms))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shift_derivation_matches_a_fraction_reference(data):
    m = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    b = data.draw(st.integers(min_value=-1, max_value=3))
    factor = data.draw(st.sampled_from((1, m)))
    p = data.draw(_coset_polys(m))
    assert shift_derivation(p, b, factor) == _shift_reference(p, b, factor)
    assert derivation_T(p) == _shift_reference(p, -1, 1)
    if b >= 0:
        g = DiagAutomorphism(m, (0,) * 3)  # Lt_b reads only the order
        assert Ltilde_op(b, p, g) == _shift_reference(p, b, m)
        q = data.draw(_coset_polys(m, integral=True))
        assert L_op(b, q) == _shift_reference(q, b, 1)


def test_translates_share_their_landing_variables():
    # Two calls on one polynomial land on the same variable objects, on the
    # origin alphabet from the table that substitutions share.
    p = x(1, -1, m=2) * x(2, m=2) + JetPoly.var(2, 1, Fraction(-1, 2))
    first, second = derivation_T(p), derivation_T(p)
    assert first == second
    for (mon, _), (again, _) in zip(first.terms, second.terms):
        for (v, _), (u, _) in zip(mon.factors, again.factors):
            assert v is u
    assert jetpoly._jet_var(1, 3, 2) in first.variables()
    # the point at infinity keeps its own variables
    inf = retag_point(p, 1)
    assert derivation_T(inf) == retag_point(first, 1)


def _binom_reference(top, k):
    """C(top, k) as a Fraction product."""
    out = Fraction(1)
    for j in range(k):
        out = out * (Fraction(top) - j) / (j + 1)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_jet_expansion_binomials_are_int_numerators(m):
    for a in range(m):
        offset = Fraction(a, m)
        q = offset.denominator
        for d in range(5):
            hi = 3 * m + 2
            first, den, entries = _jet_expansion(offset.numerator, q, d, hi)
            assert den == q**d * factorial(d)
            levels = admissible_levels(a, m, Fraction(hi, q))
            nonzero = [n for n in levels if _binom_reference(-n, d)]
            assert [-n for n in nonzero] == [
                Fraction(top, bottom) for _, top, bottom in entries
            ]
            for num, top, bottom in entries:
                minus_level = Fraction(top, bottom)
                assert (minus_level.numerator, minus_level.denominator) == (top, bottom)
                assert type(num) is int
                assert Fraction(num, den) == binom(minus_level, d)
                assert Fraction(num, den) == _binom_reference(minus_level, d)
            if entries:
                assert Fraction(first, q) == -nonzero[0] - d


def test_twisted_substitution_builds_no_fraction_per_assignment(fraction_calls):
    # Measured at 0 Fraction.__new__ calls (Python 3.11) for 70 terms over
    # 8 exponents; a Fraction per assignment or per term breaks the bound.
    m = 4
    src = x(1, m=m) ** 2 * x(2, -1, m=m) - x(2, -2, m=m) * x(3, m=m) * zeta_pow(m, 1)
    calls, series = fraction_calls(substitute_jets, src, (1, 3, 2), 6)
    assert sum(len(p.terms) for p in series.terms.values()) == 70
    assert calls <= 88
