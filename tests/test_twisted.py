"""Twisted fields, twisted-module axioms, the twisted quadratic identity,
and descent of jet equations into field coefficients.  Frozen coefficients
come from expanding the generator field x -> sum x[n] z^{-n} over the coset
alpha/m + Z by hand and differentiating in z.
"""

import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_caches, relation_entries
from jetva import jetpoly, jetscheme, twisted, va
from jetva.cyclo import zeta_pow
from jetva.jetpoly import (
    CodedSeries,
    JetPoly,
    PuiseuxSeries,
    TruncationError,
    binom,
    binom_units,
    derivation_T,
    divided_t_power,
    eigen_index,
    exact_units,
    floor_units,
    translation_series,
)
from jetva.jetscheme import (
    DiagAutomorphism,
    IdealNotPreservedError,
    SchemeSpec,
    preserves_ideal,
    twisted_jet_generators,
)
from jetva.linalg import RowReducer
from jetva.twisted import (
    check_descent,
    check_twisted_axioms,
    check_twisted_borcherds,
    twisted_field,
)
from jetva.va import check_borcherds, check_va_axioms


def y(i, level=0, m=2):
    return JetPoly.var(m, i, level)


G2 = DiagAutomorphism(2, (1,))
G2P = DiagAutomorphism(2, (1, 0))


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def test_generator_field_frozen():
    s = twisted_field(y(1), G2, Fraction(5, 2))
    assert {str(w): str(s.coefficient(w)) for w in s.support()} == {
        "1/2": "x1[-1/2]",
        "3/2": "x1[-3/2]",
        "5/2": "x1[-5/2]",
    }


def test_derivative_field_frozen():
    # Y(x[-1]) = d/dz Y(x): coefficient of z^(n-1) picks up a factor n
    s = twisted_field(y(1, -1), G2, Fraction(5, 2))
    assert {str(w): str(s.coefficient(w)) for w in s.support()} == {
        "-1/2": "1/2*x1[-1/2]",
        "1/2": "3/2*x1[-3/2]",
        "3/2": "5/2*x1[-5/2]",
        "5/2": "7/2*x1[-7/2]",
    }


def test_product_field_frozen_coefficient():
    # Y(x^2) = Y(x)^2 = x[-1/2]^2 z + 2 x[-1/2] x[-3/2] z^2 + ...
    s = twisted_field(y(1) ** 2, G2, 2)
    assert str(s.coefficient(1)) == "x1[-1/2]^2"
    assert str(s.coefficient(2)) == "2*x1[-1/2]*x1[-3/2]"


def test_field_requires_eigen_homogeneous_source():
    with pytest.raises(ValueError):
        twisted_field(y(1) + y(2), G2P, 3)


def test_field_rejects_fractional_level_source():
    bad = JetPoly.var(2, 1, Fraction(-1, 2))
    with pytest.raises(ValueError):
        twisted_field(bad, G2, 3)


def test_an_off_lattice_window_is_kept_as_given():
    # W = 5/2 lies off (1/3)Z.  The field keeps its floor 7/3 as its window,
    # and z^(8/3), the next exponent of the coset, lies beyond it.
    f = twisted_field(JetPoly.var(3, 1) ** 2, DiagAutomorphism(3, (1,)), Fraction(5, 2))
    assert f.trunc == Fraction(7, 3)
    assert f.support() == (Fraction(4, 3), Fraction(7, 3))
    message = r"^coefficient of z\^8/3 is beyond the window \(trunc 7/3\)$"
    with pytest.raises(TruncationError, match=message):
        f.coefficient(Fraction(8, 3))


def test_windows_with_one_floor_share_a_field():
    # 5/2 and 7/3 both floor to 7/3 in (1/3)Z: one cache entry, one field,
    # which the second call reads.
    jetpoly._expansion_memo.cache_clear()
    src, g = JetPoly.var(3, 1) ** 2, DiagAutomorphism(3, (1,))
    f = twisted_field(src, g, Fraction(5, 2))
    assert twisted_field(src, g, Fraction(7, 3)) == f
    info = jetpoly._expansion_memo.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_modes_and_window_guard():
    f = twisted_field(y(1), G2, Fraction(5, 2))
    assert str(f.mode(Fraction(-3, 2))) == "x1[-1/2]"
    assert f.mode(Fraction(1, 2)).is_zero
    with pytest.raises(TruncationError):
        f.mode(Fraction(-9, 2))
    # off-coset modes act as exact zero on the twisted module
    assert f.mode(0).is_zero


def test_a_field_is_shared_by_symmetries_that_agree_on_its_coordinates(
    substitutions,
):
    # Y_g(x1) reads only g's exponent on x1, so (1, 0) and (1, 1) give one
    # field, built once.
    field = twisted_field(y(1), DiagAutomorphism(2, (1, 0)), 3)
    assert twisted_field(y(1), DiagAutomorphism(2, (1, 1)), 3) == field
    assert len(substitutions) == 1


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_on_parabola_states():
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    pairs = [
        (y(1, m=2), y(2, m=2)),
        (y(1, m=2) * y(2, m=2), y(1, m=2)),
        (JetPoly.one(2), y(1, m=2) ** 2),
    ]
    for a, b in pairs:
        results = check_twisted_axioms(a, b, G2P, 4, spec)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_axioms_catch_support_coset():
    results = check_twisted_axioms(y(1), y(1), G2, 4)
    coset = [r for r in results if "coset" in r.name]
    assert coset and all(r.passed for r in coset)


def test_twisted_axiom_names_are_frozen():
    results = check_twisted_axioms(y(1), y(2), G2P, 4)
    assert [r.name for r in results] == [
        "support coset: exponents of Y_g(a) lie in -1/2 + Z",
        "pole bound: order of pole of Y_g(a) at most the weight of a",
        "vacuum: Y_g(1,z) = id",
        "translation: Y_g(Ta,z) = d/dz Y_g(a,z)",
        "multiplicative: Y_g(ab,z) = Y_g(a,z)Y_g(b,z)",
    ]
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "b, g, tops",
    [
        (y(1, -1), G2, {"x1[-1]": [8, 10, 9]}),
        (y(2), G2P, {"x1[-1]": [8, 10], "x2[0]": [8, 9]}),
        (y(1, -2), G2, {"x1[-1]": [8, 10, 11], "x1[-2]": [8, 9]}),
    ],
    ids=["square", "pole-free-partner", "unequal-poles"],
)
def test_multiplicative_factors_are_padded_by_the_other_pole(
    monkeypatch, b, g, tops
):
    # Windows are int tops in units of 1/2, W = 4 being 8.  Y_g(x1[-1]) has
    # a pole of order 1/2, so its partner is read to W + 1/2, not to
    # W + wt(a) + wt(b) + 1; a partner with no pole leaves it at W, and
    # Y_g(x1[-2])'s pole of order 3/2 takes it to W + 3/2.  The other
    # windows of x1[-1] are the coset check's W and the translation
    # check's W + 1.  Each distinct (source, window, layout) read of the
    # memo is recorded once, in the order first met.
    requested, seen = [], set()
    real = twisted.expansion

    def recorded(p, exponents, top, layout=None):
        if (p, top, layout) not in seen:
            seen.add((p, top, layout))
            requested.append((str(p), top))
        return real(p, exponents, top, layout)

    monkeypatch.setattr(twisted, "expansion", recorded)
    assert all(r.passed for r in check_twisted_axioms(y(1, -1), b, g, 4))
    assert {p: [t for q, t in requested if q == p] for p in tops} == tops


# ---------------------------------------------------------------------------
# twisted quadratic identity
# ---------------------------------------------------------------------------


def test_borcherds_refuses_a_coordinate_with_no_exponent():
    # G2 has one exponent; x2's character used to be read past its end, a
    # bare IndexError.  With no scheme, the field's own check speaks.
    with pytest.raises(ValueError, match="^no exponent known for coordinate 2$"):
        check_twisted_borcherds(y(2), y(2), G2, 0, 0, 0, 2)
    with pytest.raises(ValueError, match="^no exponent known for coordinate 2$"):
        check_twisted_borcherds(y(1), y(2), G2, 0, Fraction(1, 2), 0, 2)


def test_borcherds_coset_validation():
    with pytest.raises(ValueError):
        check_twisted_borcherds(y(1), y(1), G2, 0, 0, Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        check_twisted_borcherds(y(1), y(1), G2, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 4)


def test_borcherds_box_order2():
    a = y(1)
    b = y(1) ** 2  # characters 1 and 0: m in 1/2+Z, n in Z
    for l in range(-2, 3):
        for dm in range(-2, 3):
            for dn in range(-2, 3):
                res = check_twisted_borcherds(
                    a, b, G2, l, Fraction(2 * dm + 1, 2), dn, 6
                )
                assert res.passed, (l, dm, dn, res)


def test_borcherds_box_order3():
    g = DiagAutomorphism(3, (1, 2))
    a = JetPoly.var(3, 1)
    b = JetPoly.var(3, 2, -1)
    for l in range(-2, 2):
        for dm in range(-1, 2):
            for dn in range(-1, 2):
                res = check_twisted_borcherds(
                    a, b, g, l, Fraction(3 * dm + 1, 3), Fraction(3 * dn + 2, 3), 5
                )
                assert res.passed, (l, dm, dn, res)


def test_order_one_degenerates_to_plain_algebra():
    g1 = DiagAutomorphism(1, (0, 0))
    a = JetPoly.var(1, 1) * JetPoly.var(1, 2)
    b = JetPoly.var(1, 2, -1)
    # fields coincide
    tw = twisted_field(a, g1, 4)
    pl = translation_series(a, 4)
    assert tw.terms == pl.terms
    # modes coincide
    for n in range(-4, 2):
        assert twisted_field(a, g1, 5).mode(n) == translation_series(a, 5).mode(n)
    # the two quadratic identities see the same instances
    for l in range(-2, 2):
        for m_idx in range(-2, 2):
            for n_idx in range(-2, 2):
                assert check_twisted_borcherds(a, b, g1, l, m_idx, n_idx, 6).passed


# ---------------------------------------------------------------------------
# failing identities: one field coefficient carries a stray term
# ---------------------------------------------------------------------------


def _perturb_field(monkeypatch, source, exponent, extra):
    """Make every field of ``source`` carry ``extra`` on top of its z^exponent
    coefficient; every other field is left as it is.  The one seam is the
    kernel ``jetpoly.substitute_coded`` as the memo ``jetpoly.expansion``
    calls it: it builds every field that the memo holds, and the perturbed
    field is re-coded in the layout asked for.  So that extra fits it,
    every check's layout is widened to cover extra, as ``twisted._layout``
    covers a source, and so is the source's own layout, which
    ``twisted_field`` asks for.  Fields outlive a call in two caches, the
    expansion memo and the Borcherds pair contexts, so the patch swaps in
    an empty one of each, dropped with every perturbed field in it when the
    patch is undone: no field built before the patch is read under it, and
    none built under it outlives it.  A descent translate is perturbed
    through its own seam, ``_perturb_translate``."""
    real_substitute, real_layout = jetpoly.substitute_coded, twisted._layout
    for module, name in ((jetpoly, "_expansion_memo"), (twisted, "_pair_context")):
        cached = getattr(module, name)
        fresh = functools.lru_cache(**cached.cache_parameters())(cached.__wrapped__)
        monkeypatch.setattr(module, name, fresh)

    def covering(layout):
        # bits for a sum of degrees up to 2^bits - 1 plus extra's degree
        bits, k, unit = layout
        levels = extra.variables()
        return (
            bits + extra.max_degree().bit_length(),
            max([k, *(v.index for v in levels)]),
            math.lcm(unit, *(v.den for v in levels)),
        )

    def perturbed_substitute(a, exponents, top, layout=None):
        if a != source:
            return real_substitute(a, exponents, top, layout)
        if layout is None:
            layout = covering(real_substitute(a, exponents, top).layout)
        coded = real_substitute(a, exponents, top, layout)
        return _recoded(_edited(coded.materialise(), exponent, lambda p: p + extra), coded)

    monkeypatch.setattr(jetpoly, "substitute_coded", perturbed_substitute)
    monkeypatch.setattr(twisted, "_layout", lambda g, *ps: covering(real_layout(g, *ps)))


def _code(mon, layout):
    """The code of a monomial in a layout (bits, k, unit), as
    ``substitute_coded`` gives it; a monomial that does not fit the layout
    raises ValueError."""
    bits, k, unit = layout
    code = 0
    for v, e in mon.factors:
        if v.point or v.index > k or unit % v.den or e >> bits:
            raise ValueError(f"{mon} does not fit the layout {layout}")
        code += e << bits * (v.num * (unit // v.den) * k + v.index - 1)
    return code


def _recoded(fld, like):
    """fld as ``substitute_coded`` gives a series, in the layout of the
    ``CodedSeries`` ``like``: each monomial coded from its factors, each
    coefficient's coordinates over the lcm of the denominators."""
    den = math.lcm(*(c.den for p in fld.terms.values() for _, c in p.terms))
    terms = {
        w: {
            _code(mon, like.layout): tuple(x * (den // c.den) for x in c.nums)
            for mon, c in p.terms
        }
        for w, p in fld.terms.items()
    }
    return CodedSeries(fld.order, fld.top, den, like.layout, terms)


def _change_translates(monkeypatch, change):
    """Make ``check_descent`` read the expansion of each source p in the
    dict ``change`` as change[p] of its field, re-coded in the kernel's
    layout.  The one seam is ``substitute_coded`` as ``twisted`` calls it,
    which expands the translates and nothing else: the relations'
    expansions are made by the memo ``jetpoly.expansion`` and are never
    changed."""
    real = twisted.substitute_coded

    def changed(p, exponents, top):
        coded = real(p, exponents, top)
        edit = change.get(p)
        return coded if edit is None else _recoded(edit(coded.materialise()), coded)

    monkeypatch.setattr(twisted, "substitute_coded", changed)


def _perturb_translate(monkeypatch, source, exponent, extra):
    """Make the descent translate ``source`` carry ``extra`` on top of its
    z^exponent coefficient."""
    _change_translates(
        monkeypatch, {source: lambda f: _edited(f, exponent, lambda q: q + extra)}
    )


def _failures(results):
    return {r.name: r.witness for r in results if not r.passed}


def test_twisted_borcherds_fails_on_a_perturbed_field(monkeypatch):
    a, b = y(1), y(1) ** 2
    _perturb_field(monkeypatch, a, Fraction(1, 2), y(2))
    results = [
        check_twisted_borcherds(a, b, G2P, l, Fraction(2 * dm + 1, 2), dn, 6)
        for l in range(-2, 3)
        for dm in range(-2, 3)
        for dn in range(-2, 2)
    ]
    # Every check of the box that does not fail passes, as without the term.
    assert _failures(results) == {
        "twisted borcherds(l=-2, m=-3/2, n=-2)": "2*x1[-1/2]*x1[-5/2]*x2[0] + x1[-3/2]^2*x2[0]",
        "twisted borcherds(l=-2, m=-3/2, n=-1)": "2*x1[-1/2]*x1[-3/2]*x2[0]",
        "twisted borcherds(l=-2, m=-3/2, n=0)": "x1[-1/2]^2*x2[0]",
        "twisted borcherds(l=-2, m=1/2, n=-2)": "-x1[-1/2]^2*x2[0]",
        "twisted borcherds(l=-1, m=-3/2, n=-2)": "-2*x1[-1/2]*x1[-3/2]*x2[0]",
        "twisted borcherds(l=-1, m=-3/2, n=-1)": "-x1[-1/2]^2*x2[0]",
        "twisted borcherds(l=-1, m=-1/2, n=-2)": "-x1[-1/2]^2*x2[0]",
    }


def test_twisted_borcherds_witness_with_irrational_coefficient(monkeypatch):
    g = DiagAutomorphism(4, (1, 1))
    a, b = JetPoly.var(4, 1), JetPoly.var(4, 2, -1)
    _perturb_field(monkeypatch, b, Fraction(3, 4), a.scale(zeta_pow(4, 1)))
    results = [
        check_twisted_borcherds(
            a, b, g, l, Fraction(4 * dm + 1, 4), Fraction(4 * dn + 1, 4), 5
        )
        for l in range(-2, 2)
        for dm in range(-2, 2)
        for dn in range(-2, 2)
    ]
    assert _failures(results) == {
        "twisted borcherds(l=-2, m=-7/4, n=-7/4)": "(-1*zeta)*x1[0]*x1[-11/4]",
        "twisted borcherds(l=-2, m=-7/4, n=1/4)": "(zeta)*x1[0]*x1[-3/4]",
        "twisted borcherds(l=-2, m=-3/4, n=-7/4)": "(-1*zeta)*x1[0]*x1[-7/4]",
        "twisted borcherds(l=-2, m=1/4, n=-7/4)": "(-1*zeta)*x1[0]*x1[-3/4]",
        "twisted borcherds(l=-1, m=-7/4, n=-7/4)": "(-1*zeta)*x1[0]*x1[-7/4]",
        "twisted borcherds(l=-1, m=-7/4, n=-3/4)": "(-1*zeta)*x1[0]*x1[-3/4]",
        "twisted borcherds(l=-1, m=-3/4, n=-7/4)": "(-1*zeta)*x1[0]*x1[-3/4]",
    }


def test_plain_borcherds_fails_on_a_perturbed_field(monkeypatch):
    a = JetPoly.var(1, 1) * JetPoly.var(1, 2)
    b = JetPoly.var(1, 2, -1)
    _perturb_field(monkeypatch, a, Fraction(1), JetPoly.var(1, 1, -3))
    results = [
        check_borcherds(a, b, mi, ni, ki, 6)
        for mi in range(-2, 2)
        for ni in range(-2, 2)
        for ki in range(-2, 2)
    ]
    assert _failures(results) == {
        "borcherds(m=-2, n=-2, k=-2)": "4*x1[-3]*x2[-4]",
        "borcherds(m=-2, n=-2, k=-1)": "3*x1[-3]*x2[-3]",
        "borcherds(m=-2, n=-2, k=0)": "2*x1[-3]*x2[-2]",
        "borcherds(m=-2, n=-2, k=1)": "x1[-3]*x2[-1]",
        "borcherds(m=-2, n=-1, k=-2)": "-3*x1[-3]*x2[-3]",
        "borcherds(m=-2, n=-1, k=-1)": "-2*x1[-3]*x2[-2]",
        "borcherds(m=-2, n=-1, k=0)": "-x1[-3]*x2[-1]",
        "borcherds(m=-1, n=-1, k=-2)": "-2*x1[-3]*x2[-2]",
        "borcherds(m=-1, n=-1, k=-1)": "-x1[-3]*x2[-1]",
        "borcherds(m=0, n=-2, k=-2)": "-2*x1[-3]*x2[-2]",
        "borcherds(m=0, n=-2, k=-1)": "-x1[-3]*x2[-1]",
        "borcherds(m=0, n=-1, k=-2)": "-x1[-3]*x2[-1]",
        "borcherds(m=1, n=-2, k=-2)": "-2*x1[-3]*x2[-1]",
    }


G4 = DiagAutomorphism(4, (1, 1))


def test_multiplicative_check_fails_on_a_perturbed_product_field(monkeypatch):
    # Y_g(ab) carries an irrational stray term at z^(1/2), inside its coset
    # 1/2 + Z; Y_g(a) and Y_g(b) do not, so the product of the two fields
    # misses it there and the check names it.  Every other check passes.
    a, b = JetPoly.var(4, 1), JetPoly.var(4, 2, -1)
    extra = (JetPoly.var(4, 1, Fraction(-1, 4)) * JetPoly.var(4, 2, -1)).scale(
        zeta_pow(4, 1) - 2
    )
    _perturb_field(monkeypatch, a * b, Fraction(1, 2), extra)
    assert _failures(check_twisted_axioms(a, b, G4, 3)) == {
        "multiplicative: Y_g(ab,z) = Y_g(a,z)Y_g(b,z)": (
            "z^1/2: (-2 + zeta)*x1[-1/4]*x2[-1]"
        ),
    }


def test_translation_check_fails_on_a_perturbed_translate_field(monkeypatch):
    # Y_g(Ta) carries a stray term at z^(3/4), so it is no longer the
    # derivative of Y_g(a) there; the plain checks see the same through
    # Y(Ta) at the trivial symmetry.
    a, b = JetPoly.var(4, 1), JetPoly.var(4, 2, -1)
    _perturb_field(monkeypatch, derivation_T(a), Fraction(3, 4), JetPoly.var(4, 2, -2))
    assert _failures(check_twisted_axioms(a, b, G4, 3)) == {
        "translation: Y_g(Ta,z) = d/dz Y_g(a,z)": "z^3/4: x2[-2]",
    }
    plain = JetPoly.var(1, 1, -1)
    _perturb_field(monkeypatch, derivation_T(plain), Fraction(2), JetPoly.var(1, 1) * 3)
    assert _failures(va.check_va_axioms(plain, 3)) == {
        "translation: Y(Ta,z) = d/dz Y(a,z)": "z^2: 3*x1[0]",
    }


def _dead(fld, k, m):
    """The per-check test that a pair's thresholds replaced, kept as their
    oracle: is the mode at k/m provably zero, and every mode above it too?
    So it is when it lies inside the window and below every visible term."""
    known = fld.at(-k - m) is not None
    return known and (not fld.terms or -k - m < next(iter(fld.terms)))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 4),
    top=st.integers(-12, 12),
    exponents=st.sets(st.integers(-20, 12), max_size=4),
    k=st.integers(-30, 30),
)
def test_dead_threshold_agrees_with_the_per_mode_test(m, top, exponents, k):
    terms = {e: JetPoly.var(m, 1, -abs(e)) for e in exponents if e <= top}
    fld = PuiseuxSeries(m, terms, top)
    assert (k >= twisted._dead_from(fld, m)) == _dead(fld, k, m)


def test_borcherds_zero_factor_settles_a_truncated_product():
    a, b = y(1), y(1) ** 2
    # At window 0, a_(-3/2) needs z^(1/2), beyond the window; b_(-1) is the
    # z^0 coefficient of Y_g(x1^2), exactly zero, so a_(-3/2) b_(-1) is zero.
    fa, fb = twisted_field(a, G2P, 0), twisted_field(b, G2P, 0)
    assert fa.at(1) is None  # a_(-3/2), at z^(1/2)
    assert fb.at(0).is_zero  # b_(-1), at z^0
    assert check_twisted_borcherds(a, b, G2P, 0, Fraction(-3, 2), -1, 0).passed
    # b_(-2), at z^1, lies beyond the window too: nothing settles the
    # product, and the first factor raises.
    with pytest.raises(TruncationError, match=r"z\^1/2 is beyond the window \(trunc 0\)"):
        check_twisted_borcherds(a, b, G2P, 0, Fraction(-3, 2), -2, 0)


# Sources at order 3 (characters 1 and 2) and at order 6 (characters 1 and
# 0, so n runs over the integers).
_INDEX_BOXES = {
    3: (DiagAutomorphism(3, (1, 2)), JetPoly.var(3, 1), JetPoly.var(3, 2, -1)),
    6: (
        DiagAutomorphism(6, (1, 5)),
        JetPoly.var(6, 1),
        JetPoly.var(6, 1) * JetPoly.var(6, 2, -1),
    ),
}


def _index_box(order, window):
    """Every identity with l in [-2, 2] and m, n in their cosets with
    |m|, |n| <= 2: (l, m, n) -> True or the TruncationError text."""
    g, a, b = _INDEX_BOXES[order]
    cosets = [
        [Fraction(k * order + r, order) for k in range(-3, 3)]
        for r in (eigen_index(a, g.exponents), eigen_index(b, g.exponents))
    ]
    out = {}
    for l in range(-2, 3):
        for m_idx in (q for q in cosets[0] if abs(q) <= 2):
            for n_idx in (q for q in cosets[1] if abs(q) <= 2):
                key = (l, str(m_idx), str(n_idx))
                try:
                    res = check_twisted_borcherds(a, b, g, l, m_idx, n_idx, window)
                    out[key] = res.passed
                except TruncationError as err:
                    out[key] = str(err)
    return out


@pytest.mark.parametrize("order, size", [(3, 80), (6, 100)])
def test_borcherds_index_box_passes_at_a_wide_window(order, size):
    results = _index_box(order, 4)
    assert len(results) == size
    assert all(v is True for v in results.values()), results


# Recorded from the Fraction-indexed implementation at window 1: which
# identities reach beyond the window, and the message each one raises.
_BEYOND_WINDOW_1 = {
    3: {
        (-2, "-5/3", "-4/3"): "coefficient of z^2 is beyond the window (trunc 1)",
        (-2, "-5/3", "-1/3"): "coefficient of z^2 is beyond the window (trunc 1)",
        (-2, "-2/3", "-4/3"): "coefficient of z^2 is beyond the window (trunc 1)",
        (-2, "-2/3", "-1/3"): "coefficient of z^5/3 is beyond the window (trunc 1)",
        (-2, "1/3", "-4/3"): "coefficient of z^5/3 is beyond the window (trunc 1)",
        (-1, "-5/3", "-4/3"): "coefficient of z^2 is beyond the window (trunc 1)",
        (-1, "-5/3", "-1/3"): "coefficient of z^5/3 is beyond the window (trunc 1)",
        (-1, "-2/3", "-4/3"): "coefficient of z^5/3 is beyond the window (trunc 1)",
    },
    6: {
        (-2, "-11/6", "-2"): "coefficient of z^17/6 is beyond the window (trunc 1)",
        (-2, "-11/6", "-1"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-2, "-11/6", "0"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-2, "-5/6", "-2"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-2, "-5/6", "-1"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-2, "1/6", "-2"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-1, "-11/6", "-2"): "coefficient of z^17/6 is beyond the window (trunc 1)",
        (-1, "-11/6", "-1"): "coefficient of z^11/6 is beyond the window (trunc 1)",
        (-1, "-5/6", "-2"): "coefficient of z^11/6 is beyond the window (trunc 1)",
    },
}


@pytest.mark.parametrize("order", [3, 6])
def test_borcherds_index_box_truncation_messages_frozen(order):
    results = _index_box(order, 1)
    raised = {k: v for k, v in results.items() if isinstance(v, str)}
    assert raised == _BEYOND_WINDOW_1[order]
    # the first identity of the box to raise, with its message
    assert next(iter(raised.items())) == next(iter(_BEYOND_WINDOW_1[order].items()))
    assert all(v is True for v in results.values() if not isinstance(v, str))


def _pair_sweep_cases():
    """Every identity of the order-2, order-3 and plain boxes, over each
    ordered pair of the box's two sources, at the box's own window and at
    window 1, where some reach beyond it; pair-major, as a sweep runs."""
    g3 = DiagAutomorphism(3, (1, 2))
    twisted_boxes = [
        (G2, (y(1), y(1) ** 2), 6),
        (g3, (JetPoly.var(3, 1), JetPoly.var(3, 2, -1)), 5),
    ]
    cases = []
    for g, sources, window in twisted_boxes:
        m = g.order
        for a, b in itertools.product(sources, repeat=2):
            ra, rb = (eigen_index(p, g.exponents) for p in (a, b))
            for W in (window, 1):
                cases += [
                    (check_twisted_borcherds, (a, b, g, l, m_idx, n_idx, W))
                    for l in range(-2, 3)
                    for m_idx in (Fraction(k * m + ra, m) for k in range(-2, 2))
                    for n_idx in (Fraction(k * m + rb, m) for k in range(-2, 2))
                ]
    plain = (JetPoly.var(1, 1) * JetPoly.var(1, 2), JetPoly.var(1, 2, -1))
    for a, b in itertools.product(plain, repeat=2):
        for W in (6, 1):
            cases += [
                (check_borcherds, (a, b, mi, ni, ki, W))
                for mi, ni, ki in itertools.product(range(-2, 2), repeat=3)
            ]
    return cases


def _outcome(check, args):
    try:
        res = check(*args)
    except TruncationError as err:
        return ("TruncationError", str(err))
    return (res.name, res.passed, res.witness)


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
def test_pair_memo_does_not_depend_on_call_order_or_cache_state(
    monkeypatch, perturbed
):
    # Each check alone on a cold pair cache, then pair-major, then in a
    # shuffled order that evicts pairs from the two-entry cache.  With the
    # perturbed field some identities fail, so witnesses are compared too.
    if perturbed:
        _perturb_field(monkeypatch, y(1), Fraction(1, 2), y(2))
    cases = _pair_sweep_cases()
    cold = []
    for case in cases:
        twisted._pair_context.cache_clear()
        cold.append(_outcome(*case))
    assert [_outcome(*case) for case in cases] == cold
    order = list(range(len(cases)))
    random.Random(0).shuffle(order)
    shuffled = {k: _outcome(*cases[k]) for k in order}
    assert [shuffled[k] for k in range(len(cases))] == cold
    raised = [out for out in cold if out[0] == "TruncationError"]
    failed = [out for out in cold if out not in raised and not out[1]]
    assert raised
    assert bool(failed) == perturbed


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
def test_prefix_reads_of_a_warm_memo_match_a_cold_memo(monkeypatch, perturbed):
    # The twisted axioms of the pair sweep's sources, the plain axioms of
    # its plain ones and every Borcherds identity of the sweep, once from
    # empty caches and once after the same checks at windows wider by 2
    # have left the memo holding their fields wider than this run reads
    # them: the second run reads prefixes, over the wider denominators, and
    # must give every (name, passed, witness) the first gives.
    if perturbed:
        _perturb_field(monkeypatch, y(1), Fraction(1, 2), y(2))
    plain = (JetPoly.var(1, 1) * JetPoly.var(1, 2), JetPoly.var(1, 2, -1))
    axioms = [
        (check_twisted_axioms, (a, b, G2, 4))
        for a, b in itertools.product((y(1), y(1) ** 2), repeat=2)
    ]
    axioms += [(lambda a, W: check_va_axioms(a, W, samples=plain), (a, 4)) for a in plain]
    cases = _pair_sweep_cases()

    def run(widen):
        out = [
            (r.name, r.passed, r.witness)
            for check, args in axioms
            for r in check(*args[:-1], args[-1] + widen)
        ]
        return out + [_outcome(check, (*args[:-1], args[-1] + widen)) for check, args in cases]

    empty_caches()
    cold = run(0)
    empty_caches()
    run(2)
    narrower = []
    real_prefix = CodedSeries.prefix

    def prefix(self, top):
        if top < self.top:
            narrower.append(top)
        return real_prefix(self, top)

    monkeypatch.setattr(CodedSeries, "prefix", prefix)
    assert run(0) == cold
    assert narrower
    failed = [out for out in cold if out[0] != "TruncationError" and not out[1]]
    assert bool(failed) == perturbed


def test_a_narrower_field_read_materialises_as_a_cold_one():
    # Y_g(x1[-2]/5 + x1/3) up to z^(-3/2) meets only the first term, whose
    # pole reaches z^(-3/2): a fresh expansion there is over a denominator
    # without the 3 of the second term, which the prefix of the expansion
    # at W = 3 keeps.
    src = y(1, -2).scale(Fraction(1, 5)) + y(1).scale(Fraction(1, 3))
    low = Fraction(-3, 2)
    jetpoly._expansion_memo.cache_clear()
    cold = twisted_field(src, G2, low)
    cold_den = twisted._field(src, G2, -3).den
    jetpoly._expansion_memo.cache_clear()
    wide = twisted_field(src, G2, 3)
    warm = twisted_field(src, G2, low)
    warm_den = twisted._field(src, G2, -3).den
    assert warm_den != cold_den and warm_den % cold_den == 0
    assert warm == cold and cold.support() == (low,)
    assert warm.coefficient(low) == wide.coefficient(low)


def test_pair_box_multiplies_each_product_of_two_modes_once(monkeypatch):
    # The whole index box of one pair.  The rhs term b_(l+n-i) a_(m+i) is
    # the product a_(m+i) b_(l+n-i), so it shares one memo entry with every
    # other term over the same two modes, in whichever order the identity
    # writes them.
    real_mul_rows = twisted.mul_rows
    products = Counter()

    def counted_mul_rows(acc, left, right, m):
        products[frozenset((tuple(left.items()), tuple(right.items())))] += 1
        real_mul_rows(acc, left, right, m)

    monkeypatch.setattr(twisted, "mul_rows", counted_mul_rows)
    twisted._pair_context.cache_clear()
    a, b = y(1), y(2)
    # m in 1/2 + Z and n in Z, |m|, |n| <= 2
    cosets = [
        [Fraction(r, 2) + t for t in range(-3, 4) if abs(Fraction(r, 2) + t) <= 2]
        for r in (eigen_index(a, G2P.exponents), eigen_index(b, G2P.exponents))
    ]
    results = [
        check_twisted_borcherds(a, b, G2P, l, m_idx, n_idx, 4)
        for l in range(-2, 3)
        for m_idx in cosets[0]
        for n_idx in cosets[1]
    ]
    assert len(results) == 5 * 4 * 5 and all(r.passed for r in results)
    assert set(products.values()) == {1}


def test_a_product_with_both_factors_beyond_the_window_names_a_mode_first():
    # At l = 1, m = -3/2, n = -3 the rhs product b_(-2) a_(-3/2) needs
    # z^1 of Y_g(x2) and z^(1/2) of Y_g(x1), both beyond window 0.  It is
    # read as a_(-3/2) b_(-2), so a's coefficient is the one named.
    spec = SchemeSpec.of(2, 2, [])
    with pytest.raises(
        TruncationError,
        match=r"^coefficient of z\^1/2 is beyond the window \(trunc 0\)$",
    ):
        check_twisted_borcherds(y(1), y(2), G2P, 1, Fraction(-3, 2), -3, 0, spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (SchemeSpec.of(2, 2, []), "exponent count does not match the scheme"),
        (SchemeSpec(2, (2,), ()), "a symmetry needs scheme coordinates 1..k"),
    ],
    ids=["two-coordinates", "coordinate-2-only"],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda spec: twisted_field(y(2), G2, 2, spec),
        lambda spec: check_twisted_axioms(y(2), y(2), G2, 2, spec),
        lambda spec: check_twisted_borcherds(y(2), y(2), G2, 0, 0, 0, 2, spec),
    ],
    ids=["twisted_field", "check_twisted_axioms", "check_twisted_borcherds"],
)
def test_twisted_entry_points_refuse_a_scheme_that_does_not_fit(entry, spec, message):
    # G2 has one exponent.  On the two-coordinate scheme x2's exponent used
    # to be padded with 0, and every axiom check on x2 passed; on a scheme
    # whose one coordinate is x2, G2's exponent went to x2.
    with pytest.raises(ValueError, match=message):
        entry(spec)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: twisted_field(y(1), DiagAutomorphism(3, (1,)), 2),
            "source and symmetry orders differ",
        ),
        (
            lambda: twisted_field(y(1) + y(2), G2P, 2),
            "twisted field source must be character-homogeneous",
        ),
        (
            lambda: check_twisted_borcherds(
                y(1) + y(2), y(1), G2P, 0, 0, Fraction(1, 2), 2
            ),
            "Borcherds sources must be character-homogeneous",
        ),
        (
            lambda: check_twisted_borcherds(
                y(1), y(1), G2P, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 2
            ),
            "the first Borcherds index must be an integer",
        ),
        (
            lambda: check_twisted_borcherds(y(1), y(1), G2P, 0, 0, Fraction(1, 2), 2),
            "index m = 0 must lie in 1/2 + Z",
        ),
        (
            lambda: check_twisted_borcherds(y(1), y(1), G2P, 0, Fraction(1, 2), 0, 2),
            "index n = 0 must lie in 1/2 + Z",
        ),
        # A bool index used to pass and be printed as "l=True".
        (
            lambda: check_twisted_borcherds(
                y(1), y(1), G2, True, Fraction(1, 2), Fraction(1, 2), 2
            ),
            "index l = True must not be a bool",
        ),
        (
            lambda: check_twisted_borcherds(y(1), y(1), G2, 0, True, Fraction(1, 2), 2),
            "index m = True must not be a bool",
        ),
        (
            lambda: check_descent(
                SchemeSpec.of(2, 2, [y(1) + y(2), y(1) - y(2)]), G2P, 1, 0, 2
            ),
            "relation is not character-homogeneous for this symmetry",
        ),
        # A bool used to pass as "rel True" or "translate True", and a float
        # ended in a bare TypeError.
        (
            lambda: check_descent(_parabola(), G2P, True, 1, 2),
            "relation index True must be an int",
        ),
        (
            lambda: check_descent(_parabola(), G2P, 1.0, 1, 2),
            "relation index 1.0 must be an int",
        ),
        (
            lambda: check_descent(_parabola(), G2P, 1, True, 2),
            "translate True must be an int",
        ),
        (
            lambda: check_descent(_parabola(), G2P, 1, 2.0, 2),
            "translate 2.0 must be an int",
        ),
        # The lowest coordinate without an exponent is named, whatever the
        # order of the variable set; it used to read "coordinate 7".
        (
            lambda: twisted_field(y(3) * y(4) * y(5) * y(6) * y(7) * y(8), G2P, 2),
            "no exponent known for coordinate 3",
        ),
    ],
    ids=[
        "field-order",
        "field-character",
        "borcherds-character",
        "borcherds-l",
        "borcherds-m",
        "borcherds-n",
        "borcherds-l-bool",
        "borcherds-m-bool",
        "descent-character",
        "descent-rel-bool",
        "descent-rel-float",
        "descent-translate-bool",
        "descent-translate-float",
        "field-lowest-missing-coordinate",
    ],
)
def test_refusals_are_frozen(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# descent of jet equations
# ---------------------------------------------------------------------------


def _parabola():
    return SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])


def test_descent_parabola():
    spec = _parabola()
    for n in range(0, 3):
        results = check_descent(spec, G2P, 1, n, 4 - n)
        assert all(r.passed for r in results), (n, [r for r in results if not r.passed])


def test_descent_cusp_order3():
    x1 = JetPoly.var(3, 1)
    x2 = JetPoly.var(3, 2)
    spec = SchemeSpec.of(3, 2, [x1 ** 3 - x2 ** 2])
    g = DiagAutomorphism(3, (2, 0))  # 3*2 = 2*0 + 6 = 0 mod 3: eigenvector
    for n in range(0, 2):
        results = check_descent(spec, g, 1, n, 3 - n)
        assert all(r.passed for r in results), (n, [r for r in results if not r.passed])


@pytest.mark.parametrize(
    "extra, witness",
    [(y(2, -3), "z^1: x2[-3]"), (y(2, -9), "z^1: x2[-9]")],
    ids=["monomial-of-a-generator", "monomial-of-no-generator"],
)
def test_descent_fails_on_a_perturbed_field(monkeypatch, extra, witness):
    # x2[-3] is a monomial of the weight-3 generator; no generator has x2[-9].
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    n = 1
    _perturb_translate(monkeypatch, divided_t_power(spec.relations[0], n), Fraction(1), extra)
    results = check_descent(spec, G2P, 1, n, 3)
    assert _failures(results) == {
        "descent coefficients: rel 1, translate 1": witness,
        "descent span: rel 1, translate 1, coefficients in the twisted "
        "generator span": "coefficient at z^1",
    }


def test_a_shuffled_descent_sweep_translates_each_polynomial_once(monkeypatch):
    # 45 translates (relation, n >= 1), read in shuffled order, one chain
    # per relation: T builds each translate once, from the one before.
    specs = [
        SchemeSpec.of(2, 2, [y(1) ** a * y(2) ** b])
        for a, b in itertools.product(range(1, 4), repeat=2)
    ]
    sweep = [(spec, n) for spec in specs for n in range(6)]
    random.Random(0).shuffle(sweep)
    assert sum(n > 0 for _, n in sweep) > 32
    empty_caches()
    calls = Counter()
    real = jetpoly.derivation_T

    def counted(p):
        calls[p] += 1
        return real(p)

    monkeypatch.setattr(jetpoly, "derivation_T", counted)
    for spec, n in sweep:
        assert all(r.passed for r in check_descent(spec, G2P, 1, n, 1))
    assert sum(calls.values()) == 5 * len(specs)
    assert set(calls.values()) == {1}


@pytest.fixture
def doubled_translation(monkeypatch):
    """``derivation_T`` replaced by twice itself, from an empty translate
    memo; the memo is emptied again afterwards, so no wrong translate
    reaches a later test."""
    jetpoly._translate_chain.cache_clear()
    real = jetpoly.derivation_T
    monkeypatch.setattr(jetpoly, "derivation_T", lambda p: real(p).scale(2))
    yield
    jetpoly._translate_chain.cache_clear()


@pytest.mark.usefixtures("doubled_translation")
def test_descent_fails_on_a_wrong_translation():
    # The translate's field is a fresh substitution of T^n(rel)/n!, not a
    # derivative of the relation's field: a wrong T spares n = 0 alone.
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    assert all(r.passed for r in check_descent(spec, G2P, 1, 0, 3))
    witnesses = {
        1: "z^0: -x2[-1] + x1[-1/2]^2",
        2: "z^0: -3*x2[-2] + 6*x1[-1/2]*x1[-3/2]",
    }
    for n, witness in witnesses.items():
        assert _failures(check_descent(spec, G2P, 1, n, 3)) == {
            f"descent coefficients: rel 1, translate {n}": witness
        }


@pytest.fixture
def eliminations(monkeypatch):
    """The ``RowReducer.add`` and ``RowReducer.contains`` calls made outside
    ``preserves_ideal``, counted by name; the fixture is the count dict."""
    counts = {"add": 0, "contains": 0}
    depth = 0
    real_preserves = jetscheme.preserves_ideal

    def preserves(spec, g):
        nonlocal depth
        depth += 1
        try:
            return real_preserves(spec, g)
        finally:
            depth -= 1

    def counted(name):
        real = getattr(RowReducer, name)

        def call(self, row):
            if not depth:
                counts[name] += 1
            return real(self, row)

        return call

    monkeypatch.setattr(jetscheme, "preserves_ideal", preserves)
    for name in counts:
        monkeypatch.setattr(RowReducer, name, counted(name))
    return counts


def test_a_passing_descent_check_eliminates_nothing(eliminations):
    # A passing coefficient check certifies the span: every coefficient is
    # a multiple of one generator, so no span is eliminated.
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    jetpoly._expansion_memo.cache_clear()
    for n in range(0, 3):
        assert all(r.passed for r in check_descent(spec, G2P, 1, n, 4 - n))
    assert eliminations == {"add": 0, "contains": 0}


def test_a_passing_descent_check_scales_nothing(monkeypatch):
    # Each coefficient is compared with its generator on ints: a passing
    # check scales no polynomial and makes no Fraction binomial.  Only a
    # failing one does, once, to build its witness.  The translates are
    # taken first, since the translate memo scales each new entry by 1/n.
    spec = _parabola()
    for n in range(0, 3):
        divided_t_power(spec.relations[0], n)
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    count(JetPoly, "scale")
    count(twisted, "binom")
    jetpoly._expansion_memo.cache_clear()
    for n in range(0, 3):
        assert all(r.passed for r in check_descent(spec, G2P, 1, n, 4 - n))
    assert calls == Counter()

    _perturb_translate(monkeypatch, divided_t_power(spec.relations[0], 1), Fraction(1), y(2, -3))
    assert _failures(check_descent(spec, G2P, 1, 1, 3)) == {
        "descent coefficients: rel 1, translate 1": "z^1: x2[-3]",
        "descent span: rel 1, translate 1, coefficients in the twisted "
        "generator span": "coefficient at z^1",
    }
    assert calls == Counter({"scale": 1, "binom": 1})


def test_a_passing_int_window_descent_check_builds_no_fraction(fraction_calls):
    # Measured at 4 Fraction.__new__ calls (Python 3.11) for a round of
    # three checks from empty caches, all in the translate memo (1/n and
    # its scalar, for n = 1, 2), and none for a second round: an int window
    # is used as given.
    spec = _parabola()

    def rounds(k):
        return [
            r
            for _ in range(k)
            for n in range(0, 3)
            for r in check_descent(spec, G2P, 1, n, 4 - n)
        ]

    once, results = fraction_calls(rounds, 1)
    assert len(results) == 6 and all(r.passed for r in results)
    assert fraction_calls(rounds, 2)[0] == once


def _reference_descent_coefficients(spec, g, rel_index, n, window):
    """The first check of ``check_descent`` as it was first written, kept
    as the oracle of its int comparison: over every exponent of the
    translate's field or of a generator of the relation, lowest first, the
    generator scaled by the Fraction C(w + n, n) is compared with the
    field's coefficient as a polynomial.  The field is expanded as
    ``check_descent`` expands it, through ``twisted.substitute_coded``, so a
    changed field reaches both."""
    W = Fraction(window)
    rel = spec.relations[rel_index - 1]
    top = floor_units(W, spec.order)
    fld = twisted.substitute_coded(divided_t_power(rel, n), g.exponents, top).materialise()
    gens = twisted_jet_generators(spec, g, W + n).generators
    table = {(gen.relation, gen.weight): gen.poly for gen in gens}
    exponents = set(fld.support())
    exponents.update(u - n for (ri, u) in table if ri == rel_index)
    name = f"descent coefficients: rel {rel_index}, translate {n}"
    for w in sorted(exponents):
        lhs = fld.coefficient(w)
        base = table.get((rel_index, w + n), JetPoly.zero(spec.order))
        rhs = base.scale(binom(w + n, n))
        if lhs != rhs:
            return name, False, f"z^{w}: {lhs - rhs}"
    return name, True, None


def _edited(fld, w, edit):
    """fld with its z^w coefficient p replaced by edit(p)."""
    coeffs = {v: fld.coefficient(v) for v in fld.support()}
    coeffs[w] = edit(fld.coefficient(w))
    return PuiseuxSeries.from_dict(fld.order, coeffs, fld.trunc)


def _term(p, j):
    return JetPoly(p.order, (p.terms[j],))


def _descent_perturbations(fld, gen_weights, n, coordinate=2):
    """(kind, change of the translate field) for every perturbation of
    the oracle test: each coefficient with one term doubled, with one term
    dropped and with a stray term; a stray term at each exponent u - n of
    an integer weight u < n, where C(u, n) = 0; and one at z^(-1/m) and,
    inside the window, z^(1/m), which lie in no generator's coset for the
    schemes below.  The stray term is zeta * x[coordinate, -9]."""
    m = fld.order
    stray = JetPoly.var(m, coordinate, -9).scale(zeta_pow(m, 1))
    out = [("none", lambda f: f)]
    for k, w in enumerate(fld.support()):
        p = fld.coefficient(w)
        j = k % len(p.terms)
        out += [
            ("double", lambda f, w=w, j=j: _edited(f, w, lambda q: q + _term(q, j))),
            ("drop", lambda f, w=w, j=j: _edited(f, w, lambda q: q - _term(q, j))),
            ("stray", lambda f, w=w: _edited(f, w, lambda q: q + stray)),
        ]
    for u in range(n):
        kind = "zero binomial" if u in gen_weights else "no generator"
        out.append((kind, lambda f, w=u - n: _edited(f, Fraction(w), lambda q: q + stray)))
    for w in (Fraction(-1, m), Fraction(1, m)):
        if w <= fld.trunc:
            out.append(("no generator", lambda f, w=w: _edited(f, w, lambda q: q + stray)))
    return out


_ZETA_SCHEMES = [
    (_parabola(), G2P),
    (
        SchemeSpec.of(3, 2, [JetPoly.var(3, 1) ** 3 - JetPoly.var(3, 2) ** 3 * zeta_pow(3, 1)]),
        DiagAutomorphism(3, (1, 1)),
    ),
    (
        SchemeSpec.of(4, 2, [JetPoly.var(4, 1) ** 2 - JetPoly.var(4, 2) ** 2 * zeta_pow(4, 1)]),
        DiagAutomorphism(4, (1, 1)),
    ),
]


@pytest.mark.parametrize("spec, g", _ZETA_SCHEMES, ids=["m2", "m3", "m4"])
def test_descent_coefficients_match_the_scale_and_compare_oracle(monkeypatch, spec, g):
    # The same (name, passed, witness) as the oracle on every perturbed
    # translate field, at every translate n <= 4.
    change = {}
    _change_translates(monkeypatch, change)
    rel, window = spec.relations[0], 3
    verdicts = Counter()
    for n in range(0, 5):
        source = divided_t_power(rel, n)
        gens = twisted_jet_generators(spec, g, window + n).generators
        fld = jetpoly.substitute_jets(source, g.exponents, window)
        for kind, edit in _descent_perturbations(fld, {gen.weight for gen in gens}, n):
            change[source] = edit
            got = check_descent(spec, g, 1, n, window)[0]
            expected = _reference_descent_coefficients(spec, g, 1, n, window)
            assert (got.name, got.passed, got.witness) == expected, (kind, n)
            verdicts[kind, got.passed] += 1
        del change[source]
    # The unperturbed fields pass, and every perturbation is caught.
    assert {key for key in verdicts if key[1]} == {("none", True)}
    assert verdicts["none", True] == 5
    if spec.order != 4:  # m = 4 has only half-integer generator weights
        assert verdicts["zero binomial", False] > 0


# (exponent of x1, exponent of x2) of a term of a random relation
_RELATION_MONOMIALS = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    terms=st.lists(
        st.tuples(
            st.sampled_from(_RELATION_MONOMIALS),
            st.sampled_from([1, -1, 2, Fraction(1, 2)]),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=3,
    ),
    n=st.integers(0, 4),
    window=st.fractions(min_value=0, max_value=3, max_denominator=6),
    data=st.data(),
)
def test_descent_coefficients_match_the_oracle_on_random_relations(
    m, terms, n, window, data
):
    # A random relation in x1, x2 over Q(zeta_m), at every exponent vector
    # that preserves it, at a window on or off the 1/m lattice: the coded
    # comparison gives the oracle's (name, passed, witness) on the clean
    # translate and on one drawn edit of it.
    rel = JetPoly.zero(m)
    for (a, b), c, j in terms:
        mon = JetPoly.var(m, 1) ** a * JetPoly.var(m, 2) ** b
        rel = rel + mon.scale(zeta_pow(m, j)).scale(c)
    spec = SchemeSpec.of(m, 2, [rel])
    coordinate = max((v.index for v in rel.variables()), default=1)
    source = divided_t_power(rel, n)
    change = {}
    with pytest.MonkeyPatch.context() as patch:
        _change_translates(patch, change)
        for alpha in itertools.product(range(m), repeat=2):
            g = DiagAutomorphism(m, alpha)
            if not preserves_ideal(spec, g):
                continue
            gens = twisted_jet_generators(spec, g, window + n).generators
            fld = jetpoly.substitute_jets(source, g.exponents, window)
            edits = _descent_perturbations(
                fld, {gen.weight for gen in gens}, n, coordinate
            )
            for kind, edit in (edits[0], data.draw(st.sampled_from(edits))):
                change[source] = edit
                got = check_descent(spec, g, 1, n, window)[0]
                expected = _reference_descent_coefficients(spec, g, 1, n, window)
                assert (got.name, got.passed, got.witness) == expected, (kind, alpha)
                if kind == "none":
                    assert got.passed


def test_a_passing_descent_check_materialises_nothing(monkeypatch):
    # On warm caches a passing check decides on codes alone: it builds no
    # JetPoly and reads no code back into a monomial.  A failing check
    # materialises its translate once, for both its witness and its span.
    spec = _parabola()

    def checks():
        return [r for n in range(0, 3) for r in check_descent(spec, G2P, 1, n, 4 - n)]

    assert all(r.passed for r in checks())
    counts = Counter()
    real_init, real_read = JetPoly.__init__, jetpoly._coded_monomial

    def init(self, *args):
        counts["JetPoly"] += 1
        real_init(self, *args)

    def read(*args):
        counts["_coded_monomial"] += 1
        return real_read(*args)

    with monkeypatch.context() as patch:
        patch.setattr(JetPoly, "__init__", init)
        patch.setattr(jetpoly, "_coded_monomial", read)
        assert all(r.passed for r in checks())
    assert counts == Counter()

    _perturb_translate(monkeypatch, divided_t_power(spec.relations[0], 1), Fraction(1), y(2, -3))
    translates, materialised = [], []
    perturbed, real_materialise = twisted.substitute_coded, CodedSeries.materialise

    def expand(*args):
        translates.append(perturbed(*args))
        return translates[-1]

    def materialise(self):
        materialised.append(self)
        return real_materialise(self)

    monkeypatch.setattr(twisted, "substitute_coded", expand)
    monkeypatch.setattr(CodedSeries, "materialise", materialise)
    assert set(_failures(check_descent(spec, G2P, 1, 1, 3))) == {
        "descent coefficients: rel 1, translate 1",
        "descent span: rel 1, translate 1, coefficients in the twisted "
        "generator span",
    }
    assert len(translates) == 1
    assert sum(c is translates[0] for c in materialised) == 1


def test_descent_coefficients_fail_where_the_span_holds(monkeypatch, eliminations):
    # z^1 of the translate gains the whole weight-3 generator: it is no
    # longer 2 times the weight-2 one, but still lies in the span.  The
    # span check now eliminates the five generators and tests each of the
    # four coefficients of the field.
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    gens = twisted_jet_generators(spec, G2P, Fraction(4)).generators
    extra = next(gen.poly for gen in gens if gen.weight == 3)
    _perturb_translate(monkeypatch, divided_t_power(spec.relations[0], 1), Fraction(1), extra)
    results = check_descent(spec, G2P, 1, 1, 3)
    assert _failures(results) == {
        "descent coefficients: rel 1, translate 1": (
            "z^1: -x2[-3] + 2*x1[-1/2]*x1[-5/2] + x1[-3/2]^2"
        )
    }
    assert eliminations == {"add": 5, "contains": 4}


def test_descent_basis_is_left_as_it_was_by_a_stray_monomial(monkeypatch):
    # x2[-9] lies in no generator: the failing check eliminates the span
    # of the cached generators without changing them, and a clean check
    # after it gives what fresh calls give.
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    jetpoly._expansion_memo.cache_clear()
    fresh = check_descent(spec, G2P, 1, 1, 3)
    assert all(r.passed for r in fresh)
    (entry,) = relation_entries(spec, G2P)
    gens = tuple(entry)
    assert [series.top for series in gens] == [8]  # weight 4 in units of 1/2
    with monkeypatch.context() as patch:
        _perturb_translate(patch, divided_t_power(spec.relations[0], 1), Fraction(1), y(2, -9))
        failures = _failures(check_descent(spec, G2P, 1, 1, 3))
    assert failures == {
        "descent coefficients: rel 1, translate 1": "z^1: x2[-9]",
        "descent span: rel 1, translate 1, coefficients in the twisted "
        "generator span": "coefficient at z^1",
    }
    assert relation_entries(spec, G2P)[0] is entry
    assert all(now is then for now, then in zip(entry, gens, strict=True))
    assert check_descent(spec, G2P, 1, 1, 3) == fresh
    jetpoly._expansion_memo.cache_clear()
    assert jetscheme.coded_relations(spec, G2P, 8) == gens
    assert check_descent(spec, G2P, 1, 1, 3) == fresh


def test_descent_refuses_a_translate_coded_in_another_layout(monkeypatch):
    # T^n keeps coordinates and degrees, so a translate shares its
    # relation's layout; codes of two layouts are never compared.
    real = twisted.substitute_coded

    def widened(p, exponents, top):
        coded = real(p, exponents, top)
        bits, k, unit = coded.layout
        return CodedSeries(coded.order, coded.top, coded.den, (bits + 1, k, unit), coded.terms)

    monkeypatch.setattr(twisted, "substitute_coded", widened)
    message = "translate 1 of relation 1 is coded as (3, 2, 2), its relation as (2, 2, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_descent(_parabola(), G2P, 1, 1, 3)


def test_descent_raises_on_every_call_when_the_span_is_not_preserved():
    # x1 -> -x1 keeps x1^2 an eigenvector but sends x1 + x2 to x2 - x1.
    spec = SchemeSpec.of(2, 2, [y(1) ** 2, y(1) + y(2)])
    for _ in range(3):
        with pytest.raises(IdealNotPreservedError):
            check_descent(spec, G2P, 1, 0, 3)


@pytest.mark.parametrize(
    "spec, error",
    [
        (SchemeSpec.of(2, 2, [y(1) ** 2, y(1) + y(2)]), IdealNotPreservedError),
        (SchemeSpec.of(2, 2, [y(1) + y(2), y(1) - y(2)]), ValueError),
    ],
    ids=["span-not-preserved", "relation-not-homogeneous"],
)
def test_a_refused_descent_check_expands_nothing(spec, error):
    # Both refusals come before any relation is expanded: the refused
    # call leaves the expansion memo empty.  The second relation set
    # spans a preserved space, but x1 + x2 is no eigenvector.
    jetpoly._expansion_memo.cache_clear()
    with pytest.raises(error):
        check_descent(spec, G2P, 1, 0, 3)
    assert jetpoly._expansion_memo.cache_info().currsize == 0


def test_descent_rejects_bad_relation_index():
    spec = SchemeSpec.of(2, 1, [y(1) ** 2])
    with pytest.raises(ValueError):
        check_descent(spec, G2, 2, 0, 3)


def test_descent_rejects_a_negative_translate():
    # It used to report two passing checks named "translate -1".
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    with pytest.raises(ValueError, match="translate -1"):
        check_descent(spec, G2P, 1, -1, 3)


# ---------------------------------------------------------------------------
# integer-coded indices and binomials
# ---------------------------------------------------------------------------


def _index_box_cases(order):
    """The (a, b, g, l, m, n) of ``_index_box``, in its order."""
    g, a, b = _INDEX_BOXES[order]
    cosets = [
        [Fraction(k * order + r, order) for k in range(-3, 3)]
        for r in (eigen_index(a, g.exponents), eigen_index(b, g.exponents))
    ]
    return [
        (a, b, g, l, m_idx, n_idx)
        for l in range(-2, 3)
        for m_idx in (q for q in cosets[0] if abs(q) <= 2)
        for n_idx in (q for q in cosets[1] if abs(q) <= 2)
    ]


@pytest.mark.parametrize("order", [3, 6])
def test_borcherds_binomials_in_units_match_binom(order):
    for *_, l, m_idx, _ in _index_box_cases(order):
        for i in range(-l + 2):
            reference = Fraction(1)
            for j in range(i):
                reference = reference * (m_idx - j) / (j + 1)
            got = Fraction(*binom_units(int(m_idx * order), order, i))
            assert got == binom(m_idx, i) == reference, (m_idx, i)


def test_borcherds_box_builds_no_fraction_per_field_read(fraction_calls):
    # Measured at 132 Fraction.__new__ calls (Python 3.11) over the 80
    # identities of the order-3 box, which read 208 fields; a Fraction per
    # field read breaks the bound.
    cases = _index_box_cases(3)

    def run():
        return [check_twisted_borcherds(*case, 4) for case in cases]

    calls, results = fraction_calls(run)
    assert len(results) == 80 and all(r.passed for r in results)
    assert calls <= 264


def _borcherds_by_scalars(a, b, g, l, m_idx, n_idx, window):
    """(passed, witness) of the twisted Borcherds identity with lhs - rhs
    summed term by term as ``CycScalar``s: every mode read by ``mode`` at
    its Fraction index, every binomial a Fraction, every product a
    ``JetPoly`` product.  It is the oracle of the packed sum; it reads a
    product's second factor only when its first is not zero, so it must
    not meet a mode beyond the window."""
    m = g.order
    fa, fb = twisted_field(a, g, window), twisted_field(b, g, window)
    acc = {}

    def add(poly, coef):
        for mon, c in poly.terms:
            c = c * coef
            acc[mon] = acc[mon] + c if mon in acc else c

    i = 0
    while l + i <= -1:
        inner = divided_t_power(a, -(l + i) - 1) * b
        if not inner.is_zero:
            mode = twisted_field(inner, g, window).mode(m_idx + n_idx - i)
            add(mode, binom(m_idx, i))
        i += 1
    # For l < 0 the sum ends once b_(n+i) and a_(m+i) vanish: the sources
    # below have weight at most 1, so well before i = 12.
    sign_l = -1 if l % 2 else 1
    for i in range(l + 1 if l >= 0 else 12):
        c = (-1) ** i * binom(l, i)
        b_mode = fb.mode(n_idx + i)
        if not b_mode.is_zero:
            add(fa.mode(l + m_idx - i) * b_mode, -c)
        a_mode = fa.mode(m_idx + i)
        if not a_mode.is_zero:
            add(fb.mode(l + n_idx - i) * a_mode, c * sign_l)
    if not any(acc.values()):
        return True, None
    return False, str(JetPoly._from_dict(m, acc))


_HUGE = 2**71 + 5  # above 2^70: products of two such coefficients need 143 bits
# (symmetry, a, b, (exponent, extra term) of the perturbation of a's field)
_HUGE_BOXES = {
    2: (
        G2P,
        y(1).scale(_HUGE),
        (y(1) ** 2).scale(3**45),
        (Fraction(1, 2), y(2).scale(2**80 + 1)),
    ),
    4: (
        DiagAutomorphism(4, (1, 1)),
        JetPoly.var(4, 1).scale(zeta_pow(4, 1) * _HUGE - 3),
        JetPoly.var(4, 2, -1).scale(_HUGE),
        (Fraction(3, 4), JetPoly.var(4, 1).scale(zeta_pow(4, 1) * 2**75)),
    ),
}


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("order", [2, 4])
def test_borcherds_huge_coefficients_widen_and_match_the_scalar_sum(
    monkeypatch, order, perturbed
):
    # Coefficients above 2^70 overflow the starting field width on the
    # first nonzero sum, so the pair widens; every verdict and witness of
    # the box is the term-by-term CycScalar sum's.
    g, a, b, (exponent, extra) = _HUGE_BOXES[order]
    if perturbed:
        _perturb_field(monkeypatch, a, exponent, extra)
    else:
        twisted._pair_context.cache_clear()
    W = 8
    ra, rb = (eigen_index(p, g.exponents) for p in (a, b))
    results = {}
    for l in range(-2, 3):
        for m_idx in (Fraction(k * order + ra, order) for k in range(-2, 2)):
            for n_idx in (Fraction(k * order + rb, order) for k in range(-2, 2)):
                res = check_twisted_borcherds(a, b, g, l, m_idx, n_idx, W)
                want = _borcherds_by_scalars(a, b, g, l, m_idx, n_idx, W)
                assert (res.passed, res.witness) == want, res.name
                results[res.name] = res.passed
    assert twisted._pair_context(a, b, g, W).bits > twisted._START_BITS
    assert len(results) == 80
    assert (not all(results.values())) == perturbed


def test_borcherds_lhs_binomials_build_no_fraction(fraction_calls):
    # l = -6 .. -4 gives the lhs 4 to 6 nonzero binomials C(m, i) per
    # identity, 150 over the box.  Measured at 26 Fraction.__new__ calls
    # (Python 3.11), made by the field builds and the divided translates;
    # a Fraction per binomial breaks the bound.
    a, b = y(1), y(1) ** 2
    box = [
        (l, Fraction(2 * dm + 1, 2), dn)
        for l in range(-6, -3)
        for dm in range(-2, 0)
        for dn in range(-2, 3)
    ]
    binomials = sum(
        1
        for l, m_idx, _ in box
        for i in range(-l)
        if binom_units(exact_units(m_idx, 2), 2, i)[0]
    )

    def run():
        return [check_twisted_borcherds(a, b, G2P, *idx, 12) for idx in box]

    calls, results = fraction_calls(run)
    assert all(res.passed for res in results)
    assert binomials == 150
    assert calls <= 30


def test_series_products_and_derivatives_build_no_fraction(fraction_calls):
    # The multiplicative and translation comparisons on twisted fields,
    # fields built beforehand: windows, products, derivatives and the
    # comparison all run on ints in units of 1/m.
    g = DiagAutomorphism(2, (1,))
    a = JetPoly.var(2, 1, -1)  # its field has a pole, at z^(-1/2)
    ya = twisted_field(a, g, 5)
    square, translate = twisted_field(a * a, g, 4), twisted_field(derivation_T(a), g, 4)

    def run():
        return (ya * ya).first_mismatch(square), translate.first_mismatch(
            ya.differentiate()
        )

    calls, mismatches = fraction_calls(run)
    assert mismatches == (None, None)
    assert calls == 0


def _homogeneous_source(data, m, exponents):
    """A random source that is homogeneous for the character of g: terms
    on x1..x3 at integer levels, with zeta-power coefficients, those off
    the first term's character dropped."""
    terms = data.draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3).filter(bool),
                st.integers(0, 3),
                st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), max_size=3),
            ),
            max_size=3,
        )
    )
    p = JetPoly.zero(m)
    for c, k, factors in terms:
        mono = JetPoly.const(m, zeta_pow(m, k)).scale(c)
        for i, d in factors:
            mono = mono * JetPoly.var(m, i, -d)
        p = p + mono
    chars = [mon.character(exponents) % m for mon, _ in p.terms]
    keep = [t for t, ch in zip(p.terms, chars) if ch == chars[0]]
    return JetPoly(m, tuple(keep))


def _series_mismatch(f, h, n):
    """The oracle of ``twisted._mismatch``: the witness of
    ``PuiseuxSeries.first_mismatch`` between f and (d/dz)^n h / n!, the
    derivatives and the scaling by 1/n! taken on materialised series."""
    rhs = h.materialise()
    for _ in range(n):
        rhs = rhs.differentiate()
    c = Fraction(1, math.factorial(n))
    rhs = PuiseuxSeries(h.order, {k: p.scale(c) for k, p in rhs.terms.items()}, rhs.top)
    return f.materialise().first_mismatch(rhs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coded_products_derivatives_and_comparisons_match_the_series(data):
    # The materialised route is the oracle: for two coded fields in the
    # layout of their product, the coded product agrees with
    # PuiseuxSeries.__mul__, and the first difference of f from
    # (d/dz)^n h / n!, n = 0, 1, 2, and its witness agree with
    # differentiate, a scaling by 1/n! and first_mismatch, windows and
    # known zeros included.
    m = data.draw(st.sampled_from((1, 2, 3, 4)))
    g = DiagAutomorphism(m, tuple(data.draw(st.integers(0, m - 1)) for _ in "123"))
    a, b = (_homogeneous_source(data, m, g.exponents) for _ in "ab")
    ta, tb = (data.draw(st.integers(-m, 4 * m)) for _ in "ab")
    layout = twisted._layout(g, a, b)
    fa = jetpoly.substitute_coded(a, g.exponents, ta, layout)
    fb = jetpoly.substitute_coded(b, g.exponents, tb, layout)
    assert (fa * fb).materialise() == fa.materialise() * fb.materialise()
    prod = jetpoly.substitute_coded(a * b, g.exponents, ta, layout)
    wider = jetpoly.substitute_coded(a, g.exponents, tb + 2 * m, layout)
    translates = [
        jetpoly.substitute_coded(divided_t_power(a, n), g.exponents, ta, layout)
        for n in (0, 1, 2)
    ]
    for n in (0, 1, 2):
        for f, h in (
            (fa, fb),
            (fb, fa),
            (prod, fa * fb),
            (fa, wider),
            (translates[n], wider),
        ):
            k = twisted._first_difference(f, h, n)
            witness = _series_mismatch(f, h, n)
            assert twisted._mismatch(f, h, n) == witness
            if k is None:
                assert witness is None
            else:
                assert witness.startswith(f"z^{Fraction(k, m)}: ")
    # the product of the fields is exact up to its window, as Y_g(ab) is,
    # and the field of T^n(a)/n! is (d/dz)^n Y_g(a) / n!
    assert twisted._first_difference(prod, fa * fb, 0) is None
    for n, translate in enumerate(translates):
        assert twisted._first_difference(translate, wider, n) is None
    if fa.terms and m > 2:
        # one coefficient changed in its last coordinate alone, by zeta^(phi-1)
        k, row = next(iter(fa.terms.items()))
        code, xs = next(iter(row.items()))
        edited = dict(fa.terms)
        edited[k] = {**row, code: (*xs[:-1], xs[-1] + fa.den)}
        edited = CodedSeries(m, fa.top, fa.den, fa.layout, edited)
        assert twisted._first_difference(fa, edited, 0) == k
        assert twisted._mismatch(fa, edited, 0) == _series_mismatch(fa, edited, 0)


def test_passing_axiom_and_borcherds_checks_materialise_no_field(monkeypatch):
    # Every field these checks read is compared, multiplied and packed on
    # codes: a passing check builds no JetPoly from a field.  A failing
    # translation or multiplicative check reads one coefficient of each
    # side back, for its witness, and materialises no field.
    calls = Counter()
    real_materialise, real_polynomial = CodedSeries.materialise, CodedSeries.polynomial

    def materialise(self):
        calls["materialise"] += 1
        return real_materialise(self)

    def polynomial(self, k):
        calls["polynomial"] += 1
        return real_polynomial(self, k)

    monkeypatch.setattr(CodedSeries, "materialise", materialise)
    monkeypatch.setattr(CodedSeries, "polynomial", polynomial)
    twisted._pair_context.cache_clear()
    spec = SchemeSpec.of(2, 2, [y(1) ** 2 - y(2)])
    x1x2 = JetPoly.var(1, 1) * JetPoly.var(1, 2)
    results = [
        *check_twisted_axioms(y(1), y(2), G2P, 4, spec),
        *check_twisted_axioms(y(1, -1), y(1) * y(2, -2), G2P, 4, spec),
        *va.check_va_axioms(x1x2, 4, alpha=(0, 0)),
        *(
            check_twisted_borcherds(y(1), y(1) ** 2, G2P, l, Fraction(2 * dm + 1, 2), dn, 6)
            for l in range(-2, 3)
            for dm in range(-2, 2)
            for dn in range(-2, 2)
        ),
        *(
            check_borcherds(x1x2, JetPoly.var(1, 2, -1), mi, ni, ki, 6)
            for mi, ni, ki in itertools.product(range(-2, 2), repeat=3)
        ),
    ]
    assert len(results) == 5 + 5 + 15 + 80 + 64
    assert all(r.passed for r in results)
    assert calls == Counter()

    def witness_reads(source, exponent, extra, check):
        """The reads of a second run of a check failing on a perturbed
        field; the first run builds the perturbed fields."""
        with monkeypatch.context() as patch:
            _perturb_field(patch, source, exponent, extra)
            first = check()
            calls.clear()
            assert check() == first and not first.passed
            return first.witness, Counter(calls)

    a, b = JetPoly.var(4, 1), JetPoly.var(4, 2, -1)
    assert witness_reads(
        derivation_T(a),
        Fraction(3, 4),
        JetPoly.var(4, 2, -2),
        lambda: twisted.check_translation(a, G4, 3, "Y_g"),
    ) == ("z^3/4: x2[-2]", Counter({"polynomial": 2}))
    extra = (JetPoly.var(4, 1, Fraction(-1, 4)) * b).scale(zeta_pow(4, 1) - 2)
    assert witness_reads(
        a * b,
        Fraction(1, 2),
        extra,
        lambda: twisted.check_multiplicative(a, b, G4, 3, "Y_g"),
    ) == ("z^1/2: (-2 + zeta)*x1[-1/4]*x2[-1]", Counter({"polynomial": 2}))


def test_pair_packing_keeps_coordinates_that_overflow_their_fields():
    # 2^B at one slot and -1 at the next pack to the int 0 at width B; the
    # entry is still kept, with its top, so the bound sees it and widens.
    pair = twisted._PairContext(y(1), y(1) ** 2, G2P, 2)
    bits = pair.bits
    p = y(1, -7).scale(2**bits) - y(1, -8)
    row = {_code(mon, pair.layout): c.nums for mon, c in p.terms}
    den, packed, top = pair._pack(row, 1)
    assert (den, packed, top) == (1, 0, 2**bits)
