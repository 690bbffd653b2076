"""Twisted fields, twisted-module axioms, the twisted quadratic identity,
and descent of jet equations into field coefficients.  Frozen coefficients
come from expanding the generator field x -> sum x[n] z^{-n} over the coset
alpha/m + Z by hand and differentiating in z.
"""

from fractions import Fraction

import pytest

from jetva import twisted
from jetva.cyclo import zeta_pow
from jetva.jetpoly import JetPoly, PuiseuxSeries, TruncationError, divided_t_power
from jetva.jetscheme import DiagAutomorphism, SchemeSpec
from jetva.reports import all_passed
from jetva.twisted import (
    check_descent,
    check_twisted_axioms,
    check_twisted_borcherds,
    twisted_field,
)
from jetva.va import check_borcherds, vertex_op


def y(i, level=0, m=2):
    return JetPoly.var(m, i, level)


G2 = DiagAutomorphism(2, (1,))
G2P = DiagAutomorphism(2, (1, 0))


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def test_generator_field_frozen():
    s = twisted_field(y(1), G2, Fraction(5, 2))
    assert {str(w): str(p) for w, p in s.coeffs} == {
        "1/2": "x1[-1/2]",
        "3/2": "x1[-3/2]",
        "5/2": "x1[-5/2]",
    }


def test_derivative_field_frozen():
    # Y(x[-1]) = d/dz Y(x): coefficient of z^(n-1) picks up a factor n
    s = twisted_field(y(1, -1), G2, Fraction(5, 2))
    assert {str(w): str(p) for w, p in s.coeffs} == {
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


def test_modes_and_window_guard():
    f = twisted_field(y(1), G2, Fraction(5, 2))
    assert str(f.mode(Fraction(-3, 2))) == "x1[-1/2]"
    assert f.mode(Fraction(1, 2)).is_zero
    with pytest.raises(TruncationError):
        f.mode(Fraction(-9, 2))
    # off-coset modes act as exact zero on the twisted module
    assert f.mode(0).is_zero


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
        assert all_passed(results), [r for r in results if not r.passed]


def test_axioms_catch_support_coset():
    results = check_twisted_axioms(y(1), y(1), G2, 4)
    coset = [r for r in results if "coset" in r.name]
    assert coset and all(r.passed for r in coset)


# ---------------------------------------------------------------------------
# twisted quadratic identity
# ---------------------------------------------------------------------------


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
    pl = vertex_op(a, 4)
    assert tw.coeffs == pl.coeffs
    # modes coincide
    for n in range(-4, 2):
        assert twisted_field(a, g1, 5).mode(n) == vertex_op(a, 5).mode(n)
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
    coefficient; every other field is left as it is."""
    real = twisted.twisted_field

    def perturbed(a, g, window, spec=None):
        fld = real(a, g, window, spec)
        if a != source:
            return fld
        coeffs = dict(fld.coeffs)
        coeffs[exponent] = fld.coefficient(exponent) + extra
        return PuiseuxSeries.from_dict(a.order, coeffs, fld.trunc)

    monkeypatch.setattr(twisted, "twisted_field", perturbed)


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


def test_borcherds_zero_factor_settles_a_truncated_product():
    a, b = y(1), y(1) ** 2
    # At window 0, a_(-3/2) needs z^(1/2), beyond the window; b_(-1) is the
    # z^0 coefficient of Y_g(x1^2), exactly zero, so a_(-3/2) b_(-1) is zero.
    fa, fb = twisted_field(a, G2P, 0), twisted_field(b, G2P, 0)
    assert fa.known_mode(Fraction(-3, 2)) is None
    assert fb.known_mode(-1).is_zero
    assert check_twisted_borcherds(a, b, G2P, 0, Fraction(-3, 2), -1, 0).passed
    # b_(-2), at z^1, lies beyond the window too: nothing settles the
    # product, and the first factor raises.
    with pytest.raises(TruncationError, match=r"z\^1/2 is beyond the window \(trunc 0\)"):
        check_twisted_borcherds(a, b, G2P, 0, Fraction(-3, 2), -2, 0)


# ---------------------------------------------------------------------------
# descent of jet equations
# ---------------------------------------------------------------------------


def test_descent_parabola():
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    for n in range(0, 3):
        results = check_descent(spec, G2P, 1, n, 4 - n)
        assert all_passed(results), (n, [r for r in results if not r.passed])


def test_descent_cusp_order3():
    x1 = JetPoly.var(3, 1)
    x2 = JetPoly.var(3, 2)
    spec = SchemeSpec.of(3, 2, [x1 ** 3 - x2 ** 2])
    g = DiagAutomorphism(3, (2, 0))  # 3*2 = 2*0 + 6 = 0 mod 3: eigenvector
    for n in range(0, 2):
        results = check_descent(spec, g, 1, n, 3 - n)
        assert all_passed(results), (n, [r for r in results if not r.passed])


@pytest.mark.parametrize(
    "extra, witness",
    [(y(2, -3), "z^1: x2[-3]"), (y(2, -9), "z^1: x2[-9]")],
    ids=["monomial-of-a-generator", "monomial-of-no-generator"],
)
def test_descent_fails_on_a_perturbed_field(monkeypatch, extra, witness):
    # x2[-3] is a monomial of the weight-3 generator; no generator has x2[-9].
    spec = SchemeSpec.of(2, 2, [y(1, m=2) ** 2 - y(2, m=2)])
    n = 1
    _perturb_field(monkeypatch, divided_t_power(spec.relations[0], n), Fraction(1), extra)
    results = check_descent(spec, G2P, 1, n, 3)
    assert _failures(results) == {
        "descent coefficients: rel 1, translate 1": witness,
        "descent span: rel 1, translate 1, coefficients in the twisted "
        "generator span": "coefficient at z^1",
    }


def test_descent_rejects_bad_relation_index():
    spec = SchemeSpec.of(2, 1, [y(1) ** 2])
    with pytest.raises(ValueError):
        check_descent(spec, G2, 2, 0, 3)
