"""Exact cyclotomic scalar arithmetic.

Reference values were computed by hand from the defining polynomials:
Phi_1 = z - 1, Phi_2 = z + 1, Phi_3 = z^2 + z + 1, Phi_4 = z^2 + 1,
Phi_6 = z^2 - z + 1, Phi_12 = z^4 - z^2 + 1.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva.cyclo import (
    CycScalar,
    FieldMismatchError,
    _inverse_by_norm,
    cyclotomic_poly,
    euler_phi,
    zeta_pow,
)


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_relations_by_order():
    # zeta_2 = -1
    assert zeta_pow(2, 1) == CycScalar.from_rational(2, -1)
    # zeta_3^2 = -1 - zeta_3 (from Phi_3)
    z3 = CycScalar.zeta(3)
    assert z3 * z3 == CycScalar.from_rational(3, -1) - z3
    # zeta_4^2 = -1
    z4 = CycScalar.zeta(4)
    assert z4 * z4 == CycScalar.from_rational(4, -1)
    # zeta_6 satisfies z^2 = z - 1
    z6 = CycScalar.zeta(6)
    assert z6 * z6 == z6 - CycScalar.one(6)


def test_zeta_power_cycles():
    for m in (1, 2, 3, 4, 5, 6, 12):
        assert zeta_pow(m, m) == CycScalar.one(m)
        assert zeta_pow(m, -1) == zeta_pow(m, m - 1)


def test_inverse_frozen_example():
    # (1 + zeta_4)^-1 = (1 - zeta_4)/2
    z = CycScalar.zeta(4)
    a = CycScalar.one(4) + z
    inv = a.inverse()
    assert inv == (CycScalar.one(4) - z) * CycScalar.from_rational(4, Fraction(1, 2))
    assert a * inv == CycScalar.one(4)


@pytest.mark.parametrize("m", range(1, 13))
def test_rational_inverse_matches_the_norm_formula(m):
    # A rational scalar takes the direct den/num path; the general formula
    # through the product of Galois conjugates must give the same scalar.
    for q in (1, -1, 3, -4, Fraction(2, 3), Fraction(-5, 6), Fraction(-1, 7)):
        a = CycScalar.from_rational(m, q)
        inv = a.inverse()
        assert inv == _inverse_by_norm(m, a.nums, a.den)
        assert inv == CycScalar.from_rational(m, 1 / Fraction(q))
        assert inv.den > 0 and math.gcd(inv.den, *inv.nums) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(5).inverse()


def test_mixed_orders_rejected():
    with pytest.raises(FieldMismatchError):
        CycScalar.one(2) + CycScalar.one(3)


def test_rational_detection():
    z = CycScalar.zeta(3)
    assert not z.is_rational()
    # zeta_3 + zeta_3^2 = -1 is rational
    s = z + z * z
    assert s.is_rational() and s.as_rational() == -1


def test_string_forms():
    # zeta^4 = zeta^2 - 1 in order 12, so the constant term shifts by one
    z = CycScalar.zeta(12)
    assert str(CycScalar.from_rational(12, Fraction(1, 2)) + 3 * z - z ** 4) == (
        "3/2 + 3*zeta - zeta^2"
    )
    assert str(-z) == "-1*zeta"
    assert str(CycScalar.zero(12)) == "0"


def _fraction_str(c: CycScalar) -> str:
    """The printed form of a scalar, worked out on its Fraction coordinates."""
    parts = []
    for j, q in enumerate(c.coeffs):
        if not q:
            continue
        mon = "" if j == 0 else "zeta" if j == 1 else f"zeta^{j}"
        if not mon:
            body = str(q)
        elif q == 1:
            body = mon
        elif q == -1:
            body = f"-{mon}"
        else:
            body = f"{q}*{mon}"
        if not parts:
            parts.append(f"-1*{mon}" if q == -1 and mon else body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts) if parts else "0"


# Units, zeros and coordinates whose reduced denominators differ, so that
# the common denominator must be cancelled coordinate by coordinate.
_printed_coords = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
_printed_scalars = st.sampled_from([1, 2, 3, 4, 5, 6, 8]).flatmap(
    lambda m: st.lists(
        _printed_coords, min_size=euler_phi(m), max_size=euler_phi(m)
    ).map(lambda cs: CycScalar(m, cs))
)


@settings(max_examples=300, deadline=None)
@given(c=_printed_scalars)
def test_string_form_matches_the_fraction_coordinates(c):
    assert str(c) == _fraction_str(c)


def _scalars(order: int):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    return st.lists(
        coeff, min_size=euler_phi(order), max_size=euler_phi(order)
    ).map(lambda cs: CycScalar(order, tuple(cs)))


@settings(max_examples=60, deadline=None)
@given(a=_scalars(12), b=_scalars(12), c=_scalars(12))
def test_field_axioms_order_12(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(a=_scalars(12))
def test_inverse_roundtrip_order_12(a):
    if not a:
        return
    assert a * a.inverse() == CycScalar.one(12)


@settings(max_examples=40, deadline=None)
@given(a=_scalars(5), k=st.integers(min_value=0, max_value=8))
def test_pow_matches_repeated_product(a, k):
    expected = CycScalar.one(5)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


_rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=80, deadline=None)
@given(
    c=st.sampled_from([1, 2, 3, 4, 5, 12]).flatmap(_scalars), q=_rationals
)
def test_rational_operand_shortcut_matches_full_product(c, q):
    m = c.order
    full = CycScalar.from_rational(m, q)
    assert c * q == c * full
    assert q * c == full * c
    assert c + q == c + full
    assert q + c == full + c
    assert c - q == c - full
    assert q - c == full - c
    if c:
        assert q / c == full * c.inverse()


# ---------------------------------------------------------------------------
# the integer-coded scalars against a Fraction-coordinate reference
# ---------------------------------------------------------------------------

_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12)  # phi from 1 to 6


def _ref_reduce(coeffs, m):
    """Dense Fraction polynomial modulo Phi_m, padded to phi(m)."""
    phi, mod = euler_phi(m), cyclotomic_poly(m)
    work = [Fraction(c) for c in coeffs] + [Fraction(0)] * phi
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            for j, d in enumerate(mod):
                work[i - phi + j] -= c * d
    return tuple(work[:phi])


def _ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, m)


def _rational(m, q):
    return (Fraction(q),) + (Fraction(0),) * (euler_phi(m) - 1)


def _assert_canonical(s):
    m = s.order
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == euler_phi(m)
    assert all(type(a) is int for a in (*s.nums, s.den))
    assert bool(s) == (s != CycScalar.zero(m))
    if not s:
        assert s.nums == (0,) * euler_phi(m) and s.den == 1
    rebuilt = CycScalar(m, s.coeffs)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    assert (rebuilt.nums, rebuilt.den) == (s.nums, s.den)


@settings(max_examples=150, deadline=None)
@given(
    ab=st.sampled_from(_ORDERS).flatmap(
        lambda m: st.tuples(_scalars(m), _scalars(m))
    ),
    q=_rationals,
)
def test_integer_scalars_match_the_fraction_reference(ab, q):
    a, b = ab
    m = a.order
    A, B, Q = a.coeffs, b.coeffs, _rational(m, q)
    cases = [
        (a + b, tuple(x + y for x, y in zip(A, B))),
        (a - b, tuple(x - y for x, y in zip(A, B))),
        (a * b, _ref_mul(A, B, m)),
        (-a, tuple(-x for x in A)),
        (a + q, tuple(x + y for x, y in zip(A, Q))),
        (q + a, tuple(x + y for x, y in zip(A, Q))),
        (a - q, tuple(x - y for x, y in zip(A, Q))),
        (q - a, tuple(y - x for x, y in zip(A, Q))),
        (a * q, tuple(x * Fraction(q) for x in A)),
        (q * a, tuple(x * Fraction(q) for x in A)),
    ]
    if a:
        inv = a.inverse()
        cases.append((a * inv, _rational(m, 1)))
        assert _ref_mul(A, inv.coeffs, m) == _rational(m, 1)
    for got, want in cases:
        assert got.order == m
        assert got.coeffs == want
        _assert_canonical(got)
    _assert_canonical(a)


def test_scalars_are_immutable_and_coordinates_checked():
    z = CycScalar.zeta(4)
    with pytest.raises(AttributeError):
        z.den = 2
    with pytest.raises(AttributeError):
        del z.nums
    with pytest.raises(ValueError):
        CycScalar(4, (1, 2, 3))
    assert CycScalar(4, (Fraction(2, 4), 3)).nums == (1, 6)
    assert CycScalar(4, (Fraction(2, 4), 3)).den == 2
    assert pickle.loads(pickle.dumps(z)) == z
