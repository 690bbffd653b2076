"""Weight-shift derivations and their exact commutator algebra.  Single-
variable values were computed directly from L_b x[l] = -(l+b) x[l+b].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva import quasiconf
from jetva.jetpoly import JetPoly
from jetva.jetscheme import DiagAutomorphism
from jetva.quasiconf import L_op, Ltilde_op, check_commutators


def x(i, level=0, m=1):
    return JetPoly.var(m, i, level)


# ---------------------------------------------------------------------------
# single-variable values
# ---------------------------------------------------------------------------


def test_frozen_values_plain():
    assert str(L_op(1, x(1, -3))) == "2*x1[-2]"
    assert str(L_op(2, x(1, -3))) == "x1[-1]"
    assert L_op(3, x(1, -3)).is_zero  # level would reach 0
    assert L_op(4, x(1, -3)).is_zero
    assert str(L_op(0, x(1, -3))) == "3*x1[-3]"
    assert str(L_op(0, x(1, -2) * x(2, -1))) == "3*x1[-2]*x2[-1]"


def test_frozen_values_twisted():
    g = DiagAutomorphism(2, (1,))
    v = x(1, Fraction(-3, 2), m=2)
    assert str(Ltilde_op(1, v, g)) == "x1[-1/2]"
    assert Ltilde_op(2, v, g).is_zero
    assert str(Ltilde_op(0, v, g)) == "3*x1[-3/2]"  # 2 * weight 3/2


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        L_op(-1, x(1, -3))
    with pytest.raises(ValueError):
        Ltilde_op(-2, x(1, Fraction(-1, 2), m=2), DiagAutomorphism(2, (1,)))


def test_leibniz_rule():
    a = x(1, -1) * x(2, -2)
    b = x(1) + x(2, -3)
    for idx in range(0, 3):
        lhs = L_op(idx, a * b)
        rhs = L_op(idx, a) * b + a * L_op(idx, b)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order,exponents", [(1, (0,)), (2, (1, 0)), (3, (1, 2))])
def test_commutator_sweep(order, exponents):
    results = check_commutators(DiagAutomorphism(order, exponents), 3, 4)
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_commutator_sweep_shifts_each_polynomial_once_per_family(monkeypatch):
    # The brackets read L_b of each test vector and of its images many
    # times; each family works out each distinct (b, p) once, and gives
    # the results it gave without the memo.
    g = DiagAutomorphism(4, (1, 1))
    want = check_commutators(g, 2, 3)
    shifts = []
    real = quasiconf.shift_derivation

    def counted(p, b, factor):
        shifts.append((p, b, factor))
        return real(p, b, factor)

    monkeypatch.setattr(quasiconf, "shift_derivation", counted)
    assert check_commutators(g, 2, 3) == want
    assert shifts and len(set(shifts)) == len(shifts)


def test_bracket_orientation_explicit():
    # [L_1, L_2] = (2-1) L_3 evaluated as L_2(L_1 p) - L_1(L_2 p)
    p = x(1, -5)
    lhs = L_op(2, L_op(1, p)) - L_op(1, L_op(2, p))
    assert lhs == L_op(3, p)
    assert str(lhs) == "2*x1[-2]"


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    lv=st.integers(min_value=1, max_value=6),
)
def test_bracket_property_single_variables(a, b, lv):
    p = x(1, -lv)
    lhs = L_op(b, L_op(a, p)) - L_op(a, L_op(b, p))
    assert lhs == L_op(a + b, p).scale(b - a)


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    num=st.integers(min_value=0, max_value=5),
)
def test_twisted_bracket_property(a, b, num):
    g = DiagAutomorphism(2, (1,))
    p = x(1, -num - Fraction(1, 2), m=2)
    lhs = Ltilde_op(b, Ltilde_op(a, p, g), g) - Ltilde_op(a, Ltilde_op(b, p, g), g)
    assert lhs == Ltilde_op(a + b, p, g).scale(2 * (b - a))
