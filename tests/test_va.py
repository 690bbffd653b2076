"""State-field correspondence on jet polynomials and the quadratic mode
identity that pins down the whole operator algebra.  Mode values below were
computed by hand from the divided-power formula a_(-n-1) b = (T^n a / n!) b.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva.jetpoly import JetPoly, TruncationError, divided_t_power
from jetva.reports import all_passed
from jetva.va import check_borcherds, check_va_axioms, mode, vertex_op


def x(i, level=0):
    return JetPoly.var(1, i, level)


# ---------------------------------------------------------------------------
# fields and modes
# ---------------------------------------------------------------------------


def test_field_of_generator_frozen():
    s = vertex_op(x(1), 4)
    assert {w: str(p) for w, p in s.coeffs} == {
        Fraction(0): "x1[0]",
        Fraction(1): "x1[-1]",
        Fraction(2): "x1[-2]",
        Fraction(3): "x1[-3]",
        Fraction(4): "x1[-4]",
    }


def test_field_of_square_frozen():
    s = vertex_op(x(1) ** 2, 3)
    assert {w: str(p) for w, p in s.coeffs} == {
        Fraction(0): "x1[0]^2",
        Fraction(1): "2*x1[0]*x1[-1]",
        Fraction(2): "2*x1[0]*x1[-2] + x1[-1]^2",
        Fraction(3): "2*x1[0]*x1[-3] + 2*x1[-1]*x1[-2]",
    }


def test_modes_are_divided_powers():
    a = x(1) * x(2, -1)
    for n in range(-5, 0):
        assert mode(a, n) == divided_t_power(a, -n - 1)
    for n in range(0, 4):
        assert mode(a, n).is_zero


def test_mode_window_guard():
    a = x(1)
    assert str(mode(a, -3, window=5)) == "x1[-2]"
    with pytest.raises(TruncationError):
        mode(a, -7, window=5)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_on_rich_sample():
    sources = [x(1), x(2) ** 2, x(1) * x(2, -1) + x(1, -2)]
    for a in sources:
        results = check_va_axioms(a, 6, samples=sources)
        assert all_passed(results), [r for r in results if not r.passed]


def test_axioms_with_symmetry():
    # order-4 scalars, the symmetry scales x1 by zeta and x2 by zeta^2
    y1 = JetPoly.var(4, 1)
    y2 = JetPoly.var(4, 2, -1)
    results = check_va_axioms(y1 * y2, 6, alpha=(1, 2), samples=[y1, y2])
    assert all_passed(results)
    assert any("equivariance" in r.name for r in results)


# ---------------------------------------------------------------------------
# quadratic identity
# ---------------------------------------------------------------------------


def test_borcherds_known_nonzero_instance():
    a, b = x(1) ** 2, x(1)
    res = check_borcherds(a, b, -1, -1, -1, 8)
    assert res.passed
    # the instance is not vacuous: its leading term a_(-1)b = x^3 has a
    # nonzero (-2) mode, namely T(x^3) = 3 x[0]^2 x[-1]
    assert str(mode(a * b, -2)) == "3*x1[0]^2*x1[-1]"


def test_borcherds_odd_negative_n_regression():
    # regression: signs for negative odd n must use integer parity, not a
    # floating-point power
    for triple in [(-1, -3, 0), (0, -5, -1), (-2, -3, -2)]:
        assert check_borcherds(x(1), x(2) ** 2, *triple, 10).passed


def test_borcherds_full_box():
    a = x(1) * x(2)
    b = x(2, -1)
    for m_idx in range(-3, 3):
        for n_idx in range(-3, 3):
            for k_idx in range(-3, 3):
                res = check_borcherds(a, b, m_idx, n_idx, k_idx, 12)
                assert res.passed, (m_idx, n_idx, k_idx, res)


def test_borcherds_zero_partner_mode_settles_product():
    # at m = -3, n = k = 0 each product on the right pairs a_(-3), past
    # window 0, with b_(0) = 0; the zero factor settles the product
    res = check_borcherds(x(1), x(1), -3, 0, 0, 0)
    assert res.passed
    assert res.name == "borcherds(m=-3, n=0, k=0)"


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    m_idx=st.integers(min_value=-2, max_value=2),
    n_idx=st.integers(min_value=-2, max_value=2),
    k_idx=st.integers(min_value=-2, max_value=2),
)
def test_borcherds_random_states(seed, m_idx, n_idx, k_idx):
    rng = random.Random(seed)
    def rand_state():
        p = JetPoly.one(1)
        for _ in range(rng.randint(1, 2)):
            p = p * x(rng.randint(1, 2), -rng.randint(0, 2))
        return p

    res = check_borcherds(rand_state(), rand_state(), m_idx, n_idx, k_idx, 12)
    assert res.passed
