"""State-field correspondence on jet polynomials and the quadratic mode
identity that pins down the whole operator algebra.  Mode values below were
computed by hand from the divided-power formula a_(-n-1) b = (T^n a / n!) b.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva import jetpoly, twisted, va
from jetva.jetpoly import (
    JetPoly,
    TruncationError,
    apply_automorphism,
    divided_t_power,
    translation_series,
)
from jetva.reports import CheckResult
from jetva.va import check_borcherds, check_va_axioms, mode, vertex_op


def x(i, level=0):
    return JetPoly.var(1, i, level)


# ---------------------------------------------------------------------------
# fields and modes
# ---------------------------------------------------------------------------


def test_field_of_generator_frozen():
    s = vertex_op(x(1), 4)
    assert {w: str(s.coefficient(w)) for w in s.support()} == {
        Fraction(0): "x1[0]",
        Fraction(1): "x1[-1]",
        Fraction(2): "x1[-2]",
        Fraction(3): "x1[-3]",
        Fraction(4): "x1[-4]",
    }


def test_field_of_square_frozen():
    s = vertex_op(x(1) ** 2, 3)
    assert {w: str(s.coefficient(w)) for w in s.support()} == {
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
    assert str(vertex_op(a, 5).mode(-3)) == "x1[-2]"
    with pytest.raises(TruncationError):
        vertex_op(a, 5).mode(-7)


@pytest.mark.parametrize(
    "source",
    [JetPoly.var(2, 1, Fraction(-1, 2)), JetPoly.var(1, 1, -1, point=1)],
    ids=["twisted", "point-1"],
)
def test_mode_rejects_what_vertex_op_rejects(source):
    # a twisted level or a variable at infinity has no plain field
    for reject in (lambda a: vertex_op(a, 3), lambda a: mode(a, -2)):
        with pytest.raises(ValueError, match="not an untwisted jet polynomial"):
            reject(source)


def _count_translations(monkeypatch) -> list:
    jetpoly._translate_chain.cache_clear()
    calls = []
    real = jetpoly.derivation_T

    def counted(p):
        calls.append(p)
        return real(p)

    for module in (jetpoly, twisted):
        monkeypatch.setattr(module, "derivation_T", counted)
    return calls


@pytest.mark.parametrize("window", [0, 1, Fraction(5, 2), 4])
def test_translation_series_translates_floor_window_times(monkeypatch, window):
    # T^n(a)/n! is computed for n = 0..floor(W) and no further; the series
    # has order 1, so its window is floor(W) too
    calls = _count_translations(monkeypatch)
    s = translation_series(x(1) * x(2, -1), window)
    assert len(calls) == math.floor(window)
    assert s.trunc == math.floor(window)
    assert s.support() == tuple(Fraction(n) for n in range(math.floor(window) + 1))


def test_vertex_op_is_built_by_substitution(monkeypatch):
    # Y(a, z) is the twisted field at the trivial symmetry: no translate
    calls = _count_translations(monkeypatch)
    jetpoly._expansion_memo.cache_clear()
    a = x(1) * x(2, -1)
    s = vertex_op(a, 4)
    assert calls == []
    assert s == translation_series(a, 4)


def test_repeated_translation_series_applies_T_no_more(monkeypatch):
    calls = _count_translations(monkeypatch)
    a = x(1) ** 2 * x(2, -1)
    first = translation_series(a, 5)
    assert len(calls) == 5
    assert translation_series(a, 5) == first
    assert len(calls) == 5


def test_divided_t_power_reads_the_translation_series_memo(monkeypatch):
    calls = _count_translations(monkeypatch)
    a = x(1) ** 2 * x(2, -1)
    s = translation_series(a, Fraction(7, 2))
    calls.clear()
    for n in range(4):
        assert divided_t_power(a, n) == s.coefficient(n)
    assert calls == []


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axioms_on_rich_sample():
    sources = [x(1), x(2) ** 2, x(1) * x(2, -1) + x(1, -2)]
    for a in sources:
        results = check_va_axioms(a, 6, samples=sources)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_axioms_with_symmetry():
    # order-4 scalars, the symmetry scales x1 by zeta and x2 by zeta^2
    y1 = JetPoly.var(4, 1)
    y2 = JetPoly.var(4, 2, -1)
    results = check_va_axioms(y1 * y2, 6, alpha=(1, 2), samples=[y1, y2])
    assert all(r.passed for r in results)
    assert any("equivariance" in r.name for r in results)


def test_axioms_read_samples_given_as_an_iterator_once():
    # An iterator of samples used to be spent by the multiplicative checks,
    # leaving the equivariance checks none: 5 results instead of 15.
    y1 = JetPoly.var(4, 1)
    y2 = JetPoly.var(4, 2, -1)
    listed = check_va_axioms(y1 * y2, 6, alpha=(1, 2), samples=[y1, y2])
    streamed = check_va_axioms(y1 * y2, 6, alpha=(1, 2), samples=iter([y1, y2]))
    assert streamed == listed
    assert len(streamed) == 15
    assert sum(r.name.startswith("equivariance") for r in streamed) == 10


def test_axiom_names_are_frozen():
    y1 = JetPoly.var(4, 1)
    y2 = JetPoly.var(4, 2, -1)
    results = check_va_axioms(y1 * y2, 6, alpha=(1, 2), samples=[y1, y2])
    assert [r.name for r in results] == [
        "translation: Y(Ta,z) = d/dz Y(a,z)",
        "vacuum: Y(1,z) = id",
        "creation: Y(a,z)1 regular and a_(-1)1 = a",
        "multiplicative: Y(ab,z) = Y(a,z)Y(b,z) [b = x1[0]]",
        "multiplicative: Y(ab,z) = Y(a,z)Y(b,z) [b = x2[-1]]",
    ] + [
        f"equivariance: g(a)_({n}) g(b) = g(a_({n}) b) [b = {b}]"
        for b in ("x1[0]", "x2[-1]")
        for n in range(-3, 2)
    ]


@pytest.mark.parametrize(
    "a, samples",
    [(JetPoly.var(2, 2), None), (JetPoly.var(2, 1), [JetPoly.var(2, 2, -1)])],
    ids=["source", "sample"],
)
def test_axioms_refuse_a_coordinate_beyond_alpha(monkeypatch, a, samples):
    # alpha has one exponent; x2's used to be read past its end by the
    # equivariance checks, a bare IndexError after every other check ran.
    ran = []
    monkeypatch.setattr(va, "check_translation", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="^no exponent known for coordinate 2$"):
        check_va_axioms(a, 3, alpha=(1,), samples=samples)
    assert ran == []


def test_plain_axioms_build_no_field_past_the_translation_window(monkeypatch):
    # At the trivial symmetry no field has a pole, so the multiplicative
    # factors are read to W; only the translation check reads W + 1.
    # At order 1 the int tops are the windows.  The memo builds a field
    # only at a window read, so none is built past W + 1.
    tops = []
    real = twisted.expansion

    def recorded(a, exponents, top, layout=None):
        tops.append(top)
        return real(a, exponents, top, layout)

    monkeypatch.setattr(twisted, "expansion", recorded)
    sources = [x(1), x(2) ** 2, x(1) * x(2, -1) + x(1, -2)]
    for a in sources:
        assert all(r.passed for r in check_va_axioms(a, 4, samples=sources))
    assert set(tops) == {4, 5}


def test_axioms_with_no_samples_check_no_sample():
    # An empty list is not the default [1, a]: no multiplicative or
    # equivariance check runs.
    y1 = JetPoly.var(4, 1)
    results = check_va_axioms(y1, 6, alpha=(1, 2), samples=[])
    assert [r.name for r in results] == [
        "translation: Y(Ta,z) = d/dz Y(a,z)",
        "vacuum: Y(1,z) = id",
        "creation: Y(a,z)1 regular and a_(-1)1 = a",
    ]
    assert all(r.passed for r in results)


def test_equivariance_fails_on_a_perturbed_mode(monkeypatch):
    # a stray term in g(a)_(-2) breaks equivariance at n = -2 for every
    # sample, and each sample's checks stop there; nothing else fails
    y1 = JetPoly.var(4, 1)
    y2 = JetPoly.var(4, 2, -1)
    a = y1 * y2
    alpha = (1, 2)
    ga = apply_automorphism(alpha, a)
    stray = JetPoly.var(4, 2, -3)
    real = va.mode

    def perturbed(p, n):
        out = real(p, n)
        return out + stray if n == -2 and p == ga else out

    monkeypatch.setattr(va, "mode", perturbed)
    results = check_va_axioms(a, 6, alpha=alpha, samples=[y1, y2])
    assert [(r.name, r.witness) for r in results if not r.passed] == [
        (
            "equivariance: g(a)_(-2) g(b) = g(a_(-2) b) [b = x1[0]]",
            "(zeta)*x1[0]*x2[-3]",
        ),
        (
            "equivariance: g(a)_(-2) g(b) = g(a_(-2) b) [b = x2[-1]]",
            "-x2[-1]*x2[-3]",
        ),
    ]
    assert [r.name for r in results if r.name.startswith("equivariance")] == [
        f"equivariance: g(a)_({n}) g(b) = g(a_({n}) b) [b = {b}]"
        for b in (y1, y2)
        for n in (-3, -2)
    ]


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


def test_a_plain_borcherds_check_builds_one_result(monkeypatch):
    # One CheckResult per check, passing or failing: the plain check does
    # not rebuild a twisted result under its own name.
    made = []
    real = CheckResult.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CheckResult, "__init__", counted)
    res = check_borcherds(x(1) ** 2, x(1), -1, -1, -1, 8)
    assert res.passed and made == [("borcherds(m=-1, n=-1, k=-1)", True, None)]


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


def test_borcherds_reads_the_fields_the_axiom_checks_built(substitutions):
    # The axiom checks run at the trivial symmetry of a and both samples,
    # three coordinates long, the Borcherds check at that of a alone, one
    # long.  Both read the fields of a and a^2 on x1's exponent alone.
    a = JetPoly.var(2, 1) * JetPoly.var(2, 1, -1)
    assert all(r.passed for r in check_va_axioms(a, 3, samples=[a, JetPoly.var(2, 3)]))
    built = len(substitutions)
    assert check_borcherds(a, a, -1, -1, -1, 3).passed
    assert len(substitutions) == built


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: mode(JetPoly.var(2, 1), Fraction(1, 2)),
            "untwisted mode index must be an integer",
        ),
        (
            lambda: check_borcherds(
                JetPoly.var(2, 1), JetPoly.var(2, 1), Fraction(1, 2), 0, 0, 2
            ),
            "untwisted Borcherds indices must be integers",
        ),
        # A bool index used to pass and be printed as "m=True".
        (
            lambda: check_borcherds(JetPoly.var(2, 1), JetPoly.var(2, 1), True, -1, 0, 2),
            "untwisted Borcherds indices must be integers",
        ),
        (
            lambda: check_borcherds(JetPoly.var(2, 1), JetPoly.var(2, 1), 0, -1, False, 2),
            "untwisted Borcherds indices must be integers",
        ),
        # The lowest twisted variable is named, whatever the order of the
        # variable set; it used to read x2[-1/2].
        (
            lambda: mode(
                JetPoly.var(2, 1, Fraction(-1, 2))
                * JetPoly.var(2, 2, Fraction(-1, 2))
                * JetPoly.var(2, 3, Fraction(-3, 2)),
                -1,
            ),
            "not an untwisted jet polynomial (variable x1[-1/2])",
        ),
    ],
    ids=["mode", "borcherds", "borcherds-m-bool", "borcherds-k-bool", "mode-lowest-twisted"],
)
def test_untwisted_refusals_are_frozen(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
