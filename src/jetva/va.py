"""The commutative vertex algebra carried by a jet polynomial ring.

State space V is the polynomial ring in the untwisted jet variables; the
vertex operator is Y(a, z) = e^(zT) a acting by multiplication, so every
mode a_(n) is multiplication by the element T^(-n-1)(a)/(-n-1)! for
n <= -1 and zero for n >= 0.  The checkers below verify the axioms and the
Borcherds identity as exact polynomial identities applied to the vacuum;
every sum is finite and the code works out the support bounds itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .jetpoly import (
    JetPoly,
    PuiseuxSeries,
    apply_automorphism,
    derivation_T,
    divided_t_power,
    translation_series,
)
from .jetscheme import DiagAutomorphism
from .reports import CheckResult
from .twisted import check_twisted_borcherds

ModeIndex = Union[int, Fraction]


def _require_untwisted(a: JetPoly) -> None:
    for v in a.variables():
        if v.point != 0 or v.level.denominator != 1:
            raise ValueError(f"not an untwisted jet polynomial (variable {v})")


def vertex_op(a: JetPoly, window) -> PuiseuxSeries:
    """Y(a, z) = sum_{n>=0} T^n(a)/n! z^n, truncated at the window: the
    translation series of an untwisted source.  Its mode(n) is a windowed
    plain mode."""
    _require_untwisted(a)
    return translation_series(a, window)


def mode(a: JetPoly, n: ModeIndex) -> JetPoly:
    """The multiplication element a_(n) 1: T^(-n-1)(a)/(-n-1)! for n <= -1,
    zero otherwise."""
    _require_untwisted(a)
    if Fraction(n).denominator != 1:
        raise ValueError("untwisted mode index must be an integer")
    n = int(n)
    if n >= 0:
        return JetPoly.zero(a.order)
    return divided_t_power(a, -n - 1)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


# The mode indices n at which equivariance compares g(a)_(n) g(b), g(a_(n) b).
_EQUIVARIANCE_MODES = range(-3, 2)


def check_va_axioms(a: JetPoly, window, alpha=None, samples=None) -> list[CheckResult]:
    """Translation, vacuum, creation, multiplicativity, and (when an
    automorphism exponent vector is supplied) equivariance of modes."""
    W = Fraction(window)
    m = a.order
    out: list[CheckResult] = []

    lhs = vertex_op(derivation_T(a), W)
    rhs = vertex_op(a, W + 1).differentiate()
    bad = lhs.first_mismatch(rhs)
    out.append(CheckResult("translation: Y(Ta,z) = d/dz Y(a,z)", bad is None, bad))

    one = JetPoly.one(m)
    vac = vertex_op(one, W)
    vac_ok = vac.support() == (Fraction(0),) and vac.coefficient(0) == one
    out.append(CheckResult("vacuum: Y(1,z) = id", vac_ok, None if vac_ok else str(vac)))

    created = mode(a, -1)
    ya = vertex_op(a, W)
    no_neg = all(w >= 0 for w in ya.support())
    crea_ok = no_neg and created == a
    out.append(
        CheckResult(
            "creation: Y(a,z)1 regular and a_(-1)1 = a",
            crea_ok,
            None if crea_ok else str(created - a),
        )
    )

    for b in samples or [one, a]:
        prod = vertex_op(a * b, W)
        split = ya * vertex_op(b, W)
        bad = prod.first_mismatch(split)
        out.append(
            CheckResult(
                f"multiplicative: Y(ab,z) = Y(a,z)Y(b,z) [b = {b}]", bad is None, bad
            )
        )

    if alpha is not None:
        ga = apply_automorphism(alpha, a)
        # (n, g(a)_(n), a_(n)): no sample changes them.
        modes = [(n, mode(ga, n), mode(a, n)) for n in _EQUIVARIANCE_MODES]
        for b in samples or [one, a]:
            gb = apply_automorphism(alpha, b)
            for n, ga_n, a_n in modes:
                lhs_p = ga_n * gb
                rhs_p = apply_automorphism(alpha, a_n * b)
                ok = lhs_p == rhs_p
                out.append(
                    CheckResult(
                        f"equivariance: g(a)_({n}) g(b) = g(a_({n}) b) [b = {b}]",
                        ok,
                        None if ok else str(lhs_p - rhs_p),
                    )
                )
                if not ok:
                    break
    return out


def check_borcherds(
    a: JetPoly,
    b: JetPoly,
    m_idx: int,
    n_idx: int,
    k_idx: int,
    window,
) -> CheckResult:
    """Borcherds identity evaluated on the vacuum, all modes exact.

    sum_j C(m,j) (a_(n+j) b)_(m+k-j)
      = sum_j (-1)^j C(n,j) [ a_(m+n-j) b_(k+j) - (-1)^n b_(n+k-j) a_(m+j) ]

    This is the twisted identity at the trivial symmetry, whose module is
    the jet ring itself, with (l, m, n) there = (n, m, k) here.
    """
    for idx in (m_idx, n_idx, k_idx):
        if not isinstance(idx, int):
            raise ValueError("untwisted Borcherds indices must be integers")
    top = max((v.index for p in (a, b) for v in p.variables()), default=0)
    g1 = DiagAutomorphism(a.order, (0,) * top)
    res = check_twisted_borcherds(a, b, g1, n_idx, m_idx, k_idx, window)
    name = f"borcherds(m={m_idx}, n={n_idx}, k={k_idx})"
    return CheckResult(name, res.passed, res.witness)
