"""The commutative vertex algebra carried by a jet polynomial ring.

State space V is the polynomial ring in the untwisted jet variables, the
twisted module at the trivial symmetry; the vertex operator Y(a, z) =
e^(zT) a, the twisted field there, acts by multiplication, so every mode
a_(n) is multiplication by T^(-n-1)(a)/(-n-1)! for n <= -1 and zero for
n >= 0.  The checkers below verify the axioms and the Borcherds identity
as exact polynomial identities applied to the vacuum; every sum is finite
and the code works out the support bounds itself.  All but creation and
equivariance are the twisted checkers at the trivial symmetry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .jetpoly import (
    JetPoly,
    PuiseuxSeries,
    apply_automorphism,
    divided_t_power,
    floor_units,
    require_coordinates,
)
from .jetscheme import DiagAutomorphism
from .reports import CheckResult
from .twisted import (
    _borcherds_witness,
    _field,
    _layout,
    check_multiplicative,
    check_translation,
    check_vacuum,
    twisted_field,
)


def _require_untwisted(a: JetPoly) -> None:
    bad = [v for v in a.variables() if v.point != 0 or v.den != 1]
    if bad:
        raise ValueError(f"not an untwisted jet polynomial (variable {min(bad)})")


# A sweep runs the whole index box of one pair before the next pair.
@lru_cache(maxsize=2)
def _trivial_symmetry(*polys: JetPoly) -> DiagAutomorphism:
    """The identity on every coordinate the polynomials use, at the first's order."""
    top = max((v.index for p in polys for v in p.variables()), default=0)
    return DiagAutomorphism(polys[0].order, (0,) * top)


def vertex_op(a: JetPoly, window) -> PuiseuxSeries:
    """Y(a, z) = sum_{n>=0} T^n(a)/n! z^n up to the window: the twisted
    field at the trivial symmetry, a prefix of its widest read in the memo
    ``jetpoly.expansion``.  Its mode(n) is a windowed plain mode;
    ``translation_series`` is its oracle."""
    _require_untwisted(a)
    return twisted_field(a, _trivial_symmetry(a), window)


def mode(a: JetPoly, n: int | Fraction) -> JetPoly:
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
    automorphism exponent vector is supplied) equivariance of modes.  The
    twisted checks serve for translation, vacuum and multiplicativity, at
    the trivial symmetry of a and every sample."""
    W = Fraction(window)
    samples = [JetPoly.one(a.order), a] if samples is None else list(samples)
    for p in (a, *samples):
        _require_untwisted(p)
        if alpha is not None:
            require_coordinates(p, alpha)
    g = _trivial_symmetry(a, *samples)

    out = [check_translation(a, g, W, "Y"), check_vacuum(g, W, "Y")]

    # Y(a) up to W + 1, coded in a's layout, is in the expansion memo: the
    # translation check read it.
    fa = _field(a, g, floor_units(W, g.order) + g.order, _layout(g, a))
    created = mode(a, -1)
    ok = next(iter(fa.terms), 0) >= 0 and created == a
    name = "creation: Y(a,z)1 regular and a_(-1)1 = a"
    out.append(CheckResult(name, ok, None if ok else str(created - a)))

    for b in samples:
        c = check_multiplicative(a, b, g, W, "Y")
        out.append(CheckResult(f"{c.name} [b = {b}]", c.passed, c.witness))

    if alpha is not None:
        ga = apply_automorphism(alpha, a)
        # (n, g(a)_(n), a_(n)): no sample changes them.
        modes = [(n, mode(ga, n), mode(a, n)) for n in _EQUIVARIANCE_MODES]
        for b in samples:
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
    the jet ring itself, with (l, m, n) there = (n, m, k) here, summed by
    the same core.
    """
    for idx in (m_idx, n_idx, k_idx):
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise ValueError("untwisted Borcherds indices must be integers")
    g1 = _trivial_symmetry(a, b)
    bad = _borcherds_witness(a, b, g1, n_idx, m_idx, k_idx, window)
    return CheckResult(f"borcherds(m={m_idx}, n={n_idx}, k={k_idx})", bad is None, bad)
