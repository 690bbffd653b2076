"""Twisted fields attached to a diagonal symmetry of finite order.

For a diagonal symmetry g of order m the twisted state space is the
polynomial ring on jet variables whose levels sit in the coset
alpha_i/m + Z.  A source element a of the plain jet ring (integer levels)
is sent to the field

    Y_g(x[i,0], z)  =  sum over admissible levels n of  x[i,n] z^(-n),
    Y_g(x[i,-d], z) =  (d/dz)^d Y_g(x[i,0], z) / d!,

extended multiplicatively over monomial factors and linearly over terms.
The source must be homogeneous for the diagonal character; the resulting
field is then supported on the matching coset of (1/m)Z.  Checkers verify
the twisted-module axioms, the twisted Borcherds identity (evaluated on the
vacuum with every mode exact), and the descent of jet-equation generators
into the twisted field coefficients.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache

from .jetpoly import (
    JetPoly,
    PuiseuxSeries,
    TruncationError,
    binom,
    derivation_T,
    divided_t_power,
    eigen_index,
    substitute_jets,
)
from .jetscheme import DiagAutomorphism, SchemeSpec, _poly_row, twisted_jet_generators
from .linalg import RowReducer
from .reports import CheckResult


def _alpha_list(g: DiagAutomorphism, spec: SchemeSpec | None) -> tuple[int, ...]:
    """Exponents positioned by variable index (positional 1..k without a
    scheme)."""
    if spec is not None:
        return tuple(g.alpha_by_index(spec))
    return g.exponents


def _max_weight(a: JetPoly) -> Fraction:
    return max((mon.weight for mon, _ in a.terms), default=Fraction(0))


@dataclasses.dataclass(frozen=True)
class TwistedField:
    """A truncated twisted field together with its source and character."""

    source: JetPoly
    eigenindex: int
    series: PuiseuxSeries

    def mode(self, n) -> JetPoly:
        """Coefficient of z^(-n-1); exact zero off the window is honest,
        beyond the window it raises."""
        return self.series.coefficient(-Fraction(n) - 1)


# Sweeps reuse a few recent fields; an unbounded cache keeps every one.
@lru_cache(maxsize=32)
def _build_field(
    a: JetPoly, order: int, alpha: tuple[int, ...], window: Fraction
) -> TwistedField:
    for v in a.variables():
        if v.index > len(alpha):
            raise ValueError(f"no exponent known for coordinate {v.index}")
    r = eigen_index(a, alpha)
    if r is None:
        raise ValueError("twisted field source must be character-homogeneous")
    offsets = {i: Fraction(e, order) for i, e in enumerate(alpha, start=1)}
    return TwistedField(a, r, substitute_jets(a, offsets, window))


def twisted_field(
    a: JetPoly, g: DiagAutomorphism, window, spec: SchemeSpec | None = None
) -> TwistedField:
    if a.order != g.order:
        raise ValueError("source and symmetry orders differ")
    return _build_field(a, g.order, _alpha_list(g, spec), Fraction(window))


def twisted_vertex_op(
    a: JetPoly, g: DiagAutomorphism, window, spec: SchemeSpec | None = None
) -> PuiseuxSeries:
    return twisted_field(a, g, window, spec).series


def twisted_mode(
    a: JetPoly, g: DiagAutomorphism, n, window, spec: SchemeSpec | None = None
) -> JetPoly:
    return twisted_field(a, g, window, spec).mode(n)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_twisted_axioms(
    a: JetPoly,
    b: JetPoly,
    g: DiagAutomorphism,
    window,
    spec: SchemeSpec | None = None,
) -> list[CheckResult]:
    """Support coset, pole bound, vacuum, translation, multiplicativity."""
    W = Fraction(window)
    m = g.order
    out: list[CheckResult] = []

    fa = twisted_field(a, g, W, spec)
    coset_bad = [
        w for w in fa.series.support() if (w + Fraction(fa.eigenindex, m)) % 1 != 0
    ]
    out.append(
        CheckResult(
            f"support coset: exponents of Y_g(a) lie in -{fa.eigenindex}/{m} + Z",
            not coset_bad,
            None if not coset_bad else f"stray exponent {coset_bad[0]}",
        )
    )

    ms = fa.series.min_support()
    pole_ok = ms is None or ms >= -_max_weight(a)
    out.append(
        CheckResult(
            "pole bound: order of pole of Y_g(a) at most the weight of a",
            pole_ok,
            None if pole_ok else f"minimum exponent {ms}",
        )
    )

    vac = twisted_field(JetPoly.one(m), g, W, spec).series
    vac_ok = vac.support() == (Fraction(0),) and vac.coefficient(0) == JetPoly.one(m)
    out.append(
        CheckResult("vacuum: Y_g(1,z) = id", vac_ok, None if vac_ok else str(vac))
    )

    lhs = twisted_field(derivation_T(a), g, W, spec).series
    rhs = twisted_field(a, g, W + 1, spec).series.differentiate()
    bad = lhs.mismatches(rhs)
    out.append(
        CheckResult(
            "translation: Y_g(Ta,z) = d/dz Y_g(a,z)",
            not bad,
            None if not bad else f"z^{bad[0][0]}: {bad[0][1]}",
        )
    )

    pad = W + _max_weight(a) + _max_weight(b) + 1
    prod = twisted_field(a * b, g, W, spec).series
    split = (
        twisted_field(a, g, pad, spec).series * twisted_field(b, g, pad, spec).series
    ).truncate(W)
    bad = prod.mismatches(split)
    out.append(
        CheckResult(
            "multiplicative: Y_g(ab,z) = Y_g(a,z)Y_g(b,z)",
            not bad,
            None if not bad else f"z^{bad[0][0]}: {bad[0][1]}",
        )
    )
    return out


def _lazy_product(order: int, factors) -> JetPoly:
    """Multiply lazily evaluated mode factors.

    Each factor is a thunk returning a polynomial or raising a truncation
    error.  An evaluated factor that is exactly zero settles the product
    regardless of the others; otherwise a truncated factor propagates.
    """
    vals = []
    pending: list[TruncationError] = []
    for f in factors:
        try:
            vals.append(f())
        except TruncationError as err:
            pending.append(err)
            vals.append(None)
    if any(v is not None and v.is_zero for v in vals):
        return JetPoly.zero(order)
    if pending:
        raise pending[0]
    out = JetPoly.one(order)
    for v in vals:
        out = out * v
    return out


def check_twisted_borcherds(
    a: JetPoly,
    b: JetPoly,
    g: DiagAutomorphism,
    l_idx: int,
    m_idx,
    n_idx,
    window,
    spec: SchemeSpec | None = None,
) -> CheckResult:
    """Twisted Borcherds identity on the vacuum, all modes exact:

    sum_i C(m,i) (a_(l+i) b)_(m+n-i)
      = sum_i (-1)^i C(l,i) [ a_(l+m-i) b_(n+i) - (-1)^l b_(l+n-i) a_(m+i) ]

    with l an integer and m, n in the cosets picked out by the characters
    of a and b.
    """
    W = Fraction(window)
    order = g.order
    alpha = _alpha_list(g, spec)
    if not isinstance(l_idx, int):
        if Fraction(l_idx).denominator != 1:
            raise ValueError("the first Borcherds index must be an integer")
        l_idx = int(l_idx)
    m_idx = Fraction(m_idx)
    n_idx = Fraction(n_idx)
    r_a = eigen_index(a, alpha)
    r_b = eigen_index(b, alpha)
    if r_a is None or r_b is None:
        raise ValueError("Borcherds sources must be character-homogeneous")
    if (m_idx - Fraction(r_a, order)) % 1 != 0:
        raise ValueError(f"index m = {m_idx} must lie in {r_a}/{order} + Z")
    if (n_idx - Fraction(r_b, order)) % 1 != 0:
        raise ValueError(f"index n = {n_idx} must lie in {r_b}/{order} + Z")
    name = f"twisted borcherds(l={l_idx}, m={m_idx}, n={n_idx})"

    fld_a = twisted_field(a, g, W, spec)
    fld_b = twisted_field(b, g, W, spec)

    lhs = JetPoly.zero(order)
    i = 0
    while l_idx + i <= -1:
        inner = divided_t_power(a, -(l_idx + i) - 1) * b
        if not inner.is_zero:
            coef = binom(m_idx, i)
            lhs = lhs + twisted_mode(
                inner, g, m_idx + n_idx - i, W, spec
            ).scale(coef)
        i += 1

    def _dead(fld: TwistedField, idx: Fraction) -> bool:
        # Provably zero: the coefficient exponent sits inside the window and
        # below every visible term.
        e = -idx - 1
        if fld.series.trunc is not None and e > fld.series.trunc:
            return False
        ms = fld.series.min_support()
        return ms is None or e < ms

    sign_l = -1 if l_idx % 2 else 1
    rhs = JetPoly.zero(order)
    i = 0
    while True:
        if l_idx >= 0:
            if i > l_idx:
                break
        elif _dead(fld_b, n_idx + i) and _dead(fld_a, m_idx + i):
            break
        c = binom(l_idx, i) * (-1 if i % 2 else 1)
        if c:
            t1 = _lazy_product(
                order,
                (
                    lambda i=i: fld_a.mode(l_idx + m_idx - i),
                    lambda i=i: fld_b.mode(n_idx + i),
                ),
            )
            t2 = _lazy_product(
                order,
                (
                    lambda i=i: fld_b.mode(l_idx + n_idx - i),
                    lambda i=i: fld_a.mode(m_idx + i),
                ),
            )
            rhs = rhs + (t1 - t2.scale(sign_l)).scale(c)
        i += 1

    diff = lhs - rhs
    return CheckResult(name, diff.is_zero, None if diff.is_zero else str(diff))


# ---------------------------------------------------------------------------
# descent of jet-equation generators into field coefficients
# ---------------------------------------------------------------------------


def check_descent(
    spec: SchemeSpec,
    g: DiagAutomorphism,
    rel_index: int,
    n: int,
    window,
) -> list[CheckResult]:
    """The coefficients of Y_g applied to the n-th divided translate of a
    defining equation are binomial multiples of the twisted jet-equation
    generators, and in particular lie in their span.

    ``rel_index`` is 1-based, matching the generator records.
    """
    W = Fraction(window)
    if not 1 <= rel_index <= len(spec.relations):
        raise ValueError(f"relation index {rel_index} out of range")
    rel = spec.relations[rel_index - 1]
    alpha = _alpha_list(g, spec)
    if eigen_index(rel, alpha) is None:
        raise ValueError("relation is not character-homogeneous for this symmetry")

    src = divided_t_power(rel, n)
    fld = twisted_field(src, g, W, spec).series
    gens = twisted_jet_generators(spec, g, W + n)
    table = {
        (gen.relation, gen.weight): gen.poly for gen in gens.generators
    }

    exponents = set(fld.support())
    exponents.update(
        u - n for (ri, u) in table if ri == rel_index and -n <= u - n <= W
    )
    ok = True
    witness = None
    for w in sorted(exponents):
        lhs = fld.coefficient(w)
        base = table.get((rel_index, w + n), JetPoly.zero(spec.order))
        rhs = base.scale(binom(w + n, n))
        if lhs != rhs:
            ok = False
            witness = f"z^{w}: {lhs - rhs}"
            break
    results = [
        CheckResult(
            f"descent coefficients: rel {rel_index}, translate {n}", ok, witness
        )
    ]

    columns = {}
    red = RowReducer(spec.order)
    for gen in gens.generators:
        red.add(_poly_row(gen.poly, columns))
    stray = None
    for w in fld.support():
        p = fld.coefficient(w)
        if any(mon not in columns for mon, _ in p.terms):
            stray = w
            break
        if not red.contains(_poly_row(p, columns)):
            stray = w
            break
    results.append(
        CheckResult(
            f"descent span: rel {rel_index}, translate {n}, coefficients in "
            "the twisted generator span",
            stray is None,
            None if stray is None else f"coefficient at z^{stray}",
        )
    )
    return results
