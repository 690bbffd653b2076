"""Twisted fields attached to a diagonal symmetry of finite order.

For a diagonal symmetry g of order m the twisted state space is the
polynomial ring on jet variables whose levels sit in the coset
alpha_i/m + Z.  A source element a of the plain jet ring (integer levels)
is sent to the field

    Y_g(x[i,0], z)  =  sum over admissible levels n of  x[i,n] z^(-n),
    Y_g(x[i,-d], z) =  (d/dz)^d Y_g(x[i,0], z) / d!,

extended multiplicatively over monomial factors and linearly over terms.
The source must be homogeneous for the diagonal character; the resulting
field is then supported on the matching coset of (1/m)Z.  A field is its
series, a ``PuiseuxSeries`` known up to the window: the mode a_(n) is its
coefficient of z^(-n-1), read through the series' one exponent index,
which also knows where the window ends.  Checkers verify the
twisted-module axioms, the twisted Borcherds identity (evaluated on the
vacuum with every mode exact), and the descent of jet-equation generators
into the twisted field coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .jetpoly import (
    JetPoly,
    PuiseuxSeries,
    add_into,
    binom,
    derivation_T,
    divided_t_power,
    eigen_index,
    mul_into,
    substitute_jets,
)
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    first_outside_span,
    twisted_jet_generators,
)
from .reports import CheckResult


def _alpha_list(g: DiagAutomorphism, spec: SchemeSpec | None) -> tuple[int, ...]:
    """Exponents positioned by variable index (positional 1..k without a
    scheme)."""
    if spec is not None:
        return tuple(g.alpha_by_index(spec))
    return g.exponents


def _max_weight(a: JetPoly) -> Fraction:
    return max((mon.weight for mon, _ in a.terms), default=Fraction(0))


# Sweeps reuse a few recent fields; an unbounded cache keeps every one.
@lru_cache(maxsize=32)
def _build_field(
    a: JetPoly, order: int, alpha: tuple[int, ...], window: Fraction
) -> PuiseuxSeries:
    for v in a.variables():
        if v.index > len(alpha):
            raise ValueError(f"no exponent known for coordinate {v.index}")
    if eigen_index(a, alpha) is None:
        raise ValueError("twisted field source must be character-homogeneous")
    offsets = {i: Fraction(e, order) for i, e in enumerate(alpha, start=1)}
    return substitute_jets(a, offsets, window)


def twisted_field(
    a: JetPoly, g: DiagAutomorphism, window, spec: SchemeSpec | None = None
) -> PuiseuxSeries:
    if a.order != g.order:
        raise ValueError("source and symmetry orders differ")
    return _build_field(a, g.order, _alpha_list(g, spec), Fraction(window))


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
    r = eigen_index(a, _alpha_list(g, spec))
    stray = next((w for w in fa.support() if (w + Fraction(r, m)) % 1 != 0), None)
    out.append(
        CheckResult(
            f"support coset: exponents of Y_g(a) lie in -{r}/{m} + Z",
            stray is None,
            None if stray is None else f"stray exponent {stray}",
        )
    )

    ms = fa.min_support()
    pole_ok = ms is None or ms >= -_max_weight(a)
    out.append(
        CheckResult(
            "pole bound: order of pole of Y_g(a) at most the weight of a",
            pole_ok,
            None if pole_ok else f"minimum exponent {ms}",
        )
    )

    vac = twisted_field(JetPoly.one(m), g, W, spec)
    vac_ok = vac.support() == (Fraction(0),) and vac.coefficient(0) == JetPoly.one(m)
    out.append(
        CheckResult("vacuum: Y_g(1,z) = id", vac_ok, None if vac_ok else str(vac))
    )

    lhs = twisted_field(derivation_T(a), g, W, spec)
    rhs = twisted_field(a, g, W + 1, spec).differentiate()
    bad = lhs.first_mismatch(rhs)
    out.append(CheckResult("translation: Y_g(Ta,z) = d/dz Y_g(a,z)", bad is None, bad))

    # The padded product is exact at least up to W, and the comparison runs
    # over the overlap of the two windows, that is up to W.
    pad = W + _max_weight(a) + _max_weight(b) + 1
    prod = twisted_field(a * b, g, W, spec)
    split = twisted_field(a, g, pad, spec) * twisted_field(b, g, pad, spec)
    bad = prod.first_mismatch(split)
    out.append(
        CheckResult("multiplicative: Y_g(ab,z) = Y_g(a,z)Y_g(b,z)", bad is None, bad)
    )
    return out


# A sweep meets the same few a_(-k-1) b in call after call; the same object
# back also finds its field in the cache without rehashing.
@lru_cache(maxsize=64)
def _divided_product(a: JetPoly, k: int, b: JetPoly) -> JetPoly:
    """a_(-k-1) b = T^k(a)/k! * b."""
    return divided_t_power(a, k) * b


def _mode_pair(fa: PuiseuxSeries, ia, fb: PuiseuxSeries, ib):
    """The two modes of one product, fa's at ia and fb's at ib, or None
    when either is exactly zero: a zero factor settles the product even when
    the other lies beyond the window.  Otherwise a mode beyond the window
    raises TruncationError, the first factor's before the second's."""
    p, q = fa.known_mode(ia), fb.known_mode(ib)
    if (p is not None and p.is_zero) or (q is not None and q.is_zero):
        return None
    return (fa.mode(ia) if p is None else p, fb.mode(ib) if q is None else q)


def _dead(fld: PuiseuxSeries, idx: Fraction) -> bool:
    """Is the mode at idx provably zero, and every mode above it too?  So
    it is when it lies inside the window and below every visible term."""
    if fld.known_mode(idx) is None:
        return False
    ms = fld.min_support()
    return ms is None or -idx - 1 < ms


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

    Both sides go into one Monomial -> scalar sum, lhs minus rhs, and each
    product of two modes is multiplied straight into it.  A product with a
    factor that is exactly zero adds nothing, even when its other factor
    lies beyond the window; otherwise a mode beyond the window raises
    TruncationError, the lhs modes first, then the rhs products in the order
    of the sum.  The identity holds when every coefficient of the sum is
    zero; else the witness is the sum as a ``JetPoly``, lhs - rhs.
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

    acc: dict = {}  # lhs - rhs
    i = 0
    while l_idx + i <= -1:
        inner = _divided_product(a, -(l_idx + i) - 1, b)
        if not inner.is_zero:
            coef = binom(m_idx, i)
            mode = twisted_field(inner, g, W, spec).mode(m_idx + n_idx - i)
            if coef:
                add_into(acc, mode.terms, coef)
        i += 1

    sign_l = -1 if l_idx % 2 else 1
    i = 0
    while True:
        if l_idx >= 0:
            if i > l_idx:
                break
        elif _dead(fld_b, n_idx + i) and _dead(fld_a, m_idx + i):
            break
        c = binom(l_idx, i) * (-1 if i % 2 else 1)
        if c:
            t1 = _mode_pair(fld_a, l_idx + m_idx - i, fld_b, n_idx + i)
            if t1 is not None:
                mul_into(acc, t1[0].terms, t1[1].terms, -c)
            t2 = _mode_pair(fld_b, l_idx + n_idx - i, fld_a, m_idx + i)
            if t2 is not None:
                mul_into(acc, t2[0].terms, t2[1].terms, c * sign_l)
        i += 1

    if not any(acc.values()):
        return CheckResult(name, True, None)
    return CheckResult(name, False, str(JetPoly._from_dict(order, acc)))


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
    fld = twisted_field(src, g, W, spec)
    gens = twisted_jet_generators(spec, g, W + n)
    table = {
        (gen.relation, gen.weight): gen.poly for gen in gens.generators
    }

    # Every generator weight u lies in [0, W + n], so u - n lies in [-n, W].
    exponents = set(fld.support())
    exponents.update(u - n for (ri, u) in table if ri == rel_index)
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

    k = first_outside_span(
        spec.order, (gen.poly for gen in gens.generators), (p for _, p in fld.coeffs)
    )
    stray = None if k is None else fld.coeffs[k][0]
    results.append(
        CheckResult(
            f"descent span: rel {rel_index}, translate {n}, coefficients in "
            "the twisted generator span",
            stray is None,
            None if stray is None else f"coefficient at z^{stray}",
        )
    )
    return results
