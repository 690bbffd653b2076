"""Weight-shift operators on jet rings and their commutation relations.

The ring of jet variables carries a family of first-order derivations, one
per nonnegative integer b, acting on a variable of level l (l <= 0) by

    L_b x[i,l]  =  -(l+b) x[i,l+b]   if l+b < 0,   else 0.

On the twisted ring for a diagonal symmetry of order m the analogous family
carries an extra factor of m:

    Lt_b x[i,l]  =  -m (l+b) x[i,l+b]   if l+b < 0,   else 0.

L_0 scales a homogeneous element by its weight, Lt_0 by m times its weight,
and for b >= 0 truncation is consistent: intermediate levels only move
toward zero, so the commutators close exactly.  The bracket is evaluated as
L_b L_a - L_a L_b; with the action above this orientation satisfies
[L_a, L_b] = (b-a) L_{a+b} on every jet variable, and the twisted family
satisfies [Lt_a, Lt_b] = m (b-a) Lt_{a+b}.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly, Monomial, admissible_levels, jet_var
from .jetscheme import DiagAutomorphism
from .reports import CheckResult


def _shift_derivation(p: JetPoly, b: int, factor: int) -> JetPoly:
    """First-order derivation sending x[i,l] to -factor*(l+b) x[i,l+b] when
    l+b < 0 and to zero otherwise."""
    if b < 0:
        raise ValueError(
            "only nonnegative shift indices act on the truncated ring"
        )
    order = p.order
    acc: dict[Monomial, CycScalar] = {}
    for mon, c in p.terms:
        factors = mon.factors
        for slot, (v, e) in enumerate(factors):
            new_level = v.level + b
            # Strictly positive landing levels are cut; at exactly zero the
            # coefficient -(l+b) vanishes on its own.
            if new_level >= 0:
                continue
            coef = c * CycScalar.coerce(order, -factor * e * new_level)
            if not coef:
                continue
            rest = [(w, k) for w, k in factors]
            rest[slot] = (v, e - 1)
            rest.append((jet_var(v.index, new_level, v.point), 1))
            mon2 = Monomial.of(*rest)
            cur = acc.get(mon2)
            acc[mon2] = coef if cur is None else cur + coef
    return JetPoly._from_dict(order, acc)


def L_op(b: int, p: JetPoly) -> JetPoly:
    """The untwisted weight-shift derivation L_b, b >= 0."""
    for v in p.variables():
        if v.level.denominator != 1:
            raise ValueError("L_b acts on the ring with integer levels")
    return _shift_derivation(p, b, 1)


def Ltilde_op(b: int, p: JetPoly, g: DiagAutomorphism) -> JetPoly:
    """The twisted weight-shift derivation Lt_b = m * (shift by b), b >= 0."""
    return _shift_derivation(p, b, g.order)


def check_commutators(
    g: DiagAutomorphism, max_index: int, max_weight
) -> list[CheckResult]:
    """Exact commutator and weight-eigenvalue checks for both families.

    Test vectors are all single jet variables of weight up to the window:
    the operators and their brackets are derivations, so agreement on
    variables forces agreement on the whole ring.  Each check runs for the
    plain family (factor 1, integer levels) and then for the twisted one
    (factor m, coset levels).
    """
    W = Fraction(max_weight)
    m = g.order
    k = len(g.exponents)
    plain = [JetPoly.var(m, i, -w) for i in range(1, k + 1) for w in range(int(W) + 1)]
    twisted = [
        JetPoly.var(m, i, n)
        for i in range(1, k + 1)
        for n in admissible_levels(Fraction(g.exponents[i - 1], m), W)
    ]

    def Lt(b, p):
        return Ltilde_op(b, p, g)

    families = [
        ("L", 1, "wt(v)", L_op, plain),
        ("Lt", m, f"{m}*wt(v)", Lt, twisted),
    ]
    out: list[CheckResult] = []
    for name, factor, eigenvalue, L, variables in families:
        bad = _first_mismatch(
            (v, L(0, v), v.scale(factor * _var_weight(v))) for v in variables
        )
        out.append(
            CheckResult(
                f"weight eigenvalue: {name}_0 v = {eigenvalue} v", bad is None, bad
            )
        )
    for name, factor, _, L, variables in families:
        for a in range(0, max_index + 1):
            for b in range(0, max_index + 1):
                coef = factor * (b - a)
                bad = _first_mismatch(
                    (v, L(b, L(a, v)) - L(a, L(b, v)), L(a + b, v).scale(coef))
                    for v in variables
                )
                out.append(
                    CheckResult(
                        f"[{name}_{a}, {name}_{b}] = ({coef}) {name}_{a + b}",
                        bad is None,
                        bad,
                    )
                )
    return out


def _first_mismatch(cases) -> str | None:
    """``v: lhs - rhs`` for the first (v, lhs, rhs) with lhs != rhs."""
    for v, lhs, rhs in cases:
        if lhs != rhs:
            return f"{v}: {lhs - rhs}"
    return None


def _var_weight(v: JetPoly) -> Fraction:
    (mon, _), = v.terms
    return mon.weight
