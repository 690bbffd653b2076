"""Coinvariants of a pair of twisted modules on the orbifold line.

The cyclic quotient of the projective line has two special points; the
twisted module for g sits at the origin (alphabet 0) and the module for the
inverse symmetry sits at infinity (alphabet 1).  A monomial p in the
coordinates together with an integer j such that j + 1 matches the
character of p modulo m determines a global section p u^j du, and each
section imposes one linear relation on the product of the two modules: the
matching field coefficients at the two points must cancel,

    (coeff of z^(-(j+1)/m) in Y_g(p))       on alphabet 0
  - (coeff of w^((j+1)/m)  in Y_g^-1(p))    on alphabet 1.

Because the sources are level-0, each field is supported in nonnegative
exponents, so the relation set is just the coefficients of each monomial's
two fields: the coefficient of Y_g(p) at an exponent e > 0 for
j = -m e - 1, the negated one of Y_g^-1(p) at e for j = m e - 1, and at
exponent 0 the gluing relation p(0) - p(inf) of j = -1, which identifies
the two level-0 rings along invariant monomials.  A coefficient at
exponent e has weight e, so each field is built once, at the weight
window.
The bounded quotient of the two twisted jet rings by the twisted jet ideals
plus these residue relations is computed exactly; for windows at least one
it collapses onto the coordinate ring of the fixed subscheme in weight
zero, and the verifier confirms that table and the vanishing of every
positive-weight entry.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly, JetVar, Monomial, retag_point
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    enumerate_monomials,
    fixed_point_ring,
    graded_quotient_dims,
    jet_var,
    twisted_jet_generators,
)
from .reports import CheckResult
from .twisted import twisted_field


@dataclasses.dataclass(frozen=True)
class OrbiSetup:
    """A scheme with symmetry plus the truncation box for coinvariants."""

    spec: SchemeSpec
    auto: DiagAutomorphism
    max_weight: Fraction
    max_degree: int

    def __post_init__(self):
        object.__setattr__(self, "max_weight", Fraction(self.max_weight))
        if len(self.auto.exponents) != self.spec.k:
            raise ValueError("exponent count does not match the scheme")
        if self.spec.order != self.auto.order:
            raise ValueError("scheme and symmetry orders differ")


def enumerate_sections(spec: SchemeSpec, max_degree: int) -> list[Monomial]:
    """The level-0 monomials p of degree 1 to max_degree.  Each stands for
    its sections p u^j du, one for every j with j + 1 = character(p) mod m."""
    level0 = tuple(jet_var(idx, 0) for idx in spec.variables)
    monos = enumerate_monomials(level0, 0, max_degree).get(Fraction(0), [])
    return [mon for mon in monos if mon.degree]


def residue_relation(mon: Monomial, setup: OrbiSetup) -> dict[int, JetPoly]:
    """The nonzero relations of the sections of one monomial, keyed by j.

    Both fields are built at the weight window W.  The coefficient of
    Y_g(p) at an exponent 0 < e <= W is the relation of j = -m e - 1, the
    one of Y_g^-1(p) at e, moved to alphabet 1 and negated, that of
    j = m e - 1, and the two constant coefficients glue at j = -1.
    """
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    m = g.order
    p = JetPoly(spec.order, ((mon, CycScalar.one(spec.order)),))
    rels: dict[int, JetPoly] = {}
    for w, c in twisted_field(p, g, W, spec).coeffs:
        rels[int(-m * w) - 1] = c
    for w, c in twisted_field(p, g.inverse(), W, spec).coeffs:
        j = int(m * w) - 1
        rels[j] = rels.get(j, JetPoly.zero(spec.order)) - retag_point(c, 1)
    for j, rel in rels.items():
        w = Fraction(abs(j + 1), m)
        if rel.homogeneous_weight() != w:
            raise ValueError(
                f"residue relation of {mon} at j = {j} is not of weight {w}"
            )
    return dict(sorted(rels.items()))


def _retag_vars(vars_: tuple[JetVar, ...], point: int) -> tuple[JetVar, ...]:
    return tuple(JetVar(point, v.index, v.minus_level) for v in vars_)


def coinvariant_dims(setup: OrbiSetup) -> dict[tuple[Fraction, int], int]:
    """Bounded bigraded dimension table of the coinvariant space."""
    spec, g, W, D = setup.spec, setup.auto, setup.max_weight, setup.max_degree

    pres0 = twisted_jet_generators(spec, g, W)
    presinf = twisted_jet_generators(spec, g.inverse(), W)
    ambient = pres0.variables + _retag_vars(presinf.variables, 1)

    gens: list[JetPoly] = [gen.poly for gen in pres0.generators]
    gens.extend(retag_point(gen.poly, 1) for gen in presinf.generators)
    for mon in enumerate_sections(spec, D):
        gens.extend(residue_relation(mon, setup).values())
    return graded_quotient_dims(g.order, ambient, gens, W, D)


def verify_fixed_ring(
    setup: OrbiSetup,
) -> tuple[dict[tuple[Fraction, int], int], list[CheckResult]]:
    """Coinvariant table plus the checks that it matches the fixed ring in
    weight zero and vanishes in positive weight."""
    dims = coinvariant_dims(setup)
    spec, g, D = setup.spec, setup.auto, setup.max_degree

    fixed = fixed_point_ring(spec, g)
    fixed_vars = tuple(jet_var(i, 0) for i in fixed.variables)
    ref = graded_quotient_dims(g.order, fixed_vars, fixed.relations, 0, D)

    checks: list[CheckResult] = []
    bad = None
    for d in range(0, D + 1):
        got = dims.get((Fraction(0), d), 0)
        want = ref.get((Fraction(0), d), 0)
        if got != want:
            bad = f"degree {d}: coinvariants {got}, fixed ring {want}"
            break
    checks.append(
        CheckResult(
            "weight 0: coinvariant dimensions equal the fixed-ring table",
            bad is None,
            bad,
        )
    )

    bad = None
    for (w, d), v in sorted(dims.items()):
        if w > 0 and v != 0:
            bad = f"weight {w}, degree {d}: dimension {v}"
            break
    checks.append(
        CheckResult(
            "positive weight: every coinvariant dimension vanishes",
            bad is None,
            bad,
        )
    )
    return dims, checks
