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

The collapse comes from the degree-1 sections x_i u^j du: each relation
of one kills a twisted jet variable of positive weight, or glues x_i[0]
at the two points.  So the relations of higher sections are not expanded
one field pair at a time.  ``coinvariant_dims`` takes the linear
generators (the twisted jet generators and the degree-1 relations, whose
terms all have degree 1) through ``eliminate_linear``, the pivot step of
``graded_quotient_dims``, which gives each pivot variable its image phi.
It pushes each coordinate's two fields through phi once, Y_g(x_i) on
alphabet 0 and Y_g^-1(x_i) on alphabet 1, and builds the pruned fields of
every section of degree d >= 2, in degree order, as the series product of
those of a section of degree d - 1 and of one coordinate; the relations
are read off them at exponents <= W, keyed by j as ``residue_relation``
keys them.  The table is then built from those same pivots, the other
generators and the pruned relations by ``_solved_quotient_dims``, the
step of ``graded_quotient_dims`` after its linear solve, so the linear
generators are solved once per job.  It is the table the unpruned
relations give, for three reasons:

- Ring map.  phi is a ring map and the field map is multiplicative, so
  phi(Y_g(p)) is the product of the phi(Y_g(x_i))^e_i, and likewise at
  infinity.  Level-0 fields have exponents >= 0, so the product of fields
  known up to W is exact up to W.
- Same pivots.  The linear generators are the same, so their reduced
  echelon pivots and images are the ones the unpruned route would find; a
  pruned relation holds no pivot variable, so the table's substitution
  leaves it as it is.
- Same multiplier room.  The relation of a degree-d monomial is
  homogeneous of degree d, and phi sends each variable to a linear form,
  so its image is zero, dropped as before, or of top degree d: the room
  D - d does not change.

On this line of two points phi also sends x_i[0] and xinf_i[0] to the
same form, and the fields of a section are constant once pruned, so every
pruned relation vanishes; the tests check the products of fields with
fewer pivots replaced as well.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly, JetVar, Monomial, PuiseuxSeries, retag_point
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    _checked_generators,
    _solved_quotient_dims,
    _substitute,
    eliminate_linear,
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


def _read_relations(at0, atinf, m: int) -> dict[int, JetPoly]:
    """The relations keyed by j from the (exponent, coefficient) pairs of
    a section's field at 0 and at infinity, the latter on alphabet 1: the
    coefficient at 0 of exponent e is the relation of j = -m e - 1, the
    negated one at infinity that of j = m e - 1, and at e = 0 both meet at
    j = -1."""
    rels = {int(-m * w) - 1: c for w, c in at0}
    for w, c in atinf:
        j = int(m * w) - 1
        rels[j] = rels[j] - c if j in rels else -c
    return rels


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
    atinf = twisted_field(p, g.inverse(), W, spec).coeffs
    rels = _read_relations(
        twisted_field(p, g, W, spec).coeffs,
        [(w, retag_point(c, 1)) for w, c in atinf],
        m,
    )
    for j, rel in rels.items():
        w = Fraction(abs(j + 1), m)
        if rel.homogeneous_weight() != w:
            raise ValueError(
                f"residue relation of {mon} at j = {j} is not of weight {w}"
            )
    return dict(sorted(rels.items()))


def _retag_vars(vars_: tuple[JetVar, ...], point: int) -> tuple[JetVar, ...]:
    return tuple(JetVar(point, v.index, v.minus_level) for v in vars_)


def _base_generators(
    setup: OrbiSetup, sections
) -> tuple[tuple[JetVar, ...], list[JetPoly]]:
    """The ambient variables and every generator but the relations of the
    sections of degree >= 2: the twisted jet generators at both points and
    the relations of the degree-1 sections."""
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    pres0 = twisted_jet_generators(spec, g, W)
    presinf = twisted_jet_generators(spec, g.inverse(), W)
    ambient = pres0.variables + _retag_vars(presinf.variables, 1)

    gens: list[JetPoly] = [gen.poly for gen in pres0.generators]
    gens.extend(retag_point(gen.poly, 1) for gen in presinf.generators)
    for mon in sections:
        if mon.degree == 1:
            gens.extend(residue_relation(mon, setup).values())
    return ambient, gens


def pruned_relations(
    setup: OrbiSetup, sections, images
) -> dict[Monomial, dict[int, JetPoly]]:
    """The relations of each section of degree >= 2, with every pivot
    variable of ``images`` replaced by its image, keyed by j as
    ``residue_relation`` keys them; a relation that vanishes is left out.

    ``sections`` is in degree order, as ``enumerate_sections`` gives it,
    so the pruned fields of mon / x_i are built before those of mon."""
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    m, order = g.order, spec.order
    powers: dict = {}

    def pruned(a: JetPoly, h: DiagAutomorphism, point: int) -> PuiseuxSeries:
        fld = twisted_field(a, h, W, spec)
        acc = {}
        for w, c in fld.coeffs:
            if point:
                c = retag_point(c, point)
            acc[w] = _substitute(c, images, powers)
        return PuiseuxSeries.from_dict(order, acc, fld.trunc)

    zero = PuiseuxSeries.from_dict(order, {}, W)

    def times(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
        # Exponents are >= 0, so a series that is zero up to W makes the
        # product zero up to W.  The pivots kill every variable of positive
        # weight, so a moved coordinate's pruned fields are zero.
        if not (a.coeffs and b.coeffs):
            return zero
        prod = a * b
        return prod.truncate(min(W, prod.trunc))

    fields: dict[Monomial, tuple[PuiseuxSeries, PuiseuxSeries]] = {}
    out: dict[Monomial, dict[int, JetPoly]] = {}
    for mon in sections:
        if mon.degree == 1:
            x = JetPoly(order, ((mon, CycScalar.one(order)),))
            fields[mon] = (pruned(x, g, 0), pruned(x, g.inverse(), 1))
            continue
        (v, e), rest = mon.factors[0], mon.factors[1:]
        low = fields[Monomial(((v, e - 1),) + rest if e > 1 else rest)]
        coord = fields[Monomial(((v, 1),))]
        at0, atinf = fields[mon] = (times(low[0], coord[0]), times(low[1], coord[1]))
        rels = _read_relations(at0.coeffs, atinf.coeffs, m)
        out[mon] = {j: rel for j, rel in sorted(rels.items()) if not rel.is_zero}
    return out


def coinvariant_dims(setup: OrbiSetup) -> dict[tuple[Fraction, int], int]:
    """Bounded bigraded dimension table of the coinvariant space, from the
    linear generators and the pruned relations of the higher sections (see
    the module docstring)."""
    spec, g, W, D = setup.spec, setup.auto, setup.max_weight, setup.max_degree
    sections = enumerate_sections(spec, D)
    ambient, gens = _base_generators(setup, sections)
    gens = _checked_generators(g.order, ambient, gens)
    images, others = eliminate_linear(g.order, ambient, gens)
    for rels in pruned_relations(setup, sections, images).values():
        others.extend(_checked_generators(g.order, ambient, rels.values()))
    return _solved_quotient_dims(g.order, ambient, images, others, W, D)


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
